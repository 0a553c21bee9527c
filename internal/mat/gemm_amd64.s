#include "textflag.h"

// func cpuHasAVX2() bool
//
// Leaf 1 ECX: FMA (bit 12), OSXSAVE (bit 27) and AVX (bit 28); XGETBV xcr0
// must have the x87+SSE+AVX state bits (0x6) OS-enabled; leaf 7 EBX bit 5
// is AVX2. The AVX2 tier's kernels are fused multiply-adds (VFMADD231PD,
// VFMADD231SD), so a CPU (or virtual CPU) that reports AVX2 without FMA
// stays on the scalar tier.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	TESTL $(1<<12), CX // FMA
	JZ   no
	TESTL $(1<<27), CX // OSXSAVE
	JZ   no
	TESTL $(1<<28), CX // AVX
	JZ   no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $(1<<5), BX // AVX2
	JZ   no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func cpuHasAVX512() bool
//
// Leaf 1 ECX: OSXSAVE (bit 27); XGETBV xcr0 must have x87+SSE+AVX (0x6)
// plus opmask+ZMM_Hi256+Hi16_ZMM (0xe0) OS-enabled; leaf 7 EBX bit 16 is
// AVX512F, the only extension the 8-lane kernels use (VMOVUPD, masked
// VMOVUPD, VBROADCASTSD, VPBROADCASTQ, VFMADD231PD, VPXORQ on ZMM; KMOVW).
// The EVEX fused multiply-adds belong to AVX512F itself, so no separate
// FMA bit is needed.
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	TESTL $(1<<27), CX // OSXSAVE
	JZ   no512
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX
	CMPL AX, $0xe6
	JNE  no512
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $(1<<16), BX // AVX512F
	JZ   no512
	MOVB $1, ret+0(FP)
	RET
no512:
	MOVB $0, ret+0(FP)
	RET

// func dotPack4x4(pack, b0, b1, b2, b3 *float64, k int, out *[16]float64)
//
// Four simultaneous 4-lane dot products: pack interleaves four A rows
// (pack[4t+l] = A[i+l][t]), each Y accumulator carries one B row's running
// sums for all four A rows. Every lane performs one fused multiply-add per
// step in ascending-t order — one rounding per step, as math.FMA in the
// scalar path — so results are bit-identical to naive dot products.
TEXT ·dotPack4x4(SB), NOSPLIT, $0-56
	MOVQ pack+0(FP), SI
	MOVQ b0+8(FP), R8
	MOVQ b1+16(FP), R9
	MOVQ b2+24(FP), R10
	MOVQ b3+32(FP), R11
	MOVQ k+40(FP), CX
	MOVQ out+48(FP), DI
	VXORPD Y0, Y0, Y0 // acc for b0
	VXORPD Y1, Y1, Y1 // acc for b1
	VXORPD Y2, Y2, Y2 // acc for b2
	VXORPD Y3, Y3, Y3 // acc for b3
	XORQ AX, AX       // t
loop:
	CMPQ AX, CX
	JGE  done
	MOVQ AX, DX
	SHLQ $5, DX                 // 32*t: pack stride is 4 float64
	VMOVUPD (SI)(DX*1), Y4      // [A[i][t] A[i+1][t] A[i+2][t] A[i+3][t]]
	MOVQ AX, BX
	SHLQ $3, BX                 // 8*t
	VBROADCASTSD (R8)(BX*1), Y5
	VFMADD231PD Y4, Y5, Y0
	VBROADCASTSD (R9)(BX*1), Y5
	VFMADD231PD Y4, Y5, Y1
	VBROADCASTSD (R10)(BX*1), Y5
	VFMADD231PD Y4, Y5, Y2
	VBROADCASTSD (R11)(BX*1), Y5
	VFMADD231PD Y4, Y5, Y3
	INCQ AX
	JMP  loop
done:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// func dotPack8x4(pack, b0, b1, b2, b3 *float64, k int, out *[32]float64)
//
// The AVX-512 widening of dotPack4x4: pack interleaves eight A rows
// (pack[8t+l] = A[i+l][t]), each Z accumulator carries one B row's running
// sums for all eight A rows. Every lane performs one fused multiply-add per
// step in ascending-t order, as the scalar path does, so results are
// bit-identical to naive dot products. Accumulators are zeroed with VPXORQ
// (AVX512F) because VXORPD on ZMM needs AVX512DQ, which cpuHasAVX512 does
// not require.
TEXT ·dotPack8x4(SB), NOSPLIT, $0-56
	MOVQ pack+0(FP), SI
	MOVQ b0+8(FP), R8
	MOVQ b1+16(FP), R9
	MOVQ b2+24(FP), R10
	MOVQ b3+32(FP), R11
	MOVQ k+40(FP), CX
	MOVQ out+48(FP), DI
	VPXORQ Z0, Z0, Z0 // acc for b0
	VPXORQ Z1, Z1, Z1 // acc for b1
	VPXORQ Z2, Z2, Z2 // acc for b2
	VPXORQ Z3, Z3, Z3 // acc for b3
	XORQ AX, AX       // t
loop8:
	CMPQ AX, CX
	JGE  done8
	MOVQ AX, DX
	SHLQ $6, DX                 // 64*t: pack stride is 8 float64
	VMOVUPD (SI)(DX*1), Z4      // [A[i][t] .. A[i+7][t]]
	MOVQ AX, BX
	SHLQ $3, BX                 // 8*t
	VBROADCASTSD (R8)(BX*1), Z5
	VFMADD231PD Z4, Z5, Z0
	VBROADCASTSD (R9)(BX*1), Z5
	VFMADD231PD Z4, Z5, Z1
	VBROADCASTSD (R10)(BX*1), Z5
	VFMADD231PD Z4, Z5, Z2
	VBROADCASTSD (R11)(BX*1), Z5
	VFMADD231PD Z4, Z5, Z3
	INCQ AX
	JMP  loop8
done8:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VZEROUPPER
	RET

// func dotPack16x4(pack, b0, b1, b2, b3 *float64, k int, out *[64]float64)
//
// The top rung of the ladder: pack interleaves sixteen A rows
// (pack[16t+l] = A[i+l][t]), read as two ZMM per k step; each B row j owns
// the accumulator pair {Z(2j), Z(2j+1)}, so eight independent chains
// advance per step — enough to cover the fused multiply-add latency on both
// vector ports, which dotPack8x4's four chains are not. The loop steps its
// pointers (pack by 128 bytes, the B offset by 8) and counts k down: no
// per-step index arithmetic. Every lane is one fused multiply-add per step
// in ascending t, so the bits are the scalar path's. k > 0 is the caller's
// job.
TEXT ·dotPack16x4(SB), NOSPLIT, $0-56
	MOVQ pack+0(FP), SI
	MOVQ b0+8(FP), R8
	MOVQ b1+16(FP), R9
	MOVQ b2+24(FP), R10
	MOVQ b3+32(FP), R11
	MOVQ k+40(FP), CX
	MOVQ out+48(FP), DI
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	XORQ BX, BX // 8*t: byte offset into the B rows
loop16:
	VMOVUPD (SI), Z8    // A[i..i+7][t]
	VMOVUPD 64(SI), Z9  // A[i+8..i+15][t]
	VBROADCASTSD (R8)(BX*1), Z10
	VBROADCASTSD (R9)(BX*1), Z11
	VBROADCASTSD (R10)(BX*1), Z12
	VBROADCASTSD (R11)(BX*1), Z13
	VFMADD231PD Z8, Z10, Z0
	VFMADD231PD Z9, Z10, Z1
	VFMADD231PD Z8, Z11, Z2
	VFMADD231PD Z9, Z11, Z3
	VFMADD231PD Z8, Z12, Z4
	VFMADD231PD Z9, Z12, Z5
	VFMADD231PD Z8, Z13, Z6
	VFMADD231PD Z9, Z13, Z7
	ADDQ $128, SI
	ADDQ $8, BX
	DECQ CX
	JNZ  loop16
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 256(DI)
	VMOVUPD Z5, 320(DI)
	VMOVUPD Z6, 384(DI)
	VMOVUPD Z7, 448(DI)
	VZEROUPPER
	RET

// func dotRow8(a, b *float64, k int, out *[8]float64)
//
// The 1-row tile on FMA hardware: eight B rows, row r at b + r·k, each
// its own scalar chain in X0..X7, one VFMADD231SD per step in ascending t.
// Eight chains cover the fused multiply-add latency on both ports, which
// the Go tile's four do not. k > 0 is the caller's job.
TEXT ·dotRow8(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), R8
	MOVQ k+16(FP), CX
	MOVQ CX, DX
	SHLQ $3, DX // the B row stride in bytes
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	LEAQ (R11)(DX*1), R12
	LEAQ (R12)(DX*1), R13
	LEAQ (R13)(DX*1), AX
	LEAQ (AX)(DX*1), DX
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	VXORPD X4, X4, X4
	VXORPD X5, X5, X5
	VXORPD X6, X6, X6
	VXORPD X7, X7, X7
	XORQ BX, BX // t
looprow8:
	VMOVSD (SI)(BX*8), X8
	VFMADD231SD (R8)(BX*8), X8, X0
	VFMADD231SD (R9)(BX*8), X8, X1
	VFMADD231SD (R10)(BX*8), X8, X2
	VFMADD231SD (R11)(BX*8), X8, X3
	VFMADD231SD (R12)(BX*8), X8, X4
	VFMADD231SD (R13)(BX*8), X8, X5
	VFMADD231SD (AX)(BX*8), X8, X6
	VFMADD231SD (DX)(BX*8), X8, X7
	INCQ BX
	CMPQ BX, CX
	JLT  looprow8
	MOVQ out+24(FP), DI
	VMOVSD X0, (DI)
	VMOVSD X1, 8(DI)
	VMOVSD X2, 16(DI)
	VMOVSD X3, 24(DI)
	VMOVSD X4, 32(DI)
	VMOVSD X5, 40(DI)
	VMOVSD X6, 48(DI)
	VMOVSD X7, 56(DI)
	RET

// The level-2 kernels of the LU. Each lane is one element's own chain —
// one fused multiply-add per term with the multiplier negated first, d =
// fma(−a, v, d), as math.FMA(−a, v, d) in the scalar loop (negating the
// operand, not the product as VFNMADD231PD would, gives even a NaN
// multiplier the loop's sign), in the scalar loop's order — so spreading elements
// (or right-hand-side columns) across lanes changes which chains run
// together, never the bits of any one of them.

// func subScaledAVX2(dst, v *float64, n int, na float64)
//
// dst[k] = fma(na, v[k], dst[k]) for k < n, na = −a: dst[k] −= a·v[k];
// n is a positive multiple of 4.
TEXT ·subScaledAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ v+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD na+24(FP), Y0
	SHRQ $2, CX
loopss4:
	VMOVUPD (DI), Y2
	VFMADD231PD (SI), Y0, Y2
	VMOVUPD Y2, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loopss4
	VZEROUPPER
	RET

// func subScaledAVX512(dst, v *float64, n int, na float64)
//
// subScaledAVX2 eight lanes wide; n is a positive multiple of 8.
TEXT ·subScaledAVX512(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ v+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD na+24(FP), Z0
	SHRQ $3, CX
loopss8:
	VMOVUPD (DI), Z2
	VFMADD231PD (SI), Z0, Z2
	VMOVUPD Z2, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  loopss8
	VZEROUPPER
	RET

// func subScaled4AVX2(dst, v0, v1, v2, v3 *float64, n int, na0, na1, na2, na3 float64)
//
// dst[k] = dst[k] − a0·v0[k] − a1·v1[k] − a2·v2[k] − a3·v3[k], one fused
// step fma(nai, vi[k], ·) per term in that order, nai = −ai, for k < n; n
// is a positive multiple of 4.
TEXT ·subScaled4AVX2(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ v0+8(FP), R8
	MOVQ v1+16(FP), R9
	MOVQ v2+24(FP), R10
	MOVQ v3+32(FP), R11
	MOVQ n+40(FP), CX
	VBROADCASTSD na0+48(FP), Y0
	VBROADCASTSD na1+56(FP), Y1
	VBROADCASTSD na2+64(FP), Y2
	VBROADCASTSD na3+72(FP), Y3
	SHRQ $2, CX
	XORQ BX, BX
loops44:
	VMOVUPD (DI)(BX*1), Y4
	VFMADD231PD (R8)(BX*1), Y0, Y4
	VFMADD231PD (R9)(BX*1), Y1, Y4
	VFMADD231PD (R10)(BX*1), Y2, Y4
	VFMADD231PD (R11)(BX*1), Y3, Y4
	VMOVUPD Y4, (DI)(BX*1)
	ADDQ $32, BX
	DECQ CX
	JNZ  loops44
	VZEROUPPER
	RET

// func subScaled4AVX512(dst, v0, v1, v2, v3 *float64, n int, na0, na1, na2, na3 float64)
//
// subScaled4AVX2 eight lanes wide; n is a positive multiple of 8.
TEXT ·subScaled4AVX512(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ v0+8(FP), R8
	MOVQ v1+16(FP), R9
	MOVQ v2+24(FP), R10
	MOVQ v3+32(FP), R11
	MOVQ n+40(FP), CX
	VBROADCASTSD na0+48(FP), Z0
	VBROADCASTSD na1+56(FP), Z1
	VBROADCASTSD na2+64(FP), Z2
	VBROADCASTSD na3+72(FP), Z3
	SHRQ $3, CX
	XORQ BX, BX
loops48:
	VMOVUPD (DI)(BX*1), Z4
	VFMADD231PD (R8)(BX*1), Z0, Z4
	VFMADD231PD (R9)(BX*1), Z1, Z4
	VFMADD231PD (R10)(BX*1), Z2, Z4
	VFMADD231PD (R11)(BX*1), Z3, Z4
	VMOVUPD Z4, (DI)(BX*1)
	ADDQ $64, BX
	DECQ CX
	JNZ  loops48
	VZEROUPPER
	RET

// func subDotCols4AVX2(dst, l, x *float64, nl, stride int)
//
// dst[c] −= Σ_{j<nl} l[j]·x[j·stride+c] for the four columns c < 4,
// one fused step fma(−l[j], x, ·) per term in ascending j: one YMM lane per
// right-hand-side column.
// stride is in elements; nl may be 0.
TEXT ·subDotCols4AVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ l+8(FP), SI
	MOVQ x+16(FP), R8
	MOVQ nl+24(FP), CX
	MOVQ stride+32(FP), DX
	SHLQ $3, DX
	MOVQ $0x8000000000000000, AX
	MOVQ AX, X3
	VPBROADCASTQ X3, Y3 // the sign bit, to negate l[j]
	VMOVUPD (DI), Y0
	TESTQ CX, CX
	JZ    donesd4
loopsd4:
	VBROADCASTSD (SI), Y1
	VXORPD Y3, Y1, Y1
	VFMADD231PD (R8), Y1, Y0
	ADDQ $8, SI
	ADDQ DX, R8
	DECQ CX
	JNZ  loopsd4
donesd4:
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

// func subDotCols16AVX512(dst, l, x *float64, nl, stride, w int)
//
// subDotCols4AVX2 for up to sixteen columns (w in 1..16) as two ZMM chains
// under the opmasks K1 (columns 0–7) and K2 (8–15): masked-off lanes are
// neither loaded nor stored, so dst and x need hold only the w columns.
TEXT ·subDotCols16AVX512(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ l+8(FP), SI
	MOVQ x+16(FP), R8
	MOVQ stride+32(FP), DX
	MOVQ w+40(FP), CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX // the low w bits
	KMOVW AX, K1
	SHRL $8, AX
	KMOVW AX, K2
	MOVQ nl+24(FP), CX
	SHLQ $3, DX
	MOVQ $0x8000000000000000, AX
	VPBROADCASTQ AX, Z5 // the sign bit, to negate l[j]
	VMOVUPD.Z (DI), K1, Z0
	VMOVUPD.Z 64(DI), K2, Z1
	TESTQ CX, CX
	JZ    donesd16
loopsd16:
	VBROADCASTSD (SI), Z2
	VPXORQ Z5, Z2, Z2
	VMOVUPD.Z (R8), K1, Z3
	VMOVUPD.Z 64(R8), K2, Z4
	VFMADD231PD Z3, Z2, Z0
	VFMADD231PD Z4, Z2, Z1
	ADDQ $8, SI
	ADDQ DX, R8
	DECQ CX
	JNZ  loopsd16
donesd16:
	VMOVUPD Z0, K1, (DI)
	VMOVUPD Z1, K2, 64(DI)
	VZEROUPPER
	RET
