#include "textflag.h"

// func dotPack4x4(pack, b0, b1, b2, b3 *float64, k int, out *[16]float64)
//
// NEON port of the packed microkernel: pack interleaves four A rows
// (pack[4t+l] = A[i+l][t]); float64 NEON vectors are 2-lane, so each quad
// of packed values is the register pair {V8, V9} and each B row j owns the
// accumulator pair {V(2j), V(2j+1)} — V0..V7 carry the full 4x4 tile.
// Per k step: one 32-byte pack load, then per B row a replicating load of
// bj[t] and one fused multiply-add (VFMLA, Vd += Vn·Vm with one rounding)
// per lane pair. Every lane is one fused step per t in ascending order —
// math.FMA in the scalar path — so results are bit-identical to naive dot
// products.
TEXT ·dotPack4x4(SB), NOSPLIT, $0-56
	MOVD pack+0(FP), R0
	MOVD b0+8(FP), R1
	MOVD b1+16(FP), R2
	MOVD b2+24(FP), R3
	MOVD b3+32(FP), R4
	MOVD k+40(FP), R5
	MOVD out+48(FP), R6
	VEOR V0.B16, V0.B16, V0.B16 // acc b0, lanes 0-1
	VEOR V1.B16, V1.B16, V1.B16 // acc b0, lanes 2-3
	VEOR V2.B16, V2.B16, V2.B16 // acc b1, lanes 0-1
	VEOR V3.B16, V3.B16, V3.B16 // acc b1, lanes 2-3
	VEOR V4.B16, V4.B16, V4.B16 // acc b2, lanes 0-1
	VEOR V5.B16, V5.B16, V5.B16 // acc b2, lanes 2-3
	VEOR V6.B16, V6.B16, V6.B16 // acc b3, lanes 0-1
	VEOR V7.B16, V7.B16, V7.B16 // acc b3, lanes 2-3
	CBZ  R5, done
loop:
	VLD1.P  32(R0), [V8.D2, V9.D2] // [A[i][t] A[i+1][t]], [A[i+2][t] A[i+3][t]]
	VLD1R.P 8(R1), [V10.D2]        // broadcast b0[t]
	VFMLA   V10.D2, V8.D2, V0.D2
	VFMLA   V10.D2, V9.D2, V1.D2
	VLD1R.P 8(R2), [V10.D2]        // broadcast b1[t]
	VFMLA   V10.D2, V8.D2, V2.D2
	VFMLA   V10.D2, V9.D2, V3.D2
	VLD1R.P 8(R3), [V10.D2]        // broadcast b2[t]
	VFMLA   V10.D2, V8.D2, V4.D2
	VFMLA   V10.D2, V9.D2, V5.D2
	VLD1R.P 8(R4), [V10.D2]        // broadcast b3[t]
	VFMLA   V10.D2, V8.D2, V6.D2
	VFMLA   V10.D2, V9.D2, V7.D2
	SUBS $1, R5, R5
	BNE  loop
done:
	VST1.P [V0.D2, V1.D2, V2.D2, V3.D2], 64(R6) // out[0..15]: j=0,1 tiles
	VST1   [V4.D2, V5.D2, V6.D2, V7.D2], (R6)   // out[16..31]: j=2,3 tiles
	RET
