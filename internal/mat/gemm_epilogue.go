package mat

import (
	"fmt"
	"math"
)

// This file holds the fused GEMM epilogue: the per-element bias-add,
// activation and activity-mask capture that batched layer forwards used to
// run as separate whole-matrix passes after the GEMM. Fusing applies them
// block-by-block inside gemmBT, while the freshly written output rows are
// still hot in cache, so each layer saves one full read+write sweep of its
// output matrix per dropped pass.
//
// The bit-identity argument is one sentence: every epilogue operation is
// per-element and runs strictly after that element's ascending-k accumulator
// chain has committed, in exactly the order the unfused passes used — bias
// add first (the same `row[j] += bias[j]` AddInPlace performs), then the
// activity-mask read (`v > 0` on the biased pre-activation), then the
// activation rewrite (`if v <= 0 { v = leak*v }`, the literal nn formula,
// including its leak*v = -0.0 behaviour for plain ReLU) — so fused and
// unfused results match bit for bit, element by element. Nothing in the
// epilogue ever combines two accumulator chains or re-enters the reduction.

// ActKind selects the fused activation applied after the bias add.
type ActKind uint8

const (
	// ActIdentity applies no activation — bias-only epilogues (read-out
	// layers, MaxOut affine pieces).
	ActIdentity ActKind = iota
	// ActReLU is plain ReLU evaluated exactly as the nn package does:
	// v <= 0 rewrites to 0*v (note: -0.0 for negative v), identical bits to
	// ActLeakyReLU with Leak 0.
	ActReLU
	// ActLeakyReLU rewrites v <= 0 to Leak*v — Leaky/Parametric ReLU, the
	// nn hidden-layer activation (Leak 0 degenerates to plain ReLU).
	ActLeakyReLU
)

func (a ActKind) String() string {
	switch a {
	case ActIdentity:
		return "identity"
	case ActReLU:
		return "relu"
	case ActLeakyReLU:
		return "leaky"
	}
	return fmt.Sprintf("ActKind(%d)", uint8(a))
}

// Epilogue describes the per-element post-GEMM work fused into
// MulBTIntoEpilogue. The zero value is a no-op. Fields are read-only during
// the multiply except Mask, which is written; none may alias dst's storage.
type Epilogue struct {
	// Bias, when non-nil, is added to every output row element-wise; its
	// length must equal dst.Cols().
	Bias Vec
	// Act is the activation applied after the bias add.
	Act ActKind
	// Leak is the negative-side slope for ActLeakyReLU (ignored otherwise).
	Leak float64
	// Mask, when non-nil, captures the activity pattern: Mask[i*cols+j]
	// records whether row i's element j was > 0 after the bias add and
	// before the activation — the pattern bit openbox keys regions on. Its
	// length must equal dst.Rows()*dst.Cols().
	Mask []bool
}

// check validates the epilogue against the destination shape.
func (e *Epilogue) check(dst *Dense) {
	if e == nil {
		return
	}
	if e.Bias != nil && len(e.Bias) != dst.cols {
		panic(fmt.Sprintf("mat: epilogue bias length %d != cols %d", len(e.Bias), dst.cols))
	}
	if e.Mask != nil && len(e.Mask) != dst.rows*dst.cols {
		panic(fmt.Sprintf("mat: epilogue mask length %d != %dx%d", len(e.Mask), dst.rows, dst.cols))
	}
	if e.Act > ActLeakyReLU {
		panic(fmt.Sprintf("mat: unknown epilogue activation %d", e.Act))
	}
}

// applyEpilogueRows runs the epilogue over dst rows [i0, i1), called by
// gemmBT as soon as a row block's accumulator chains have all committed.
// Every operation is per-element post-accumulation: bias add, mask capture,
// then activation, in the exact order (and with the exact expressions) a
// separate bias-add pass and nn's scalar activate use.
func applyEpilogueRows(dst *Dense, epi *Epilogue, i0, i1 int) {
	if epi == nil {
		return
	}
	cols := dst.cols
	leak := epi.Leak
	if epi.Act == ActReLU {
		leak = 0
	}
	for i := i0; i < i1; i++ {
		row := dst.data[i*cols : i*cols+cols]
		if epi.Bias != nil {
			bias := epi.Bias[:len(row)]
			for j, bv := range bias {
				row[j] += bv
			}
		}
		if epi.Mask != nil {
			m := epi.Mask[i*cols : i*cols+cols]
			for j, v := range row {
				m[j] = v > 0
			}
		}
		if epi.Act != ActIdentity {
			// The activation selects bits rather than branching: a batch's
			// unrelated rows make v's sign unpredictable, and the compiler
			// turns this select into a conditional move. It stores exactly
			// what `if v <= 0 { row[j] = leak * v }` stores.
			for j, v := range row {
				b := math.Float64bits(v)
				if w := math.Float64bits(leak * v); v <= 0 {
					b = w
				}
				row[j] = math.Float64frombits(b)
			}
		}
	}
}

// MulBTIntoEpilogue computes dst = m * bᵀ like MulBTInto, then applies epi
// (bias add, activation, activity-mask capture) block-by-block while each
// output block is still cache-hot — one fused pass instead of GEMM plus one
// to two whole-matrix sweeps. A nil epi is exactly MulBTInto. Results are
// bit-identical to the unfused sequence (see the file comment); dst must be
// m.Rows() by b.Rows() and must not alias m, b, epi.Bias or epi.Mask. It
// returns dst.
func (m *Dense) MulBTIntoEpilogue(b, dst *Dense, epi *Epilogue) *Dense {
	if m.cols != b.cols {
		panic(fmt.Sprintf("mat: MulBT %dx%d by (%dx%d)ᵀ", m.rows, m.cols, b.rows, b.cols))
	}
	checkNoAlias("MulBTIntoEpilogue", dst, m, b)
	return mulBTIntoEpilogue(m.lhs(), m.rows, b, dst, epi)
}

// MulRowsBTIntoEpilogue is MulBTIntoEpilogue for a left operand given as
// its rows: dst = X * bᵀ with row i of X being xs[i]. It reads the rows
// where they are, packing its tiles straight from them, so a batch of
// separate vectors needs no stacked copy; the bits are those of
// MulBTIntoEpilogue on the stacked matrix. Every xs[i] must have length
// b.Cols(), and none may alias dst, epi.Bias or epi.Mask. It returns dst.
func MulRowsBTIntoEpilogue(xs []Vec, b, dst *Dense, epi *Epilogue) *Dense {
	for i, x := range xs {
		if len(x) != b.cols {
			panic(fmt.Sprintf("mat: MulRowsBT row %d length %d by (%dx%d)ᵀ", i, len(x), b.rows, b.cols))
		}
	}
	checkNoAlias("MulRowsBTIntoEpilogue", dst, b)
	return mulBTIntoEpilogue(lhs{rows: xs, k: b.cols}, len(xs), b, dst, epi)
}

// mulBTIntoEpilogue is the shared body of MulBTIntoEpilogue and
// MulRowsBTIntoEpilogue for a left operand of rows rows.
func mulBTIntoEpilogue(a lhs, rows int, b, dst *Dense, epi *Epilogue) *Dense {
	if dst.rows != rows || dst.cols != b.rows {
		panic(fmt.Sprintf("mat: MulBTIntoEpilogue dst %dx%d, want %dx%d", dst.rows, dst.cols, rows, b.rows))
	}
	epi.check(dst)
	if w := fanOut(rows, rows*a.k*b.rows); w > 1 {
		parallelRows(rows, w, func(lo, hi int) { gemmBT(dst, a, b, lo, hi, epi, false) })
	} else {
		gemmBT(dst, a, b, 0, rows, epi, false)
	}
	return dst
}
