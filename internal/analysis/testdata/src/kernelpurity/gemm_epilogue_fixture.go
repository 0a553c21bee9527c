// Fixtures for the epilogue-hook rule: fused epilogues are per-element
// post-accumulation work (bias add, mask capture, activation) and must
// never run a float reduction of their own. Type-checked under
// "repro/internal/mat"; the file name starts with "gemm" so the analyzer
// scopes it as kernel code.
package a

import "math"

// Epilogue mirrors the mat.Epilogue hook the analyzer keys on.
type Epilogue struct {
	Bias []float64
	Leak float64
	Mask []bool
}

// Per-element rewrites — indexed writes, one add per element — are the
// contract and stay clean.
func applyEpilogueRowsClean(rows [][]float64, epi *Epilogue) {
	for i, row := range rows {
		if epi.Bias != nil {
			for j, bv := range epi.Bias {
				row[j] += bv
			}
		}
		if epi.Mask != nil {
			for j, v := range row {
				epi.Mask[i*len(row)+j] = v > 0
			}
		}
		for j, v := range row {
			if v <= 0 {
				row[j] = epi.Leak * v
			}
		}
	}
}

// A running scalar sum inside an epilogue re-enters the reduction the GEMM
// already committed.
func applyEpilogueRowsReduce(rows [][]float64, epi *Epilogue) float64 {
	var total float64
	for _, row := range rows {
		for _, v := range row {
			total += v // want "per-element post-accumulation only"
		}
	}
	return total
}

// A fused running sum is a reduction all the same.
func applyEpilogueRowsFusedReduce(rows [][]float64, epi *Epilogue) float64 {
	var total float64
	for _, row := range rows {
		for j, v := range row {
			total = math.FMA(v, epi.Bias[j], total) // want "per-element post-accumulation only"
		}
	}
	return total
}

// Methods on the Epilogue type are hooks regardless of name.
func (e *Epilogue) biasNorm() float64 {
	var s float64
	for _, v := range e.Bias {
		s += v * v // want "per-element post-accumulation only"
	}
	return s
}
