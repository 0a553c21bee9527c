package mat

import (
	"fmt"
	"os"
	"strings"
	"sync/atomic"
)

// KernelTier names one rung of the GEMM microkernel ladder. Every tier
// computes bit-identical results — each output element is one ascending-k
// chain of fused multiply-adds on all of them, and a fused step is one
// correctly rounded IEEE operation whichever unit executes it — so the
// tier only decides how many independent chains advance per instruction,
// never what the bits are.
// Higher tiers subsume lower ones: dispatch at tier T may use any
// microkernel of tier <= T that the platform implements.
type KernelTier uint8

const (
	// TierScalar is the pure-Go register-tiled path, available everywhere.
	TierScalar KernelTier = iota
	// TierNEON is the arm64 2-lane packed microkernel (gemm_arm64.s).
	TierNEON
	// TierAVX2 is the amd64 4-lane packed microkernel (gemm_amd64.s),
	// gated on AVX2 and FMA.
	TierAVX2
	// TierAVX512 is the amd64 8-lane packed microkernels, 16- and 8-row
	// tiles (gemm_amd64.s), gated on AVX512F and on the AVX2 tier's
	// features, whose kernels take its remainders.
	TierAVX512
)

func (t KernelTier) String() string {
	switch t {
	case TierScalar:
		return "scalar"
	case TierNEON:
		return "neon"
	case TierAVX2:
		return "avx2"
	case TierAVX512:
		return "avx512"
	}
	return fmt.Sprintf("KernelTier(%d)", uint8(t))
}

// ParseKernelTier parses a tier name as accepted by the PLM_KERNEL_TIER
// environment variable: "scalar", "neon", "avx2" or "avx512" (case
// insensitive).
func ParseKernelTier(s string) (KernelTier, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "scalar":
		return TierScalar, nil
	case "neon":
		return TierNEON, nil
	case "avx2":
		return TierAVX2, nil
	case "avx512":
		return TierAVX512, nil
	}
	return TierScalar, fmt.Errorf("mat: unknown kernel tier %q", s)
}

// tierAvailable reports whether the running CPU can execute tier t.
func tierAvailable(t KernelTier) bool {
	switch t {
	case TierScalar:
		return true
	case TierNEON:
		return haveNEON
	case TierAVX2:
		return haveAVX2
	case TierAVX512:
		return haveAVX512
	}
	return false
}

// AvailableTiers returns every tier the running CPU can execute, ascending
// (TierScalar first). Parity tests sweep this list so one machine exercises
// every kernel it can run.
func AvailableTiers() []KernelTier {
	out := []KernelTier{TierScalar}
	for _, t := range []KernelTier{TierNEON, TierAVX2, TierAVX512} {
		if tierAvailable(t) {
			out = append(out, t)
		}
	}
	return out
}

// bestKernelTier is the highest tier the CPU supports — the startup default.
func bestKernelTier() KernelTier {
	switch {
	case haveAVX512:
		return TierAVX512
	case haveAVX2:
		return TierAVX2
	case haveNEON:
		return TierNEON
	}
	return TierScalar
}

// activeKernelTier holds the tier the dispatch currently uses. An atomic so
// the hot path reads it without a lock; SetKernelTier is test/debug surface.
var activeKernelTier atomic.Int32

func init() {
	t := bestKernelTier()
	// PLM_KERNEL_TIER pins the dispatch for A/B runs and CI tier sweeps.
	// An unknown or unsupported request keeps the detected default: a test
	// matrix exporting PLM_KERNEL_TIER=avx512 must not break machines
	// without it.
	if s := os.Getenv("PLM_KERNEL_TIER"); s != "" {
		if req, err := ParseKernelTier(s); err == nil && tierAvailable(req) {
			t = req
		}
	}
	activeKernelTier.Store(int32(t))
}

// ActiveKernelTier returns the tier the GEMM dispatch currently uses.
func ActiveKernelTier() KernelTier {
	return KernelTier(activeKernelTier.Load())
}

// SetKernelTier pins the GEMM dispatch to tier t and returns the previous
// tier. It fails if the running CPU cannot execute t. Results are
// bit-identical across tiers; this exists so parity tests and benchmarks can
// exercise every kernel on one machine (TierScalar is the reference).
func SetKernelTier(t KernelTier) (KernelTier, error) {
	if !tierAvailable(t) {
		return ActiveKernelTier(), fmt.Errorf("mat: kernel tier %s unavailable on this CPU", t)
	}
	return KernelTier(activeKernelTier.Swap(int32(t))), nil
}
