// Fixtures for the detfloat analyzer, type-checked by the harness under
// the bit-identity package path "repro/internal/mat".
package a

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

type sink struct{ vals []float64 }

func (s *sink) insert(key string, v float64) { s.vals = append(s.vals, v) }

// How a product meets its add is roundedproduct's rule: detfloat passes
// both the fused step and the bare shape.
func fma(a, b, c float64) float64 {
	return math.FMA(a, b, c)
}

func mulAdd(a, b, c float64) float64 {
	return a*b + c
}

func clock() int64 {
	return time.Now().UnixNano() // want "time.Now reads the wall clock"
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want "time.Since reads the wall clock"
}

func globalRand() float64 {
	return rand.Float64() // want "rand.Float64 draws from the process-global source"
}

func seededRand() float64 {
	rng := rand.New(rand.NewSource(42)) // constructors are the sanctioned idiom
	return rng.Float64()                // method on an injected generator: fine
}

func mapAccumulate(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want "floating-point accumulation in map iteration order"
	}
	return sum
}

// A fused step into an outer float is an accumulation too.
func mapFusedAccumulate(m map[string]float64, w float64) float64 {
	var sum float64
	for _, v := range m {
		sum = math.FMA(v, w, sum) // want "floating-point accumulation in map iteration order"
	}
	return sum
}

func mapAppend(m map[string]float64) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "appending to an outer slice in map iteration order"
	}
	return keys
}

func mapSideEffect(m map[string]float64, s *sink) {
	for k, v := range m {
		s.insert(k, v) // want "side-effecting call on map-ranged values"
	}
}

func sortedKeys(m map[string]float64) []float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k) //plmvet:allow(detfloat) keys are sorted below before any ordered use
	}
	sort.Strings(keys)
	out := make([]float64, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k]) // slice range: deterministic
	}
	return out
}

// The sanctioned dedup shape: range the input slice, use the map only for
// membership.
func dedup(xs []string) []string {
	seen := make(map[string]bool, len(xs))
	var out []string
	for _, x := range xs {
		if seen[x] {
			continue
		}
		seen[x] = true
		out = append(out, x)
	}
	return out
}

// Order-independent writes keyed by the map key are fine.
func invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// A call ignoring the loop variables is loop-invariant with respect to
// ordering.
func invariantCall(m map[string]float64, s *sink) {
	for range m {
		s.insert("fixed", 0)
	}
}
