package openbox

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// Extraction benchmarks for the PR-3 trajectory: a clustered workload (many
// instances, few regions) through the uncached chain, the region cache, and
// the batched ExtractAll. The paper-adjacent 64-dimensional net keeps one
// composition around a millisecond so CI's one-iteration smoke stays fast.

func benchNetXs(b *testing.B) (*PLNN, []mat.Vec) {
	b.Helper()
	n := randNet(51, 64, 96, 64, 10)
	rng := rand.New(rand.NewSource(52))
	xs := clusteredInstances(rng, 64, 8, 8, 0) // 64 instances, 8 regions
	return &PLNN{Net: n}, xs
}

func BenchmarkExtract_NoCache(b *testing.B) {
	p, xs := benchNetXs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range xs {
			if _, err := Extract(p.Net, x); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkExtract_RegionCache(b *testing.B) {
	p, xs := benchNetXs(b)
	rc := NewRegionCacheOpts(p.Net, StoreOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range xs {
			if _, err := rc.LocalAt(x); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkExtractAll_Clustered(b *testing.B) {
	p, xs := benchNetXs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExtractAll(p.Net, xs); err != nil {
			b.Fatal(err)
		}
	}
}
