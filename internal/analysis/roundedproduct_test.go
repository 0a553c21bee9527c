package analysis

import "testing"

func TestRoundedproductFixtures(t *testing.T) {
	runFixtures(t, []*Analyzer{Roundedproduct}, "repro/internal/mat", "roundedproduct")
}

// Outside mat, nn and plm the same shapes are unconstrained.
func TestRoundedproductScope(t *testing.T) {
	runExpectClean(t, []*Analyzer{Roundedproduct}, "repro/internal/api", "roundedproduct")
}
