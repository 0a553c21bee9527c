package mat

import (
	"math"
	"testing"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 || s.Sum != 10 {
		t.Fatalf("Summary = %+v", s)
	}
	if !almostEqual(s.Median, 2.5, 1e-12) {
		t.Fatalf("Median = %v", s.Median)
	}
	if !almostEqual(s.StdDev, math.Sqrt(5.0/3.0), 1e-12) {
		t.Fatalf("StdDev = %v", s.StdDev)
	}
	if s.AbsMaxElem != 4 {
		t.Fatalf("AbsMaxElem = %v", s.AbsMaxElem)
	}
}

func TestSummarizeDropsNaN(t *testing.T) {
	s := Summarize([]float64{1, math.NaN(), 3})
	if s.N != 2 || s.Mean != 2 {
		t.Fatalf("Summary = %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("Summary of empty = %+v", s)
	}
	allNaN := Summarize([]float64{math.NaN()})
	if allNaN.N != 0 {
		t.Fatalf("Summary of all-NaN = %+v", allNaN)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{0, 10, 20, 30}
	cases := []struct{ q, want float64 }{
		{0, 0}, {1, 30}, {0.5, 15}, {0.25, 7.5}, {-1, 0}, {2, 30},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	single := []float64{7}
	if Quantile(single, 0.3) != 7 {
		t.Fatal("single-element quantile")
	}
}

func TestQuantilePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Quantile(nil, 0.5)
}
