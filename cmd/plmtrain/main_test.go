package main

import (
	"math"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		model    string
		pieces   int
		testFrac float64
		ok       bool
	}{
		{"plnn", 3, 0.2, true},
		{"plnn", 3, 0, true},
		{"plnn", 0, 0.2, true}, // -pieces only matters for maxout
		{"maxout", 2, 0.2, true},
		{"MaxOut", 3, 0.5, true},
		{"plnn", 3, 1, false},
		{"plnn", 3, 1.5, false},
		{"lmt", 3, -0.1, false},
		{"plnn", 3, math.NaN(), false},
		{"maxout", 1, 0.2, false},
		{"maxout", 0, 0.2, false},
		{"Maxout", -1, 0.2, false},
	} {
		err := checkFlags(tc.model, tc.pieces, tc.testFrac)
		if (err == nil) != tc.ok {
			t.Errorf("checkFlags(%q, %d, %v) = %v, want ok=%v", tc.model, tc.pieces, tc.testFrac, err, tc.ok)
		}
	}
}
