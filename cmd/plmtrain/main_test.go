package main

import (
	"math"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		model          string
		pieces         int
		testFrac       float64
		size, perClass int
		ok             bool
	}{
		{"plnn", 3, 0.2, 16, 120, true},
		{"plnn", 3, 0, 16, 120, true},
		{"plnn", 0, 0.2, 16, 120, true}, // -pieces only matters for maxout
		{"maxout", 2, 0.2, 16, 120, true},
		{"MaxOut", 3, 0.5, 16, 120, true},
		{"plnn", 3, 0.2, 1, 1, true},
		{"plnn", 3, 1, 16, 120, false},
		{"plnn", 3, 1.5, 16, 120, false},
		{"lmt", 3, -0.1, 16, 120, false},
		{"plnn", 3, math.NaN(), 16, 120, false},
		{"maxout", 1, 0.2, 16, 120, false},
		{"maxout", 0, 0.2, 16, 120, false},
		{"Maxout", -1, 0.2, 16, 120, false},
		{"plnn", 3, 0.2, 0, 120, false},
		{"plnn", 3, 0.2, -8, 120, false},
		{"plnn", 3, 0.2, 16, 0, false},
		{"lmt", 3, 0.2, 16, -1, false},
	} {
		err := checkFlags(tc.model, tc.pieces, tc.testFrac, tc.size, tc.perClass)
		if (err == nil) != tc.ok {
			t.Errorf("checkFlags(%q, %d, %v, %d, %d) = %v, want ok=%v",
				tc.model, tc.pieces, tc.testFrac, tc.size, tc.perClass, err, tc.ok)
		}
	}
}
