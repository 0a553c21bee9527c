package api

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/openbox"
)

func testModel(seed int64) *openbox.PLNN {
	return &openbox.PLNN{Net: nn.New(rand.New(rand.NewSource(seed)), 4, 6, 3)}
}

func TestCounterCounts(t *testing.T) {
	m := testModel(1)
	c := NewCounter(m)
	x := mat.Vec{0.1, 0.2, 0.3, 0.4}
	if got := c.Predict(x); !got.EqualApprox(m.Predict(x), 0) {
		t.Fatal("counter changed predictions")
	}
	c.Predict(x)
	c.Predict(x)
	if c.Count() != 3 {
		t.Fatalf("Count = %d", c.Count())
	}
	c.Reset()
	if c.Count() != 0 {
		t.Fatal("Reset failed")
	}
	if c.Dim() != 4 || c.Classes() != 3 {
		t.Fatal("metadata not forwarded")
	}
}

func TestCounterConcurrent(t *testing.T) {
	c := NewCounter(testModel(2))
	x := mat.Vec{0, 0, 0, 0}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Predict(x)
			}
		}()
	}
	wg.Wait()
	if c.Count() != 800 {
		t.Fatalf("Count = %d, want 800", c.Count())
	}
}

func TestFlakyInjectsFailures(t *testing.T) {
	m := testModel(6)
	f := NewFlaky(m, 1.0, rand.New(rand.NewSource(7)))
	p := f.Predict(mat.Vec{0, 0, 0, 0})
	want := 1.0 / 3
	for _, v := range p {
		if math.Abs(v-want) > 1e-12 {
			t.Fatalf("always-flaky response = %v", p)
		}
	}
	if f.Failures() != 1 {
		t.Fatalf("Failures = %d", f.Failures())
	}
	healthy := NewFlaky(m, 0, rand.New(rand.NewSource(8)))
	if !healthy.Predict(mat.Vec{0, 0, 0, 0}).EqualApprox(m.Predict(mat.Vec{0, 0, 0, 0}), 0) {
		t.Fatal("rate 0 should never fail")
	}
	clamped := NewFlaky(m, 7, rand.New(rand.NewSource(9)))
	if clamped.rate != 1 {
		t.Fatalf("rate not clamped: %v", clamped.rate)
	}
}

func TestFlakyNilRNGDefaults(t *testing.T) {
	// A nil RNG must not panic: it defaults to a seeded source, like
	// core.Config.setDefaults does.
	m := testModel(6)
	f := NewFlaky(m, 0.5, nil)
	for i := 0; i < 10; i++ {
		if got := f.Predict(mat.Vec{0, 0, 0, 0}); len(got) != 3 {
			t.Fatalf("prediction has %d entries", len(got))
		}
	}
	// Seeded default means two nil-RNG wrappers fail identically.
	f1, g1 := NewFlaky(m, 0.5, nil), NewFlaky(m, 0.5, nil)
	for i := 0; i < 50; i++ {
		f1.Predict(mat.Vec{0, 0, 0, 0})
		g1.Predict(mat.Vec{0, 0, 0, 0})
	}
	if f1.Failures() != g1.Failures() {
		t.Fatalf("nil-RNG default not deterministic: %d vs %d failures", f1.Failures(), g1.Failures())
	}
}

func TestValidate(t *testing.T) {
	m := testModel(10)
	if err := Validate(m, mat.Vec{0.1, 0.2, 0.3, 0.4}); err != nil {
		t.Fatal(err)
	}
	if err := Validate(m, mat.Vec{0.1}); err == nil {
		t.Fatal("wrong probe length accepted")
	}
	if err := Validate(badModel{}, mat.Vec{0}); err == nil {
		t.Fatal("non-probability model accepted")
	}
}

type badModel struct{}

func (badModel) Predict(mat.Vec) mat.Vec { return mat.Vec{0.9, 0.9} }
func (badModel) Dim() int                { return 1 }
func (badModel) Classes() int            { return 2 }
