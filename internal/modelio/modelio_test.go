package modelio

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lmt"
	"repro/internal/mat"
	"repro/internal/nn"
)

func TestLoadAllKindsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))

	// PLNN.
	plnn := nn.New(rng, 3, 5, 2)
	plnnPath := filepath.Join(dir, "plnn.json")
	if err := plnn.Save(plnnPath); err != nil {
		t.Fatal(err)
	}
	// LMT.
	xs := []mat.Vec{}
	ys := []int{}
	for i := 0; i < 60; i++ {
		x := mat.Vec{rng.NormFloat64() + 3, rng.NormFloat64()}
		label := 0
		if i%2 == 1 {
			x[0] -= 6
			label = 1
		}
		xs = append(xs, x)
		ys = append(ys, label)
	}
	tree, err := lmt.Train(rng, xs, ys, 2, lmt.Config{MinLeaf: 20, LogReg: lmt.LogRegConfig{Epochs: 20}})
	if err != nil {
		t.Fatal(err)
	}
	lmtPath := filepath.Join(dir, "lmt.json")
	if err := tree.Save(lmtPath); err != nil {
		t.Fatal(err)
	}
	// MaxOut.
	mo := nn.NewMaxout(rng, 2, 3, 4, 2)
	moPath := filepath.Join(dir, "maxout.json")
	if err := mo.Save(moPath); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		path, kind string
		dim        int
	}{
		{plnnPath, KindPLNN, 3},
		{lmtPath, KindLMT, 2},
		{moPath, KindMaxout, 3},
	}
	for _, c := range cases {
		m, err := Load(c.path, c.kind)
		if err != nil {
			t.Fatalf("%s: %v", c.kind, err)
		}
		if m.Dim() != c.dim || m.Classes() != 2 {
			t.Fatalf("%s: shape %d/%d", c.kind, m.Dim(), m.Classes())
		}
		// Every kind exposes white-box access.
		x := make(mat.Vec, c.dim)
		if _, err := m.LocalAt(x); err != nil {
			t.Fatalf("%s: LocalAt: %v", c.kind, err)
		}
		if m.RegionKey(x) == "" {
			t.Fatalf("%s: empty region key", c.kind)
		}
	}
}

func TestLoadUnknownKind(t *testing.T) {
	if _, err := Load("whatever.json", "resnet"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestLoadMissingFile(t *testing.T) {
	for _, kind := range Kinds() {
		if _, err := Load(filepath.Join(t.TempDir(), "missing.json"), kind); err == nil {
			t.Fatalf("%s: missing file accepted", kind)
		}
	}
}

func TestInstanceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.json")
	want := mat.Vec{0.1, -2, 3.5}
	if err := writeFile(path, "[0.1,-2,3.5]"); err != nil {
		t.Fatal(err)
	}
	got, err := LoadInstance(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualApprox(want, 0) {
		t.Fatalf("round trip: %v != %v", got, want)
	}
}

func TestLoadInstanceErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadInstance(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	for i, content := range []string{"not json", "[]", `{"a":1}`} {
		if err := writeFile(bad, content); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadInstance(bad); err == nil {
			t.Fatalf("case %d: bad content accepted", i)
		}
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestKindsSorted(t *testing.T) {
	ks := Kinds()
	if len(ks) != 3 {
		t.Fatalf("Kinds = %v", ks)
	}
	for i := 1; i < len(ks); i++ {
		if ks[i] < ks[i-1] {
			t.Fatalf("Kinds not sorted: %v", ks)
		}
	}
}
