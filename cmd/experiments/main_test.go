package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseExperiments(t *testing.T) {
	got, err := parseExperiments("table1, fig5,census")
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]bool{"table1": true, "fig5": true, "census": true}; !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	if got, err := parseExperiments("all"); err != nil || !got["all"] {
		t.Fatalf("all: %v, %v", got, err)
	}
	// A retired name, a typo and an empty entry are refused, and the
	// error lists what is known.
	for _, list := range []string{"ablation", "table1,fig9", "fig2,"} {
		_, err := parseExperiments(list)
		if err == nil {
			t.Fatalf("%q accepted", list)
		}
		if !strings.Contains(err.Error(), "boundary") {
			t.Fatalf("%q: error %q does not list the known names", list, err)
		}
	}
}

// goldenExperiments are the experiments the golden covers: every one whose
// output is a deterministic function of the seed (fig2 writes PNG heatmaps
// and remote reports wall-clock windows, so they stay out).
const goldenExperiments = "table1,fig3,fig4,fig5,fig6,fig7,census,boundary"

// TestSmallScaleMatchesGolden reruns the small-scale paper reproduction and
// compares every artifact byte for byte with testdata/golden (INDEX.md, which
// only lists the files, is not kept). A change that means to move these bits
// regenerates the golden from the repository root with
//
//	go run ./cmd/experiments -scale small -exp table1,fig3,fig4,fig5,fig6,fig7,census,boundary -out cmd/experiments/testdata/golden && rm cmd/experiments/testdata/golden/INDEX.md
//
// and says in CHANGES.md why the output moved.
func TestSmallScaleMatchesGolden(t *testing.T) {
	out := t.TempDir()
	if err := run([]string{"-scale", "small", "-exp", goldenExperiments, "-out", out}, io.Discard); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden")
	want, err := os.ReadDir(golden)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want)+1 { // +1: INDEX.md
		t.Errorf("run wrote %d files, golden has %d plus INDEX.md", len(got), len(want))
	}
	for _, e := range want {
		name := e.Name()
		w, err := os.ReadFile(filepath.Join(golden, name))
		if err != nil {
			t.Fatal(err)
		}
		g, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s differs from the golden:\n--- got\n%s\n--- want\n%s", name, g, w)
		}
	}
}
