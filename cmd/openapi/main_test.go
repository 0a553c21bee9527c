package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/api"
	"repro/internal/nn"
	"repro/internal/openbox"
)

// writeInstance stores x as the JSON number array -instance reads.
func writeInstance(t *testing.T, x []float64) string {
	t.Helper()
	data, err := json.Marshal(x)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "x.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFailingAPIPrintsNoInterpretation: against a server whose /meta
// answers and whose every POST fails with 500, openapi returns an error,
// prints nothing and writes no PNG, instead of reporting an interpretation
// built from uniform fallback answers.
func TestFailingAPIPrintsNoInterpretation(t *testing.T) {
	var posts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Path == "/meta" {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"name":"down","dim":4,"classes":3,"codecs":["json","binary"],"api_version":1}`))
			return
		}
		posts.Add(1)
		http.Error(w, "backend down", http.StatusInternalServerError)
	}))
	defer ts.Close()

	png := filepath.Join(t.TempDir(), "out.png")
	var stdout bytes.Buffer
	err := run([]string{"-url", ts.URL, "-instance", writeInstance(t, []float64{0.1, 0.2, 0.3, 0.4}), "-png", png, "-width", "2"}, &stdout)
	if err == nil || !strings.Contains(err.Error(), "500") {
		t.Fatalf("err = %v, want the server's 500", err)
	}
	if posts.Load() == 0 {
		t.Fatal("no prediction reached the server")
	}
	if stdout.Len() != 0 {
		t.Fatalf("printed a report from a failing API:\n%s", stdout.String())
	}
	if _, err := os.Stat(png); !os.IsNotExist(err) {
		t.Fatalf("wrote %s (stat err %v)", png, err)
	}
}

// TestServedModelIsInterpreted: against a working server the same command
// prints the prediction, the convergence line and the top features.
func TestServedModelIsInterpreted(t *testing.T) {
	model := &openbox.PLNN{Net: nn.New(rand.New(rand.NewSource(1)), 4, 6, 3)}
	ts := httptest.NewServer(api.NewServer(model, "plnn"))
	defer ts.Close()

	var stdout bytes.Buffer
	if err := run([]string{"-url", ts.URL, "-instance", writeInstance(t, []float64{0.1, 0.2, 0.3, 0.4}), "-top", "2"}, &stdout); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{"model: 4 features, 3 classes", "converged in", "top 2 decision features"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report lacks %q:\n%s", want, out)
		}
	}
}
