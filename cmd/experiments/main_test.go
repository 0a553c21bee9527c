package main

import (
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
