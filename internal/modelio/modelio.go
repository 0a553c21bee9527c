// Package modelio dispatches saving and loading of the repository's model
// families by kind name. The CLI tools (plmtrain, plmserve, openapi) share
// it so every tool accepts the same -type values.
package modelio

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/lmt"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/openbox"
	"repro/internal/plm"
)

// Kind names accepted by Load.
const (
	KindPLNN   = "plnn"
	KindLMT    = "lmt"
	KindMaxout = "maxout"
)

// Kinds returns the supported kind names, sorted.
func Kinds() []string {
	out := []string{KindPLNN, KindLMT, KindMaxout}
	sort.Strings(out)
	return out
}

// Load reads a model of the given kind from path and returns it with
// white-box (RegionModel) access — every family in this repository can
// expose its ground truth.
func Load(path, kind string) (plm.RegionModel, error) {
	switch kind {
	case KindPLNN:
		net, err := nn.Load(path)
		if err != nil {
			return nil, err
		}
		return &openbox.PLNN{Net: net}, nil
	case KindLMT:
		return lmt.Load(path)
	case KindMaxout:
		net, err := nn.LoadMaxout(path)
		if err != nil {
			return nil, err
		}
		return &openbox.Maxout{Net: net}, nil
	}
	return nil, fmt.Errorf("modelio: unknown model kind %q (want one of %v)", kind, Kinds())
}

// LoadInstance reads a feature vector stored as a JSON number array — the
// instance format the openapi CLI consumes.
func LoadInstance(path string) (mat.Vec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("modelio: read %s: %w", path, err)
	}
	var x []float64
	if err := json.Unmarshal(data, &x); err != nil {
		return nil, fmt.Errorf("modelio: parse %s: %w", path, err)
	}
	if len(x) == 0 {
		return nil, fmt.Errorf("modelio: %s holds an empty instance", path)
	}
	return x, nil
}
