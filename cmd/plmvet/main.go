// Command plmvet is the repository's static-analysis gate: it runs the
// internal/analysis suite (detfloat, atomicfield, lockheld, kernelpurity,
// roundedproduct) over Go packages and fails when any invariant is
// violated.
//
// Two modes share the analyzers and the allow-annotation filter:
//
//	plmvet ./...                     # standalone, resolves patterns itself
//	go vet -vettool=$(which plmvet) ./...   # unit-checker under cmd/go
//
// The second form is what CI runs: cmd/go hands the tool one pre-planned
// package at a time via a vet.cfg file, with every dependency's export data
// already compiled into the build cache, and caches clean results per
// package. The protocol (the -V=full tool-ID handshake, the -flags JSON
// handshake, and the vet.cfg/vetx exchange) is implemented here directly so
// the repository needs no dependency on golang.org/x/tools.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// Handshakes come before normal flag parsing: cmd/go probes the tool
	// with `-V=full` (a content-addressed tool ID for its action cache)
	// and `-flags` (the JSON flag inventory) before ever passing a
	// vet.cfg.
	for _, a := range args {
		switch a {
		case "-V=full", "--V=full":
			printToolID()
			return 0
		case "-flags", "--flags":
			printFlagDefs()
			return 0
		}
	}

	fs := flag.NewFlagSet("plmvet", flag.ContinueOnError)
	selection := fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers, err := analysis.ByName(*selection)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return runVetTool(analyzers, rest[0])
	}
	if len(rest) == 0 {
		rest = []string{"./..."}
	}
	return runStandalone(analyzers, rest)
}

// printToolID emits the -V=full line cmd/go hashes into its action cache
// key. The "devel" form requires the last field to be buildID=<id>; using a
// digest of the executable means a rebuilt plmvet invalidates cached vet
// results, exactly like a recompiled vet tool should.
func printToolID() {
	name := filepath.Base(os.Args[0])
	name = strings.TrimSuffix(name, ".exe")
	fmt.Printf("%s version devel buildID=%s\n", name, executableDigest())
}

func executableDigest() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// printFlagDefs emits the JSON flag inventory cmd/go uses to validate
// pass-through vet flags.
func printFlagDefs() {
	type flagDef struct {
		Name  string `json:"Name"`
		Bool  bool   `json:"Bool"`
		Usage string `json:"Usage"`
	}
	defs := []flagDef{
		{Name: "analyzers", Bool: false, Usage: "comma-separated analyzer subset (default: all)"},
	}
	json.NewEncoder(os.Stdout).Encode(defs)
}

// vetConfig mirrors the JSON cmd/go writes for each vet action.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	VetxOnly                  bool
	VetxOutput                string
	GoVersion                 string
	SucceedOnTypecheckFailure bool
}

// runVetTool analyzes the single package described by a vet.cfg.
func runVetTool(analyzers []*analysis.Analyzer, cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "plmvet: parsing %s: %v\n", cfgPath, err)
		return 2
	}
	// The vetx file carries cross-package facts; this suite has none, but
	// cmd/go requires the output to exist to cache the result.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	files := make([]string, len(cfg.GoFiles))
	for i, f := range cfg.GoFiles {
		if !filepath.IsAbs(f) {
			f = filepath.Join(cfg.Dir, f)
		}
		files[i] = f
	}
	pkg, err := analysis.CheckFiles(fset, cfgImporter(fset, &cfg), cfg.ImportPath, files, cfg.GoVersion)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	diags, err := analysis.RunAnalyzers(analyzers, fset, pkg.Files, pkg.Types, pkg.Info)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	return report(fset, diags)
}

// cfgImporter resolves imports through the vet.cfg's ImportMap (source path
// → canonical path) and PackageFile (canonical path → export data) tables.
func cfgImporter(fset *token.FileSet, cfg *vetConfig) types.Importer {
	return analysis.LookupImporter(fset, func(path string) (io.ReadCloser, error) {
		canonical := path
		if mapped, ok := cfg.ImportMap[path]; ok {
			canonical = mapped
		}
		file, ok := cfg.PackageFile[canonical]
		if !ok {
			return nil, fmt.Errorf("plmvet: no export data for %q (canonical %q)", path, canonical)
		}
		return os.Open(file)
	})
}

// runStandalone resolves the patterns itself and analyzes every matched
// module package.
func runStandalone(analyzers []*analysis.Analyzer, patterns []string) int {
	pkgs, err := analysis.Load(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	exit := 0
	for _, pkg := range pkgs {
		diags, err := analysis.RunAnalyzers(analyzers, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if report(pkg.Fset, diags) != 0 {
			exit = 1
		}
	}
	return exit
}

// report prints diagnostics in the standard file:line:col format and
// returns 1 if there were any.
func report(fset *token.FileSet, diags []analysis.Diagnostic) int {
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", pos, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
