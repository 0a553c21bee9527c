// Command experiments regenerates every table and figure of the paper's
// evaluation (§V) on the synthetic dataset stand-ins: Table I and Figures
// 2 through 7, for both datasets and both target models. Results are written
// as markdown, CSV and PNG files under -out.
//
// Usage:
//
//	experiments -exp all -scale small -out results
//	experiments -exp table1,fig5 -scale medium -out results -seed 7
//	experiments -scale paper -out results     # the full-size run (slow)
package main

import (
	"errors"
	"flag"
	"fmt"
	"image"
	"io"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/heatmap"
	"repro/internal/interpret/gradient"
	"repro/internal/interpret/lime"
	"repro/internal/lmt"
	"repro/internal/mat"
	"repro/internal/openbox"
	"repro/internal/plm"
)

type scaleSpec struct {
	size, perClass int
	hidden         []int
	nnEpochs       int
	instances      int // interpreted instances per (dataset, model)
	maxFlips       int
	fig2PerClass   int
	remoteReps     int // remote-quality repetitions over one persistent server
}

var scales = map[string]scaleSpec{
	"small":  {size: 10, perClass: 60, hidden: []int{32, 16}, nnEpochs: 20, instances: 15, maxFlips: 20, fig2PerClass: 5, remoteReps: 2},
	"medium": {size: 16, perClass: 200, hidden: []int{64, 32}, nnEpochs: 15, instances: 50, maxFlips: 60, fig2PerClass: 10, remoteReps: 2},
	"paper":  {size: 28, perClass: 7000, hidden: []int{256, 128, 100}, nnEpochs: 10, instances: 1000, maxFlips: 200, fig2PerClass: 40, remoteReps: 3},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		log.Print(err)
		os.Exit(1)
	}
}

// run parses args like the command line and runs the selected experiments,
// writing progress lines to stdout and artifacts under -out.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		expList = fs.String("exp", "all", "comma list: "+strings.Join(experimentNames, ",")+" or all")
		scale   = fs.String("scale", "small", "small, medium or paper")
		outDir  = fs.String("out", "results", "output directory")
		seed    = fs.Int64("seed", 1, "master seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec, ok := scales[*scale]
	if !ok {
		return fmt.Errorf("unknown -scale %q", *scale)
	}
	want, err := parseExperiments(*expList)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	all := want["all"]

	var table1Rows []eval.AccuracyRow
	for _, ds := range []string{"fmnist", "mnist"} {
		start := time.Now()
		fmt.Fprintf(stdout, "== dataset %s: building workbench (%s scale)\n", ds, *scale)
		w, err := eval.NewWorkbench(eval.WorkbenchConfig{
			Dataset:  ds,
			Size:     spec.size,
			PerClass: spec.perClass,
			Hidden:   spec.hidden,
			NNEpochs: spec.nnEpochs,
			LMT: lmt.Config{
				MinLeaf:      100,
				StopAccuracy: 0.99,
				MaxDepth:     8,
				MaxFeatures:  maxFeatures(spec.size),
				LogReg:       lmt.LogRegConfig{Epochs: 80},
			},
			Seed: *seed,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "   trained in %v: PLNN %v (batched GEMM epoch, test acc %.3f), LMT %v (test acc %.3f, %d leaves)\n",
			time.Since(start).Round(time.Millisecond),
			w.PLNNTrainTime.Round(time.Millisecond),
			w.PLNN.Net.Accuracy(w.Test.X, w.Test.Y),
			w.LMTTrainTime.Round(time.Millisecond),
			w.LMT.Accuracy(w.Test.X, w.Test.Y),
			w.LMT.NumLeaves())

		if all || want["table1"] {
			table1Rows = append(table1Rows, eval.Table1(w)...)
		}
		if all || want["fig2"] {
			if err := runFig2(stdout, w, ds, *outDir, spec, *seed); err != nil {
				return err
			}
		}
		rng := rand.New(rand.NewSource(*seed + 77))
		ids := w.SampleTestInstances(rng, spec.instances)
		xs := w.Test.Subset(ids, "probe").X

		for _, entry := range w.Models() {
			if all || want["fig3"] {
				if err := runFig3(stdout, w, entry, ds, *outDir, xs, spec, *seed); err != nil {
					return err
				}
			}
			if all || want["fig4"] {
				if err := runFig4(stdout, w, entry, ds, *outDir, ids, *seed); err != nil {
					return err
				}
			}
			if all || want["fig5"] || want["fig6"] || want["fig7"] {
				if err := runQuality(stdout, entry, ds, *outDir, xs, *seed); err != nil {
					return err
				}
			}
			if all || want["census"] {
				if err := runCensus(stdout, entry, ds, *outDir, xs, *seed); err != nil {
					return err
				}
			}
			if all || want["boundary"] {
				if err := runBoundary(stdout, entry, ds, *outDir, xs, *seed); err != nil {
					return err
				}
			}
			if all || want["remote"] {
				if err := runRemote(stdout, entry, ds, *outDir, xs, *seed, spec.remoteReps); err != nil {
					return err
				}
			}
		}
	}
	if all || want["table1"] {
		path := filepath.Join(*outDir, "table1.md")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = eval.WriteTable1(f, table1Rows)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
	}
	if err := writeIndex(stdout, *outDir, *scale, *seed); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "done")
	return nil
}

// experimentNames are the experiments -exp selects, besides "all".
var experimentNames = []string{"table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "census", "boundary", "remote"}

// parseExperiments turns the -exp comma list into a set, refusing any name
// it does not know: a typo or a retired experiment would otherwise train
// both workbenches, write nothing and still exit 0.
func parseExperiments(list string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, e := range strings.Split(list, ",") {
		e = strings.TrimSpace(e)
		if e != "all" && !slices.Contains(experimentNames, e) {
			return nil, fmt.Errorf("unknown -exp %q; known: %s or all", e, strings.Join(experimentNames, ","))
		}
		want[e] = true
	}
	return want, nil
}

// writeIndex emits results/INDEX.md describing every artifact the harness
// can produce, so a reader landing in the output directory knows which file
// regenerates which paper figure.
func writeIndex(stdout io.Writer, outDir, scale string, seed int64) error {
	entries, err := os.ReadDir(outDir)
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "INDEX.md")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "# Experiment artifacts (scale %s, seed %d)\n\n", scale, seed)
	fmt.Fprintln(f, "| File pattern | Paper artifact |")
	fmt.Fprintln(f, "|---|---|")
	fmt.Fprintln(f, "| table1.md | Table I: train/test accuracy |")
	fmt.Fprintln(f, "| fig2_*_grid.png | Figure 2 montage (mean / PLNN / LMT rows) |")
	fmt.Fprintln(f, "| fig2_*_{mean,plnn,lmt}.png | Figure 2 individual heatmaps |")
	fmt.Fprintln(f, "| fig3_*.csv | Figure 3: CPP and NLCI curves |")
	fmt.Fprintln(f, "| fig4_*.csv | Figure 4: consistency (cosine) curves |")
	fmt.Fprintln(f, "| fig567_*.md | Figures 5-7: RD / WD / L1Dist grids |")
	fmt.Fprintln(f, "| census_*.md | Region census (paper §II structure) |")
	fmt.Fprintln(f, "| boundary_*.csv | Boundary profile (paper Figure 1, quantified) |")
	fmt.Fprintln(f, "| remote_*.md | Over-the-API quality + wire cost per rep (4 shard replicas, queries and round trips) |")
	fmt.Fprintf(f, "\n%d files in this run:\n\n", len(entries))
	for _, e := range entries {
		if e.Name() == "INDEX.md" {
			continue
		}
		fmt.Fprintf(f, "- %s\n", e.Name())
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return nil
}

func maxFeatures(size int) int {
	if size >= 24 {
		return 64 // cap split search on paper-scale images
	}
	return 0
}

func runFig2(stdout io.Writer, w *eval.Workbench, ds, outDir string, spec scaleSpec, seed int64) error {
	// The paper shows five FMNIST classes: boot, pullover, coat, sneaker,
	// t-shirt. For the digit dataset use digits 0-4.
	classes := []int{0, 1, 2, 3, 4}
	if ds == "fmnist" {
		classes = []int{9, 2, 4, 7, 0}
	}
	o := core.New(core.Config{Seed: seed + 10})
	rng := rand.New(rand.NewSource(seed + 11))
	hms, err := eval.Figure2(w, o, classes, spec.fig2PerClass, rng)
	if err != nil {
		return err
	}
	// Three montage rows like the paper's figure: mean images, PLNN
	// decision features, LMT decision features; one column per class.
	grid := make([][]image.Image, 3)
	for i := range grid {
		grid[i] = make([]image.Image, len(hms))
	}
	for col, hm := range hms {
		gray, err := heatmap.Grayscale(hm.MeanImage, w.Test.Width, w.Test.Height)
		if err != nil {
			return err
		}
		grid[0][col] = gray
		if err := heatmap.SavePNG(filepath.Join(outDir, fmt.Sprintf("fig2_%s_%s_mean.png", ds, hm.ClassName)), gray); err != nil {
			return err
		}
		for name, dv := range hm.AvgDecision {
			img, err := heatmap.Diverging(dv, w.Test.Width, w.Test.Height)
			if err != nil {
				return err
			}
			switch name {
			case "PLNN":
				grid[1][col] = img
			case "LMT":
				grid[2][col] = img
			}
			path := filepath.Join(outDir, fmt.Sprintf("fig2_%s_%s_%s.png", ds, hm.ClassName, strings.ToLower(name)))
			if err := heatmap.SavePNG(path, img); err != nil {
				return err
			}
		}
	}
	montage, err := heatmap.Montage(grid, 2)
	if err != nil {
		return err
	}
	if err := heatmap.SavePNG(filepath.Join(outDir, fmt.Sprintf("fig2_%s_grid.png", ds)), montage); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "   fig2: wrote %d heatmap sets + grid for %s\n", len(hms), ds)
	return nil
}

// fig34Methods builds the Figure 3/4 method set for one model: the three
// white-box gradient baselines, classic LIME, and OpenAPI.
func fig34Methods(w *eval.Workbench, entry eval.ModelEntry, seed int64) []plm.Interpreter {
	var grad func(cfg gradient.Config) *gradient.Interpreter
	if entry.Name == "PLNN" {
		grad = func(cfg gradient.Config) *gradient.Interpreter {
			return gradient.New(w.PLNN.Net, cfg)
		}
	} else {
		grad = func(cfg gradient.Config) *gradient.Interpreter {
			return gradient.NewFromRegionModel(entry.Model, cfg)
		}
	}
	return []plm.Interpreter{
		grad(gradient.Config{Method: gradient.Saliency}),
		core.New(core.Config{Seed: seed + 20}),
		grad(gradient.Config{Method: gradient.IntegratedGradients}),
		grad(gradient.Config{Method: gradient.GradientInput}),
		lime.New(lime.Config{H: 1e-2, Mode: lime.FitProbability, Seed: seed + 21}),
	}
}

func runFig3(stdout io.Writer, w *eval.Workbench, entry eval.ModelEntry, ds, outDir string, xs []mat.Vec, spec scaleSpec, seed int64) error {
	curves, err := eval.Figure3(entry.Model, fig34Methods(w, entry, seed), xs, spec.maxFlips)
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("fig3_%s_%s.csv", ds, strings.ToLower(entry.Name)))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := eval.WriteCurvesCSV(f, curves); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "   fig3: wrote %s\n", path)
	return nil
}

func runFig4(stdout io.Writer, w *eval.Workbench, entry eval.ModelEntry, ds, outDir string, ids []int, seed int64) error {
	pairs, err := eval.NeighbourPairs(w, ids)
	if err != nil {
		return err
	}
	curves, err := eval.Figure4(entry.Model, fig34Methods(w, entry, seed+30), pairs)
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("fig4_%s_%s.csv", ds, strings.ToLower(entry.Name)))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := eval.WriteConsistencyCSV(f, curves); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "   fig4: wrote %s\n", path)
	return nil
}

func runCensus(stdout io.Writer, entry eval.ModelEntry, ds, outDir string, xs []mat.Vec, seed int64) error {
	rng := rand.New(rand.NewSource(seed + 50))
	census, err := eval.RegionCensus(entry.Model, xs, 200, 18, rng)
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("census_%s_%s.md", ds, strings.ToLower(entry.Name)))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "# Region census: %s / %s\n\n", ds, entry.Name)
	fmt.Fprintf(f, "- probes: %d\n- distinct regions: %d\n- largest region share: %.3f\n",
		census.Probes, census.DistinctRegions, census.LargestShare)
	fmt.Fprintf(f, "- same-region hypercube edge around probes: min %.3g / median %.3g / max %.3g\n",
		census.MinEdge, census.MedianEdge, census.MaxEdge)
	fmt.Fprintf(stdout, "   census: %d regions over %d probes -> %s\n", census.DistinctRegions, census.Probes, path)
	return nil
}

func runBoundary(stdout io.Writer, entry eval.ModelEntry, ds, outDir string, xs []mat.Vec, seed int64) error {
	limit := xs
	if len(limit) > 6 {
		limit = limit[:6] // bisection is per-instance expensive
	}
	pts, err := eval.BoundaryProfile(entry.Model, limit, 1e-2, []int{0, 4, 8, 12}, seed+70)
	if err != nil {
		// Single-region models legitimately have no boundaries to profile.
		fmt.Fprintf(stdout, "   boundary: skipped for %s/%s (%v)\n", ds, entry.Name, err)
		return nil
	}
	path := filepath.Join(outDir, fmt.Sprintf("boundary_%s_%s.csv", ds, strings.ToLower(entry.Name)))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "distance,naive_l1,openapi_l1,openapi_iters,openapi_failed")
	for _, p := range pts {
		fmt.Fprintf(f, "%.6g,%.6g,%.6g,%d,%t\n",
			p.Distance, p.NaiveL1, p.OpenAPIL1, p.OpenAPIIters, p.OpenAPIFailed)
	}
	fmt.Fprintf(stdout, "   boundary: wrote %s (%d points)\n", path, len(pts))
	return nil
}

// runRemote reruns the quality computation with the model genuinely behind
// HTTP — served across 4 shard replicas and probed through a plain
// api.Client — and reports what each repetition cost on the wire. The
// server is started once and reused across repetitions (the paper-scale run
// repeats the remote experiment; spinning a fresh server per repetition
// would re-pay startup and dialing every time).
func runRemote(stdout io.Writer, entry eval.ModelEntry, ds, outDir string, xs []mat.Vec, seed int64, reps int) error {
	if reps < 1 {
		reps = 1
	}
	bench, err := eval.ServeRemote(entry.Model, strings.ToLower(entry.Name), 4)
	if err != nil {
		return err
	}
	defer bench.Close()
	white := openbox.CacheRegionModelOpts(entry.Model, openbox.StoreOptions{})
	var rows []eval.QualityRow
	wires := make([]eval.WireStats, 0, reps)
	for rep := 0; rep < reps; rep++ {
		// A fresh interpreter per rep, same seed: repetitions are identical
		// work, so the per-rep wire stats isolate the serving-layer effects.
		methods := []plm.Interpreter{core.New(core.Config{Seed: seed + 50})}
		r, wire, err := bench.Quality(white, methods, xs)
		if err != nil {
			return err
		}
		rows = r
		wires = append(wires, wire)
	}
	path := filepath.Join(outDir, fmt.Sprintf("remote_%s_%s.md", ds, strings.ToLower(entry.Name)))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "# Over-the-API quality: %s / %s (4 replicas, %d reps on one persistent server)\n\n", ds, entry.Name, reps)
	for i, wire := range wires {
		fmt.Fprintf(f, "- rep %d: %d queries over %d round trips (%.1f queries/trip)\n",
			i+1, wire.Queries, wire.RoundTrips, wire.QueriesPerTrip())
	}
	fmt.Fprintln(f)
	if err := eval.WriteQuality(f, rows); err != nil {
		return err
	}
	last := wires[len(wires)-1]
	fmt.Fprintf(stdout, "   remote: wrote %s (%.1f queries/trip on rep %d)\n", path, last.QueriesPerTrip(), len(wires))
	return nil
}

func runQuality(stdout io.Writer, entry eval.ModelEntry, ds, outDir string, xs []mat.Vec, seed int64) error {
	rows, err := eval.QualityGrid(entry.Model, xs, eval.HGrid, seed+40)
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("fig567_%s_%s.md", ds, strings.ToLower(entry.Name)))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "# Figures 5-7 grid: %s / %s\n\n", ds, entry.Name)
	fmt.Fprintln(f, "Fig. 5 = AvgRD column, Fig. 6 = WD columns, Fig. 7 = L1 columns.")
	fmt.Fprintln(f)
	if err := eval.WriteQuality(f, rows); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "   fig5/6/7: wrote %s\n", path)
	return nil
}
