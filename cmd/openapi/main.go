// Command openapi interprets one prediction of a PLM that is reachable only
// through its API — the end-to-end workflow of the paper. It dials a served
// model (or loads one locally for offline use), runs the OpenAPI algorithm,
// and reports the exact decision features.
//
// Usage:
//
//	openapi -url http://127.0.0.1:8080 -instance x.json
//	openapi -url http://127.0.0.1:8080 -instance x.json -class 3 -png out.png -width 16
//	openapi -model plnn.json -type plnn -instance x.json -ascii
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/heatmap"
	"repro/internal/mat"
	"repro/internal/modelio"
	"repro/internal/plm"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("openapi: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		log.Print(err)
		os.Exit(1)
	}
}

// run parses args like the command line, interprets the instance and
// writes the report to stdout. Every query is made before the first line
// is printed, so a failing API yields an error and no report.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("openapi", flag.ContinueOnError)
	var (
		url       = fs.String("url", "", "base URL of a served model")
		modelPath = fs.String("model", "", "local model file (alternative to -url)")
		modelType = fs.String("type", "plnn", fmt.Sprintf("local model family: one of %v", modelio.Kinds()))
		instance  = fs.String("instance", "", "JSON file holding the instance as a number array (required)")
		class     = fs.Int("class", -1, "class to interpret (-1: the predicted class)")
		topK      = fs.Int("top", 10, "how many top features to print")
		iters     = fs.Int("max-iters", 100, "OpenAPI iteration budget")
		edge      = fs.Float64("edge", 1.0, "initial hypercube edge length")
		seed      = fs.Int64("seed", 1, "sampler seed")
		pngPath   = fs.String("png", "", "write a diverging heatmap PNG here")
		width     = fs.Int("width", 0, "image width for -png/-ascii (default: square)")
		ascii     = fs.Bool("ascii", false, "print an ASCII heatmap")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *instance == "" {
		return errors.New("-instance is required")
	}

	x, err := modelio.LoadInstance(*instance)
	if err != nil {
		return err
	}
	model, err := connect(*url, *modelPath, *modelType)
	if err != nil {
		return err
	}
	if len(x) != model.Dim() {
		return fmt.Errorf("instance has %d features, model wants %d", len(x), model.Dim())
	}
	ys, err := plm.PredictAll(model, []mat.Vec{x})
	if err != nil {
		return fmt.Errorf("prediction failed: %w", err)
	}
	probs := ys[0]
	c := *class
	if c < 0 {
		c = probs.ArgMax()
	}
	counted := api.NewCounter(model)
	o := core.New(core.Config{MaxIterations: *iters, InitialEdge: *edge, Seed: *seed})
	interp, err := o.Interpret(counted, x, c)
	if err != nil {
		return err
	}
	// A remote model degrades a failed single query to a uniform answer
	// and records the error; such an interpretation is not the model's.
	if se, ok := model.(interface{ Err() error }); ok && se.Err() != nil {
		return fmt.Errorf("transport errors during interpretation: %w", se.Err())
	}

	fmt.Fprintf(stdout, "model: %d features, %d classes\n", model.Dim(), model.Classes())
	fmt.Fprintf(stdout, "prediction: class %d with probability %.4f\n", probs.ArgMax(), probs[probs.ArgMax()])
	fmt.Fprintf(stdout, "interpreting class %d\n", c)
	fmt.Fprintf(stdout, "converged in %d iteration(s), final edge %.3g, %d API queries\n",
		interp.Iterations, interp.FinalEdge, counted.Count())

	fmt.Fprintf(stdout, "top %d decision features (positive supports the class):\n", *topK)
	for _, f := range interp.TopK(*topK) {
		fmt.Fprintf(stdout, "  feature %4d: %+.6f\n", f.Index, f.Weight)
	}

	w := *width
	if w <= 0 {
		w = intSqrt(len(x))
	}
	if w <= 0 || len(x)%w != 0 {
		if *ascii || *pngPath != "" {
			log.Printf("cannot render: %d features do not form a %d-wide image", len(x), w)
		}
		return nil
	}
	h := len(x) / w
	if *ascii {
		art, err := heatmap.ASCII(interp.Features, w, h, true)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "decision features (uppercase ramp = supports, lowercase = opposes):")
		fmt.Fprint(stdout, art)
	}
	if *pngPath != "" {
		img, err := heatmap.Diverging(interp.Features, w, h)
		if err != nil {
			return err
		}
		if err := heatmap.SavePNG(*pngPath, img); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "heatmap written to %s\n", *pngPath)
	}
	return nil
}

func connect(url, modelPath, modelType string) (plm.Model, error) {
	switch {
	case url != "" && modelPath != "":
		return nil, errors.New("give either -url or -model, not both")
	case url != "":
		return api.Dial(url, nil, 2)
	case modelPath != "":
		return modelio.Load(modelPath, modelType)
	}
	return nil, errors.New("one of -url or -model is required")
}

func intSqrt(n int) int {
	for i := 1; i*i <= n; i++ {
		if i*i == n {
			return i
		}
	}
	return 0
}
