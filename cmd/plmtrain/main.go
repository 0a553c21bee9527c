// Command plmtrain trains one of the paper's target models (a ReLU PLNN or
// a logistic model tree) on a synthetic MNIST/FMNIST stand-in — or on real
// IDX files when provided — and saves it as JSON for plmserve and openapi.
//
// Usage:
//
//	plmtrain -model plnn -dataset mnist -out plnn.json
//	plmtrain -model lmt -dataset fmnist -size 28 -per-class 700 -out lmt.json
//	plmtrain -model plnn -images train-images.idx.gz -labels train-labels.idx.gz -out plnn.json
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/lmt"
	"repro/internal/nn"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("plmtrain: ")

	var (
		modelKind = flag.String("model", "plnn", "model family: plnn, lmt or maxout")
		pieces    = flag.Int("pieces", 3, "MaxOut pieces per hidden unit")
		dsName    = flag.String("dataset", "mnist", "synthetic dataset: mnist or fmnist")
		imagesIDX = flag.String("images", "", "optional IDX image file (overrides -dataset)")
		labelsIDX = flag.String("labels", "", "optional IDX label file (with -images)")
		size      = flag.Int("size", 16, "synthetic image side length")
		perClass  = flag.Int("per-class", 120, "synthetic instances per class")
		testFrac  = flag.Float64("test-frac", 0.2, "held-out test fraction")
		hidden    = flag.String("hidden", "64,32", "PLNN hidden sizes, comma separated")
		epochs    = flag.Int("epochs", 15, "PLNN training epochs / LMT leaf epochs")
		seed      = flag.Int64("seed", 1, "RNG seed")
		out       = flag.String("out", "", "output model path (required)")
	)
	flag.Parse()
	if *out == "" {
		log.Fatal("-out is required")
	}
	if err := checkFlags(*modelKind, *pieces, *testFrac, *size, *perClass); err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(*seed))
	data, err := loadData(*imagesIDX, *labelsIDX, *dsName, rng, *size, *perClass)
	if err != nil {
		log.Fatal(err)
	}
	nTest := int(float64(data.Len()) * *testFrac)
	train, test := data.Split(rng, nTest)
	fmt.Printf("dataset %s: %d train / %d test, %d features, %d classes\n",
		data.Name, train.Len(), test.Len(), data.Dim(), data.Classes())

	trainCfg := nn.TrainConfig{
		Epochs: *epochs,
		Progress: func(e int, l float64) {
			fmt.Printf("  epoch %d: loss %.4f\n", e, l)
		},
	}

	switch strings.ToLower(*modelKind) {
	case "plnn":
		sizes := []int{train.Dim()}
		for _, part := range strings.Split(*hidden, ",") {
			h, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || h <= 0 {
				log.Fatalf("bad -hidden entry %q", part)
			}
			sizes = append(sizes, h)
		}
		sizes = append(sizes, train.Classes())
		net := nn.New(rng, sizes...)
		start := time.Now()
		loss, err := net.Train(rng, train.X, train.Y, trainCfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trained in %v\n", time.Since(start).Round(time.Millisecond))
		fmt.Printf("final loss %.4f, train acc %.3f, test acc %.3f\n",
			loss, net.Accuracy(train.X, train.Y), net.Accuracy(test.X, test.Y))
		if err := net.Save(*out); err != nil {
			log.Fatal(err)
		}
	case "lmt":
		start := time.Now()
		tree, err := lmt.Train(rng, train.X, train.Y, train.Classes(), lmt.Config{
			LogReg: lmt.LogRegConfig{Epochs: *epochs * 10},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trained in %v\n", time.Since(start).Round(time.Millisecond))
		fmt.Printf("tree: %d leaves, depth %d, train acc %.3f, test acc %.3f\n",
			tree.NumLeaves(), tree.Depth(),
			tree.Accuracy(train.X, train.Y), tree.Accuracy(test.X, test.Y))
		if err := tree.Save(*out); err != nil {
			log.Fatal(err)
		}
	case "maxout":
		sizes := []int{train.Dim()}
		for _, part := range strings.Split(*hidden, ",") {
			h, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || h <= 0 {
				log.Fatalf("bad -hidden entry %q", part)
			}
			sizes = append(sizes, h)
		}
		sizes = append(sizes, train.Classes())
		net := nn.NewMaxout(rng, *pieces, sizes...)
		start := time.Now()
		loss, err := net.Train(rng, train.X, train.Y, trainCfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trained in %v\n", time.Since(start).Round(time.Millisecond))
		fmt.Printf("final loss %.4f, train acc %.3f, test acc %.3f\n",
			loss, net.Accuracy(train.X, train.Y), net.Accuracy(test.X, test.Y))
		if err := net.Save(*out); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown -model %q (want plnn, lmt or maxout)", *modelKind)
	}
	fmt.Printf("saved %s model to %s\n", *modelKind, *out)
}

// checkFlags rejects flag values the training run cannot use, before any
// data is built: a held-out fraction outside [0, 1), a MaxOut network with
// fewer than two pieces per unit, and a non-positive synthetic image side
// or per-class count (the dataset builder would silently replace either
// with its default).
func checkFlags(model string, pieces int, testFrac float64, size, perClass int) error {
	if !(testFrac >= 0 && testFrac < 1) { // also rejects NaN
		return fmt.Errorf("-test-frac %v out of range [0, 1)", testFrac)
	}
	if size <= 0 {
		return fmt.Errorf("-size %d: the image side must be positive", size)
	}
	if perClass <= 0 {
		return fmt.Errorf("-per-class %d: the per-class count must be positive", perClass)
	}
	if strings.ToLower(model) == "maxout" && pieces < 2 {
		return fmt.Errorf("-pieces %d: maxout needs at least 2 pieces per unit", pieces)
	}
	return nil
}

func loadData(images, labels, name string, rng *rand.Rand, size, perClass int) (*dataset.Dataset, error) {
	if images != "" || labels != "" {
		if images == "" || labels == "" {
			return nil, fmt.Errorf("-images and -labels must be given together")
		}
		names := make([]string, 10)
		for i := range names {
			names[i] = fmt.Sprintf("class-%d", i)
		}
		return dataset.LoadIDX(images, labels, "idx", names)
	}
	return dataset.SyntheticByName(name, rng, dataset.SynthConfig{Size: size, PerClass: perClass})
}
