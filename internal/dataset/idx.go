package dataset

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/mat"
)

// The IDX binary format is what the real MNIST/FMNIST distributions use:
// a magic number (0x00000803 for uint8 image tensors, 0x00000801 for label
// vectors), big-endian dimension sizes, then raw uint8 data. Implementing
// the codec means genuine downloads drop into this reproduction unchanged.

const (
	idxMagicImages = 0x00000803
	idxMagicLabels = 0x00000801
)

// ReadIDXImages decodes an IDX image tensor from r into normalized [0,1]
// vectors.
func ReadIDXImages(r io.Reader) (imgs []mat.Vec, width, height int, err error) {
	var hdr [4]uint32
	for i := range hdr {
		if err := binary.Read(r, binary.BigEndian, &hdr[i]); err != nil {
			return nil, 0, 0, fmt.Errorf("dataset: read idx header: %w", err)
		}
	}
	if hdr[0] != idxMagicImages {
		return nil, 0, 0, fmt.Errorf("dataset: bad image magic 0x%08x", hdr[0])
	}
	n, h, w := int(hdr[1]), int(hdr[2]), int(hdr[3])
	if n < 0 || h <= 0 || w <= 0 || h*w > 1<<24 {
		return nil, 0, 0, fmt.Errorf("dataset: implausible idx dims n=%d h=%d w=%d", n, h, w)
	}
	imgs = make([]mat.Vec, n)
	buf := make([]byte, h*w)
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, 0, 0, fmt.Errorf("dataset: read image %d: %w", i, err)
		}
		img := make(mat.Vec, h*w)
		for j, b := range buf {
			img[j] = float64(b) / 255
		}
		imgs[i] = img
	}
	return imgs, w, h, nil
}

// ReadIDXLabels decodes an IDX label vector from r.
func ReadIDXLabels(r io.Reader) ([]int, error) {
	var hdr [2]uint32
	for i := range hdr {
		if err := binary.Read(r, binary.BigEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("dataset: read idx label header: %w", err)
		}
	}
	if hdr[0] != idxMagicLabels {
		return nil, fmt.Errorf("dataset: bad label magic 0x%08x", hdr[0])
	}
	n := int(hdr[1])
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("dataset: read labels: %w", err)
	}
	out := make([]int, n)
	for i, b := range buf {
		out[i] = int(b)
	}
	return out, nil
}

// openMaybeGzip opens path, transparently decompressing .gz files (the form
// MNIST is distributed in).
func openMaybeGzip(path string) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if !strings.HasSuffix(path, ".gz") {
		return f, nil
	}
	gz, err := gzip.NewReader(bufio.NewReader(f))
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("dataset: gzip %s: %w", path, err)
	}
	return &gzipReadCloser{gz: gz, f: f}, nil
}

type gzipReadCloser struct {
	gz *gzip.Reader
	f  *os.File
}

func (g *gzipReadCloser) Read(p []byte) (int, error) { return g.gz.Read(p) }

func (g *gzipReadCloser) Close() error {
	gzErr := g.gz.Close()
	fErr := g.f.Close()
	if gzErr != nil {
		return gzErr
	}
	return fErr
}

// LoadIDX loads a dataset from an IDX image file and label file pair
// (optionally gzip-compressed), attaching the given class names.
func LoadIDX(imagePath, labelPath, name string, classNames []string) (*Dataset, error) {
	ir, err := openMaybeGzip(imagePath)
	if err != nil {
		return nil, fmt.Errorf("dataset: open %s: %w", imagePath, err)
	}
	defer ir.Close()
	imgs, w, h, err := ReadIDXImages(bufio.NewReader(ir))
	if err != nil {
		return nil, err
	}
	lr, err := openMaybeGzip(labelPath)
	if err != nil {
		return nil, fmt.Errorf("dataset: open %s: %w", labelPath, err)
	}
	defer lr.Close()
	labels, err := ReadIDXLabels(bufio.NewReader(lr))
	if err != nil {
		return nil, err
	}
	if len(imgs) != len(labels) {
		return nil, fmt.Errorf("dataset: %d images vs %d labels", len(imgs), len(labels))
	}
	d := &Dataset{Name: name, Width: w, Height: h, X: imgs, Y: labels, Names: classNames}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}
