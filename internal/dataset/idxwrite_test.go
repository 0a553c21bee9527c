package dataset

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strings"
)

// The IDX writers: fixture builders for the reader tests. No command
// writes IDX files, so they live here rather than beside the readers.

// WriteIDXImages encodes the dataset's images (denormalized to 0-255 uint8)
// in IDX format to w.
func WriteIDXImages(w io.Writer, d *Dataset) error {
	hdr := []uint32{idxMagicImages, uint32(d.Len()), uint32(d.Height), uint32(d.Width)}
	for _, v := range hdr {
		if err := binary.Write(w, binary.BigEndian, v); err != nil {
			return fmt.Errorf("dataset: write idx header: %w", err)
		}
	}
	buf := make([]byte, d.Dim())
	for _, x := range d.X {
		for i, v := range x {
			p := int(v*255 + 0.5)
			if p < 0 {
				p = 0
			} else if p > 255 {
				p = 255
			}
			buf[i] = byte(p)
		}
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("dataset: write idx pixels: %w", err)
		}
	}
	return nil
}

// WriteIDXLabels encodes the dataset's labels in IDX format to w.
func WriteIDXLabels(w io.Writer, d *Dataset) error {
	hdr := []uint32{idxMagicLabels, uint32(d.Len())}
	for _, v := range hdr {
		if err := binary.Write(w, binary.BigEndian, v); err != nil {
			return fmt.Errorf("dataset: write idx label header: %w", err)
		}
	}
	buf := make([]byte, d.Len())
	for i, y := range d.Y {
		if y < 0 || y > 255 {
			return fmt.Errorf("dataset: label %d not encodable as uint8", y)
		}
		buf[i] = byte(y)
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("dataset: write idx labels: %w", err)
	}
	return nil
}

// SaveIDX writes the dataset as an IDX image/label file pair; paths ending
// in .gz are compressed.
func SaveIDX(d *Dataset, imagePath, labelPath string) error {
	write := func(path string, fn func(io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		var w io.Writer = f
		var gz *gzip.Writer
		if strings.HasSuffix(path, ".gz") {
			gz = gzip.NewWriter(f)
			w = gz
		}
		bw := bufio.NewWriter(w)
		if err := fn(bw); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		if gz != nil {
			return gz.Close()
		}
		return nil
	}
	if err := write(imagePath, func(w io.Writer) error { return WriteIDXImages(w, d) }); err != nil {
		return fmt.Errorf("dataset: save images: %w", err)
	}
	if err := write(labelPath, func(w io.Writer) error { return WriteIDXLabels(w, d) }); err != nil {
		return fmt.Errorf("dataset: save labels: %w", err)
	}
	return nil
}
