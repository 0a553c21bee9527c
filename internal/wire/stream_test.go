package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
)

func randRows(rng *rand.Rand, rows, cols int) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
		for j := range m[i] {
			m[i][j] = rng.NormFloat64()
		}
	}
	return m
}

// readChunked drains r with reads of exactly n bytes, so rows straddle
// read boundaries at every offset the chunk size produces.
func readChunked(t *testing.T, r io.Reader, n int) []byte {
	t.Helper()
	var out bytes.Buffer
	buf := make([]byte, n)
	for {
		k, err := r.Read(buf)
		out.Write(buf[:k])
		if err == io.EOF {
			return out.Bytes()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamFrameBodyMatchesWriteFrame: the streamed body's bytes are
// WriteFrame's, for 1, 66 and 787 rows of 1, 64 and 784 columns, whatever
// the reads' size — a whole frame at once, a
// transport-sized 32 KiB, a size that splits rows at odd offsets — and
// Len is the exact frame size.
func TestStreamFrameBodyMatchesWriteFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, rows := range []int{1, 66, 787} {
		for _, cols := range []int{1, 64, 784} {
			m := randRows(rng, rows, cols)
			var want bytes.Buffer
			if err := WriteFrame(&want, m); err != nil {
				t.Fatal(err)
			}
			for _, chunk := range []int{want.Len(), 32 << 10, 1000} {
				b, err := NewFrameBody(m)
				if err != nil {
					t.Fatal(err)
				}
				if b.Len() != int64(want.Len()) {
					t.Fatalf("%dx%d: Len %d, frame is %d bytes", rows, cols, b.Len(), want.Len())
				}
				if got := readChunked(t, b, chunk); !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("%dx%d reads of %d: streamed bytes differ from WriteFrame's", rows, cols, chunk)
				}
			}
		}
	}
}

func TestStreamFrameBodyEmptyMatrix(t *testing.T) {
	var want bytes.Buffer
	if err := WriteFrame(&want, nil); err != nil {
		t.Fatal(err)
	}
	b, err := NewFrameBody(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := io.ReadAll(b); !bytes.Equal(got, want.Bytes()) || b.Len() != frameHeader {
		t.Fatalf("empty frame: % x (Len %d), want % x", got, b.Len(), want.Bytes())
	}
}

func TestStreamFrameBodyRejectsRaggedRows(t *testing.T) {
	if _, err := NewFrameBody([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged matrix accepted")
	}
}

// TestStreamFrameBodyCloseReleasesRows: an empty Read is no EOF; after
// Close the body reads no more rows, Closed is closed, and a second Close
// is harmless.
func TestStreamFrameBodyCloseReleasesRows(t *testing.T) {
	b, err := NewFrameBody(randRows(rand.New(rand.NewSource(2)), 4, 8))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := b.Read(nil); n != 0 || err != nil {
		t.Fatalf("empty Read = %d, %v; want 0, nil", n, err)
	}
	if _, err := b.Read(make([]byte, 20)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.Closed():
		t.Fatal("Closed before Close")
	default:
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	<-b.Closed()
	if _, err := b.Read(make([]byte, 64)); !errors.Is(err, errBodyClosed) {
		t.Fatalf("Read after Close: err = %v, want errBodyClosed", err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
