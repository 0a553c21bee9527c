package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"slices"
	"testing"
)

// FuzzBinaryFrame drives the frame decoder with arbitrary bytes: it must
// never panic, never allocate past the byte budget, every rejection must
// map to a well-formed HTTP status, and every frame it does accept must
// re-encode to a byte-identical frame — the decoder and encoder agree on
// the format exactly. Each input is also decoded into recycled blocks,
// which start out holding a sentinel NaN pattern and then hold the floats
// of the inputs before: that decode must fail where the exact one fails
// and otherwise give the same bits, so no block carries one request's
// floats into another's rows. CI runs this target for a short burst on
// every push; `go test -fuzz=FuzzBinaryFrame ./internal/wire/` explores
// further.
func FuzzBinaryFrame(f *testing.F) {
	seed := func(m [][]float64, f32 bool) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, m, f32); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seed([][]float64{{1, 2, 3}, {4, 5, 6}}, false))
	f.Add(seed([][]float64{{math.Pi, math.Inf(1), math.NaN()}}, false))
	f.Add(seed([][]float64{{0.5, -0.25}}, true))
	// The start of a frame spanning three decode blocks. A whole
	// multi-block frame is at least 32 KiB, and minimizing inputs that
	// large stalls a short fuzz burst; the unit tests decode whole ones.
	f.Add(seed(benchRows(2*frameBlock/(8+rowHeader)+1, 1), false)[:frameHeader+64])
	f.Add(seed([][]float64{}, false))
	f.Add(seed(nil, true))
	f.Add([]byte{})
	f.Add([]byte(frameMagic))
	f.Add([]byte(frameMagic + "\x01\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Add([]byte("NOPE\x01\x00\x00\x00\x01\x00\x00\x00\x01\x00\x00\x00"))

	const budget = 1 << 20
	dirtyFreeList(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > budget {
			return
		}
		fr := NewFrameReader(bytes.NewReader(data), budget)
		rec := newLimited(bytes.NewReader(data), budget)
		var own blockSet
		defer own.recycle(0)
		for {
			m, err := fr.Next()
			rm, rerr := readFrame(rec, &own)
			if (err == nil) != (rerr == nil) || !slices.Equal(frameBits(m), frameBits(rm)) {
				t.Fatalf("recycled decode gives %d rows, err %v; exact decode %d rows, err %v", len(rm), rerr, len(m), err)
			}
			if err == io.EOF {
				return
			}
			if err != nil {
				if s := DecodeStatus(err); s != 400 && s != 413 {
					t.Fatalf("decode error maps to status %d: %v", s, err)
				}
				if errors.Is(err, ErrTooLarge) != (DecodeStatus(err) == 413) {
					t.Fatalf("ErrTooLarge/413 mismatch: %v", err)
				}
				return
			}
			// A successful decode consumed a full header, so the flags byte is
			// addressable; re-encode at the same element width. float64 frames
			// must round trip byte-identically. Exceptions: float32 payloads
			// holding a NaN (the f32→f64→f32 conversion pair may quiet its
			// payload bits) and zero-row frames (the decoder drops their cols,
			// so the re-encoded header is the 0x0 canonical form — but both
			// occupy exactly one header).
			f32 := data[5]&flagFloat32 != 0
			var buf bytes.Buffer
			if err := WriteFrame(&buf, m, f32); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if len(m) > 0 && !bytes.HasPrefix(data, buf.Bytes()) && !(f32 && hasNaN(m)) {
				t.Fatalf("accepted %d-row frame does not round trip", len(m))
			}
			data = data[buf.Len():]
		}
	})
}

func hasNaN(m [][]float64) bool {
	for _, row := range m {
		for _, v := range row {
			if math.IsNaN(v) {
				return true
			}
		}
	}
	return false
}
