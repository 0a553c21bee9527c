package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"testing"
)

// The native path moves float64 payloads as raw memory; the per-element
// loops it replaced are kept for big-endian hosts, and serve here as its
// reference. withLoops forces every float64 frame onto
// the loops for the rest of the test; underLoops, while fn runs.
func withLoops(t *testing.T) {
	t.Helper()
	saved := hostLE
	hostLE = false
	t.Cleanup(func() { hostLE = saved })
}

func underLoops(fn func()) {
	defer func(saved bool) { hostLE = saved }(hostLE)
	hostLE = false
	fn()
}

// blockRowsFor is how many cols-wide rows one decode block holds.
func blockRowsFor(cols int) int { return max(1, frameBlock/(cols*8+rowHeader)) }

// specialRows fills a rows×cols matrix with normals and, cycling through
// the row-major order, the values a sloppy byte copy gets wrong: NaN
// payloads of both signs, signed zeros, subnormals and infinities.
func specialRows(rng *rand.Rand, rows, cols int) [][]float64 {
	specials := append([]float64{
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000002),
		math.Float64frombits(0x7ff0000000000003), math.Inf(1), math.Inf(-1),
	}, awkwardFloats...)
	m := randRows(rng, rows, cols)
	k := 0
	for i := range m {
		for j := range m[i] {
			if (i*cols+j)%3 == 0 {
				m[i][j] = specials[k%len(specials)]
				k++
			}
		}
	}
	return m
}

func encodeFrame(t *testing.T, m [][]float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// frameBits flattens a decoded frame into its elements' bits.
func frameBits(m [][]float64) []uint64 {
	var out []uint64
	for _, row := range m {
		for _, v := range row {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}

// TestNativeFramesMatchLoops: for rows around the decode block boundary and
// at interpret's probe size, the native path writes the loops' bytes and
// decodes the loops' bits, and a frame decodes to exactly the bits that
// were encoded.
func TestNativeFramesMatchLoops(t *testing.T) {
	if !hostLE {
		t.Skip("big-endian host: the loops are the only path")
	}
	rng := rand.New(rand.NewSource(11))
	for _, cols := range []int{1, 8, 784} {
		blk := blockRowsFor(cols)
		for _, rows := range []int{0, 1, blk - 1, blk, blk + 1, 786} {
			m := specialRows(rng, rows, cols)
			name := fmt.Sprintf("%dx%d", rows, cols)
			fast := encodeFrame(t, m)
			got, err := ReadFrame(bytes.NewReader(fast), 0)
			if err != nil {
				t.Fatalf("%s: native decode: %v", name, err)
			}
			var loop []byte
			var want [][]float64
			underLoops(func() {
				loop = encodeFrame(t, m)
				want, err = ReadFrame(bytes.NewReader(loop), 0)
			})
			if err != nil {
				t.Fatalf("%s: loop decode: %v", name, err)
			}
			if !bytes.Equal(fast, loop) {
				t.Fatalf("%s: native frame bytes differ from the loops'", name)
			}
			if len(got) != rows || len(want) != rows {
				t.Fatalf("%s: decoded %d and %d rows", name, len(got), len(want))
			}
			gb, wb := frameBits(got), frameBits(want)
			if len(gb) != len(wb) {
				t.Fatalf("%s: %d elements, loops %d", name, len(gb), len(wb))
			}
			for k := range wb {
				if gb[k] != wb[k] {
					t.Fatalf("%s: element %d decodes to %#016x, loops %#016x", name, k, gb[k], wb[k])
				}
			}
			for i := range m {
				if !bitsEqual(got[i], m[i]) {
					t.Fatalf("%s: row %d changed bits", name, i)
				}
			}
		}
	}
}

// TestFrameBodyReadSizesMatchWriteFrame: on both paths, a streamed body
// read 1, 7, row−1, row+1 and 32 KiB bytes at a time gives exactly
// WriteFrame's bytes, for frames that span several decode blocks.
func TestFrameBodyReadSizesMatchWriteFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, loops := range []bool{false, true} {
		if loops {
			withLoops(t)
		}
		for _, cols := range []int{1, 8, 784} {
			m := specialRows(rng, blockRowsFor(cols)+1, cols)
			want := encodeFrame(t, m)
			row := cols * 8
			for _, size := range []int{1, 7, max(1, row-1), row + 1, 32 << 10} {
				b, err := NewFrameBody(m)
				if err != nil {
					t.Fatal(err)
				}
				if got := readChunked(t, b, size); !bytes.Equal(got, want) {
					t.Fatalf("loops=%v %dx%d reads of %d: bytes differ from WriteFrame's", loops, len(m), cols, size)
				}
			}
		}
	}
}

// TestReadFrameTruncationNamesRow: a frame cut anywhere in its first,
// middle or last decode block fails with io.ErrUnexpectedEOF, names the row
// the cut fell in, and answers 400; on both paths.
func TestReadFrameTruncationNamesRow(t *testing.T) {
	const cols = 784
	rows := 2*blockRowsFor(cols) + 5
	m := specialRows(rand.New(rand.NewSource(13)), rows, cols)
	for _, loops := range []bool{false, true} {
		if loops {
			withLoops(t)
		}
		frame := encodeFrame(t, m)
		row := cols * 8
		blockBytes := blockRowsFor(cols) * row
		var cuts []int
		for _, start := range []int{0, blockBytes, 2 * blockBytes} {
			cuts = append(cuts, start, start+1, start+row-1, start+row, start+3*row+17)
		}
		cuts = append(cuts, rows*row-1)
		for _, cut := range cuts {
			_, err := ReadFrame(bytes.NewReader(frame[:frameHeader+cut]), 0)
			name := fmt.Sprintf("loops=%v cut at payload byte %d", loops, cut)
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%s: err = %v, want ErrUnexpectedEOF", name, err)
			}
			if want := fmt.Sprintf("payload row %d:", cut/row); !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: %q does not name %q", name, err, want)
			}
			if s := DecodeStatus(err); s != http.StatusBadRequest {
				t.Fatalf("%s: answers %d, want 400", name, s)
			}
		}
		if _, err := ReadFrame(bytes.NewReader(frame), int64(len(frame)-1)); DecodeStatus(err) != http.StatusRequestEntityTooLarge {
			t.Fatalf("loops=%v: frame one byte over budget gives %v, want 413", loops, err)
		}
	}
}

// TestReadFrameHostileHeaderCommitsOneBlock: a header that declares the
// whole default budget (floats plus a row header per row, as admission
// charges it) and then ends commits at most one decode block — floats and
// row headers together — before failing, whatever the width.
func TestReadFrameHostileHeaderCommitsOneBlock(t *testing.T) {
	const slack = 8 << 10 // the error, the limited reader
	for _, cols := range []int{1, 784} {
		rows := uint32((DefaultMaxBody - frameHeader) / (int64(cols)*8 + rowHeader))
		raw := frameBytes(frameMagic, FrameVersion, 0, [2]byte{}, rows, uint32(cols), make([]byte, 100))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadFrame(bytes.NewReader(raw), 0)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cols %d: err = %v, want ErrUnexpectedEOF", cols, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > frameBlock+slack {
			t.Fatalf("cols %d: a %d-row header with 100 payload bytes allocated %d B, want at most one %d B block", cols, rows, got, frameBlock)
		}
	}
}

// TestReadFrameRowListCost: a zero-col frame, all of whose rows arrive
// with its header, allocates its row list once; a frame with a payload
// doubles the list as blocks arrive, so the list costs at most three times
// its final size, not the fivefold of append's growth at this size.
func TestReadFrameRowListCost(t *testing.T) {
	const rows = 1 << 20
	for _, cols := range []uint32{0, 1} {
		raw := frameBytes(frameMagic, FrameVersion, 0, [2]byte{}, rows, cols, make([]byte, rows*8*int(cols)))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := ReadFrame(bytes.NewReader(raw), 0)
		runtime.ReadMemStats(&after)
		if err != nil || len(m) != rows {
			t.Fatalf("cols %d: %d rows, err %v", cols, len(m), err)
		}
		limit := uint64(rows*rowHeader + 4<<10)
		if cols > 0 {
			limit = uint64(rows*8 + 3*rows*rowHeader)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Fatalf("cols %d: a %d-row frame allocated %d B, want at most %d", cols, rows, got, limit)
		}
	}
}

// TestDecodedRowAppendStaysInRow: decoded rows share a block but are capped
// at their own length, so appending to one reallocates rather than
// overwriting its neighbour.
func TestDecodedRowAppendStaysInRow(t *testing.T) {
	for _, loops := range []bool{false, true} {
		if loops {
			withLoops(t)
		}
		m, err := ReadFrame(bytes.NewReader(encodeFrame(t, [][]float64{{1, 2}, {3, 4}, {5, 6}})), 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range m {
			if cap(row) != len(row) {
				t.Fatalf("loops=%v: row %d has cap %d, len %d", loops, i, cap(row), len(row))
			}
		}
		grown := append(m[0], 99)
		grown[0] = -1
		if m[1][0] != 3 || m[0][0] != 1 {
			t.Fatalf("loops=%v: append to row 0 wrote into the frame: %v", loops, m)
		}
	}
}
