package wire

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
)

// sentinelBits is the quiet-NaN payload recycled blocks are dirtied with:
// no frame a test sends carries it, so a decoded row showing it is a float
// the decode failed to overwrite.
const sentinelBits = 0x7ff8_dead_beef_0bad

// dirtyFreeList empties the free list, fills it to capacity with blocks
// holding nothing but sentinelBits, and restores the free list's former
// blocks when the test ends. It returns the blocks it put there.
func dirtyFreeList(tb testing.TB) [][]float64 {
	tb.Helper()
	var saved [][]float64
	for len(freeBlocks) > 0 {
		saved = append(saved, <-freeBlocks)
	}
	var dirty [][]float64
	for range cap(freeBlocks) {
		blk := make([]float64, frameBlock/8)
		for i := range blk {
			blk[i] = math.Float64frombits(sentinelBits)
		}
		dirty = append(dirty, blk)
		freeBlocks <- blk
	}
	tb.Cleanup(func() {
		for len(freeBlocks) > 0 {
			<-freeBlocks
		}
		for _, blk := range saved {
			freeBlocks <- blk
		}
	})
	return dirty
}

// TestRecycledDecodeOverwritesDirtyBlocks: a frame decoded into recycled
// blocks that still hold a sentinel NaN pattern comes back with exactly the
// sent Float64bits, each row capped at its own length, on the native path
// and the loops, for a frame of exactly one block and one of two blocks and
// a tail; and the blocks it used are the recycled ones.
func TestRecycledDecodeOverwritesDirtyBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, loops := range []bool{false, true} {
		for _, shape := range []struct{ rows, cols int }{
			{blockRowsFor(1), 1},
			{2*blockRowsFor(784) + 7, 784},
		} {
			name := fmt.Sprintf("loops=%v %dx%d", loops, shape.rows, shape.cols)
			dirty := dirtyFreeList(t)
			m := specialRows(rng, shape.rows, shape.cols)
			frame := encodeFrame(t, m)
			var own blockSet
			var got [][]float64
			var err error
			decode := func() { got, err = readFrame(newLimited(bytes.NewReader(frame), 0), &own) }
			if loops {
				underLoops(decode)
			} else {
				decode()
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, gotBits := frameBits(m), frameBits(got)
			if len(gotBits) != len(want) {
				t.Fatalf("%s: %d floats decoded, want %d", name, len(gotBits), len(want))
			}
			for i := range want {
				if gotBits[i] != want[i] {
					t.Fatalf("%s: float %d decoded as %#x, want %#x", name, i, gotBits[i], want[i])
				}
			}
			wantBlocks := (shape.rows + blockRowsFor(shape.cols) - 1) / blockRowsFor(shape.cols)
			if len(own.blocks) != wantBlocks {
				t.Fatalf("%s: decode recorded %d blocks, want %d", name, len(own.blocks), wantBlocks)
			}
			br := blockRowsFor(shape.cols)
			for i, row := range got {
				if cap(row) != len(row) {
					t.Fatalf("%s: row %d has cap %d, len %d", name, i, cap(row), len(row))
				}
				if &row[0] != &own.blocks[i/br][i%br*shape.cols] {
					t.Fatalf("%s: row %d is not at its place in its recorded block", name, i)
				}
			}
			for i, blk := range own.blocks {
				if &blk[0] != &dirty[i][0] {
					t.Fatalf("%s: block %d was not taken from the free list", name, i)
				}
			}
			own.recycle(0)
			if len(freeBlocks) != cap(freeBlocks) || len(own.blocks) != 0 {
				t.Fatalf("%s: after recycle the free list holds %d of %d blocks, the set %d", name, len(freeBlocks), cap(freeBlocks), len(own.blocks))
			}
		}
	}
}

// TestRecycledDecodeTruncatedAtEveryByte: a recycled-block frame cut at
// every byte offset fails, hands out no rows, and gives every block it
// took straight back to the free list.
func TestRecycledDecodeTruncatedAtEveryByte(t *testing.T) {
	dirtyFreeList(t)
	rows := blockRowsFor(1) // the narrowest frame that fills one block
	frame := encodeFrame(t, specialRows(rand.New(rand.NewSource(22)), rows, 1))
	var own blockSet
	for cut := range len(frame) {
		got, err := readFrame(newLimited(bytes.NewReader(frame[:cut]), 0), &own)
		if err == nil || got != nil {
			t.Fatalf("cut at byte %d: %d rows, err %v; want no rows and an error", cut, len(got), err)
		}
		if len(own.blocks) != 0 || len(freeBlocks) != cap(freeBlocks) {
			t.Fatalf("cut at byte %d: the set kept %d blocks, the free list holds %d of %d", cut, len(own.blocks), len(freeBlocks), cap(freeBlocks))
		}
	}
}

// TestRecycledDecodeSkipsSmallFrames: a frame smaller than one block, a
// zero-col frame and a frame whose single row outgrows a block are
// allocated exactly and take nothing from the free list.
func TestRecycledDecodeSkipsSmallFrames(t *testing.T) {
	for _, shape := range []struct{ rows, cols int }{
		{blockRowsFor(64) - 1, 64},
		{1000, 0},
		{2, frameBlock/8 + 1},
	} {
		dirtyFreeList(t)
		var own blockSet
		m := make([][]float64, shape.rows)
		for i := range m {
			m[i] = make([]float64, shape.cols)
		}
		got, err := readFrame(newLimited(bytes.NewReader(encodeFrame(t, m)), 0), &own)
		if err != nil || len(got) != shape.rows {
			t.Fatalf("%dx%d: %d rows, err %v", shape.rows, shape.cols, len(got), err)
		}
		if len(own.blocks) != 0 || len(freeBlocks) != cap(freeBlocks) {
			t.Fatalf("%dx%d: took %d recycled blocks", shape.rows, shape.cols, len(own.blocks))
		}
	}
}

// TestExchangeReleaseWaitsForEveryReader: ReadMatRecycled's blocks go back
// to the free list on the last Release — the handler's or a Retain's,
// whichever comes last — and not before.
func TestExchangeReleaseWaitsForEveryReader(t *testing.T) {
	dirtyFreeList(t)
	m := randRows(rand.New(rand.NewSource(23)), 2*blockRowsFor(784), 784)
	req := httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(encodeFrame(t, m)))
	req.Header.Set("Content-Type", ContentTypeBinary)
	ex := NewExchange(req, nil, 0)
	got, err := ex.ReadMatRecycled("xs")
	if err != nil || len(got) != len(m) {
		t.Fatalf("%d rows, err %v", len(got), err)
	}
	held := cap(freeBlocks) - 2
	if len(freeBlocks) != held {
		t.Fatalf("decode left %d blocks on the free list, want %d", len(freeBlocks), held)
	}
	ex.Retain()
	ex.Release()
	if len(freeBlocks) != held {
		t.Fatal("the handler's Release recycled rows a Retain still holds")
	}
	ex.Release()
	if len(freeBlocks) != cap(freeBlocks) {
		t.Fatalf("the last Release left %d of %d blocks on the free list", len(freeBlocks), cap(freeBlocks))
	}
	var none *Exchange
	none.Retain()
	none.Release()
}
