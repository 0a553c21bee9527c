package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"unsafe"
)

// Binary frame layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "PLMB"
//	4       1     version, currently 1
//	5       1     flags — bit 0: payload elements are float32
//	6       2     reserved, must be zero
//	8       4     rows (uint32)
//	12      4     cols (uint32)
//	16      …     rows·cols payload elements, row-major, little-endian
//	              IEEE-754: 8 bytes each (float64) or 4 (float32)
//
// The dims are the length prefix: a reader knows the exact payload size
// before touching it, which is what lets GET /jobs/{id} stream one frame
// per result chunk with no outer envelope — the stream ends at EOF.
// Float64 payloads carry the exact in-process bits, so the binary path is
// bit-identical to JSON (whose shortest round-trip formatting restores the
// same bits). Float32 frames are the lossy opt-in; flags bit 0 makes every
// frame self-describing, so a decoder never guesses the element width.
const (
	frameMagic   = "PLMB"
	FrameVersion = 1
	frameHeader  = 16
	flagFloat32  = 1 << 0
)

// hostLE reports whether this host stores a float64 in the frame's byte
// order, so that a float64 payload and the memory of a []float64 are the
// same bytes. Detected once; when it holds, float64 frames move between
// the socket and float memory in one copy (floatBytes), and float32 frames
// and big-endian hosts take the per-element loops. Tests clear it to drive
// the loops.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// frameBlock caps the memory a decoder commits at a time: a frame's
// payload is read in blocks of whole rows whose floats and row headers
// take at most this many bytes (one row, if a row is larger), each
// allocated only once the block before it has arrived.
const frameBlock = 256 << 10

// rowHeader is the size of a []float64 header on a 64-bit host, the cost
// of a decoded row besides its floats.
const rowHeader = 24

// floatBytes returns v's memory as bytes, without copying. On a hostLE host
// that is exactly v's float64 frame payload. The view covers v's own
// elements and nothing else, which is what the race build's checkptr
// verifies.
func floatBytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*8)
}

// native reports whether a payload of this element width moves as raw
// memory: float64 on a hostLE host.
func native(f32 bool) bool { return !f32 && hostLE }

// Binary is the float-frame codec. Float32 selects the 4-byte payload
// encoding for frames this value writes; decoding always honors the
// incoming frame's own flags.
type Binary struct {
	Float32 bool
}

// Name returns "binary".
func (Binary) Name() string { return NameBinary }

// ContentType returns the frame MIME type.
func (Binary) ContentType() string { return ContentTypeBinary }

// EncodeVec writes v as a 1×len(v) frame. The field name is JSON-only.
func (b Binary) EncodeVec(w io.Writer, _ string, v []float64) error {
	return WriteFrame(w, [][]float64{v}, b.Float32)
}

// DecodeVec reads one frame and requires it to be a single row.
func (Binary) DecodeVec(r io.Reader, limit int64, _ string) ([]float64, error) {
	m, err := ReadFrame(r, limit)
	if err != nil {
		return nil, err
	}
	if len(m) != 1 {
		return nil, fmt.Errorf("wire: frame carries %d rows, want a single vector", len(m))
	}
	return m[0], nil
}

// EncodeMat writes m as one rows×cols frame.
func (b Binary) EncodeMat(w io.Writer, _ string, m [][]float64) error {
	return WriteFrame(w, m, b.Float32)
}

// DecodeMat reads one frame as a row list.
func (Binary) DecodeMat(r io.Reader, limit int64, _ string) ([][]float64, error) {
	m, err := ReadFrame(r, limit)
	if err != nil {
		return nil, err
	}
	if m == nil {
		m = [][]float64{}
	}
	return m, nil
}

// WriteFrame writes m as one binary frame. All rows must share a width.
func WriteFrame(w io.Writer, m [][]float64, f32 bool) error {
	cols, err := frameCols(m)
	if err != nil {
		return err
	}
	hdr := frameHeaderFor(len(m), cols, f32)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var buf []byte
	if !native(f32) {
		buf = make([]byte, cols*elemSize(f32))
	}
	for _, row := range m {
		if _, err := w.Write(rowPayload(buf, row, f32)); err != nil {
			return err
		}
	}
	return nil
}

// frameCols checks that m can travel as one frame — every row the same
// width, both dims within uint32 — and returns its width.
func frameCols(m [][]float64) (int, error) {
	rows := len(m)
	cols := 0
	if rows > 0 {
		cols = len(m[0])
	}
	for i, row := range m {
		if len(row) != cols {
			return 0, fmt.Errorf("wire: ragged frame: row %d has %d cols, want %d", i, len(row), cols)
		}
	}
	if int64(rows) > math.MaxUint32 || int64(cols) > math.MaxUint32 {
		return 0, fmt.Errorf("wire: frame dims %dx%d exceed uint32", rows, cols)
	}
	return cols, nil
}

// frameHeaderFor encodes the 16-byte header of a rows×cols frame.
func frameHeaderFor(rows, cols int, f32 bool) [frameHeader]byte {
	var hdr [frameHeader]byte
	copy(hdr[:4], frameMagic)
	hdr[4] = FrameVersion
	if f32 {
		hdr[5] = flagFloat32
	}
	binary.LittleEndian.PutUint32(hdr[8:], uint32(rows))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(cols))
	return hdr
}

// elemSize is the payload bytes per element.
func elemSize(f32 bool) int {
	if f32 {
		return 4
	}
	return 8
}

// rowPayload returns row's payload bytes: the row's own memory on the
// native path, else row encoded into buf, which holds exactly
// len(row)·elemSize(f32) bytes.
func rowPayload(buf []byte, row []float64, f32 bool) []byte {
	if native(f32) {
		return floatBytes(row)
	}
	encodeRow(buf, row, f32)
	return buf
}

// encodeRow writes row's payload into dst, which holds exactly
// len(row)·elemSize(f32) bytes, one element at a time.
func encodeRow(dst []byte, row []float64, f32 bool) {
	if f32 {
		for j, v := range row {
			binary.LittleEndian.PutUint32(dst[4*j:], math.Float32bits(float32(v)))
		}
		return
	}
	for j, v := range row {
		binary.LittleEndian.PutUint64(dst[8*j:], math.Float64bits(v))
	}
}

// errBodyClosed is what a Read on a closed FrameBody returns.
var errBodyClosed = errors.New("wire: read on closed frame body")

// FrameBody streams the frame WriteFrame would write, as an io.ReadCloser
// that takes each row's bytes only when a Read reaches it — on the native
// path straight from the row's memory — so the frame is never staged in
// memory. It is the request body of a binary matrix POST.
//
// Lifetime: the body reads the caller's rows in place, so they must not
// change until Close. Close may come from any goroutine — an HTTP
// transport closes a request body on its own schedule, possibly after the
// response has arrived — and once it returns the body never touches the
// rows again. Closed lets the rows' owner wait for that moment.
type FrameBody struct {
	mu      sync.Mutex
	m       [][]float64 // nil once closed
	f32     bool
	size    int64
	hdr     [frameHeader]byte
	pending []byte // payload bytes not yet read: the header or a row's tail
	rowBuf  []byte // one encoded row, off the native path
	next    int    // next row to send
	closed  chan struct{}
}

// NewFrameBody builds a streamed body for m. A matrix that cannot travel
// as one frame (ragged rows, dims past uint32) is rejected here, before
// any byte is read.
func NewFrameBody(m [][]float64, f32 bool) (*FrameBody, error) {
	cols, err := frameCols(m)
	if err != nil {
		return nil, err
	}
	b := &FrameBody{
		m:      m,
		f32:    f32,
		size:   frameHeader + int64(len(m))*int64(cols)*int64(elemSize(f32)),
		hdr:    frameHeaderFor(len(m), cols, f32),
		closed: make(chan struct{}),
	}
	if !native(f32) {
		b.rowBuf = make([]byte, cols*elemSize(f32))
	}
	b.pending = b.hdr[:]
	return b, nil
}

// Len returns the exact frame size in bytes: the request's Content-Length.
func (b *FrameBody) Len() int64 { return b.size }

// Read implements io.Reader.
func (b *FrameBody) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.isClosed() {
		return 0, errBodyClosed
	}
	if len(p) == 0 {
		return 0, nil
	}
	n := 0
	for len(p) > 0 {
		if len(b.pending) == 0 {
			if b.next == len(b.m) {
				break
			}
			b.pending = rowPayload(b.rowBuf, b.m[b.next], b.f32)
			b.next++
		}
		k := copy(p, b.pending)
		b.pending, p, n = b.pending[k:], p[k:], n+k
	}
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}

// Close ends the body's use of the rows; later Reads fail with
// errBodyClosed. It is idempotent.
func (b *FrameBody) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.isClosed() {
		b.m, b.pending = nil, nil
		close(b.closed)
	}
	return nil
}

// Closed returns a channel that is closed once Close has run.
func (b *FrameBody) Closed() <-chan struct{} { return b.closed }

func (b *FrameBody) isClosed() bool {
	select {
	case <-b.closed:
		return true
	default:
		return false
	}
}

// ReadFrame reads one binary frame, spending at most limit bytes
// (non-positive: DefaultMaxBody). A frame whose declared payload plus
// rowHeader bytes per row exceeds the remaining budget fails with
// ErrTooLarge before any payload allocation, so a hostile 16-byte header
// cannot commit the process to gigabytes, of floats or of row headers.
// io.EOF is returned unwrapped when the reader is exhausted before the
// first header byte — the end-of-stream marker frame readers rely on; a
// header or payload cut off anywhere later is malformed.
func ReadFrame(r io.Reader, limit int64) ([][]float64, error) {
	lr := newLimited(r, limit)
	return readFrame(lr)
}

// FrameReader reads a sequence of frames off one stream, sharing a single
// byte budget across all of them — the GET /jobs/{id} result stream.
type FrameReader struct {
	lr *limited
}

// NewFrameReader builds a reader with the given total byte budget
// (non-positive: DefaultMaxBody).
func NewFrameReader(r io.Reader, limit int64) *FrameReader {
	return &FrameReader{lr: newLimited(r, limit)}
}

// Next returns the next frame, or io.EOF at a clean end of stream.
func (f *FrameReader) Next() ([][]float64, error) {
	return readFrame(f.lr)
}

func readFrame(lr *limited) ([][]float64, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(lr, hdr[:1]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: read frame header: %w", lr.sticky(err))
	}
	if _, err := io.ReadFull(lr, hdr[1:]); err != nil {
		return nil, fmt.Errorf("wire: read frame header: %w", lr.sticky(noEOF(err)))
	}
	if string(hdr[:4]) != frameMagic {
		return nil, fmt.Errorf("wire: bad frame magic % x", hdr[:4])
	}
	if hdr[4] != FrameVersion {
		return nil, fmt.Errorf("wire: unsupported frame version %d", hdr[4])
	}
	if hdr[5]&^byte(flagFloat32) != 0 {
		return nil, fmt.Errorf("wire: unknown frame flags %#x", hdr[5])
	}
	if hdr[6] != 0 || hdr[7] != 0 {
		return nil, fmt.Errorf("wire: nonzero reserved frame bytes")
	}
	f32 := hdr[5]&flagFloat32 != 0
	rows := int64(binary.LittleEndian.Uint32(hdr[8:]))
	cols := int64(binary.LittleEndian.Uint32(hdr[12:]))
	elem := int64(elemSize(f32))
	// Admission control before any allocation: the declared payload plus
	// a row header per row — what the decoded rows cost besides their
	// floats, so a zero-col frame cannot claim four billion rows for free
	// — must fit the remaining budget.
	perRow := cols*elem + rowHeader
	if rows == 0 {
		// No payload follows; return before sizing the row buffer — a
		// zero-row frame may still declare a huge cols.
		return [][]float64{}, nil
	}
	if perRow > math.MaxInt64/rows || rows*perRow > lr.n {
		return nil, fmt.Errorf("wire: frame declares %dx%d payload: %w", rows, cols, ErrTooLarge)
	}
	// The payload arrives in blocks of whole rows. Each block's floats are
	// allocated only once the block before has arrived, and the row list
	// starts at one block's rows, so a header that declares the whole
	// budget and then stops commits at most one block. Rows are capped
	// sub-slices of their block: an append to one row reallocates instead
	// of writing into the next.
	blockRows := rows // a zero-col frame's rows all arrive with its header
	if cols > 0 {
		blockRows = max(1, frameBlock/(cols*8+rowHeader))
	}
	c, rowBytes := int(cols), int(cols*elem)
	out := make([][]float64, 0, min(rows, blockRows))
	var raw []byte // the block's bytes, off the native path
	for int64(len(out)) < rows {
		n := int(min(blockRows, rows-int64(len(out))))
		if len(out)+n > cap(out) {
			// Room for every row up front would let the header alone
			// commit it; double the row list as rows arrive instead.
			grown := make([][]float64, len(out), min(rows, int64(max(2*cap(out), len(out)+n))))
			copy(grown, out)
			out = grown
		}
		blk := make([]float64, n*c)
		buf := floatBytes(blk)
		if !native(f32) {
			if raw == nil {
				raw = make([]byte, n*rowBytes)
			}
			buf = raw[:n*rowBytes]
		}
		if k, err := io.ReadFull(lr, buf); err != nil {
			return nil, fmt.Errorf("wire: read frame payload row %d: %w", len(out)+k/rowBytes, lr.sticky(noEOF(err)))
		}
		if !native(f32) {
			decodeFloats(blk, buf, f32)
		}
		for i := range n {
			out = append(out, blk[i*c:(i+1)*c:(i+1)*c])
		}
	}
	return out, nil
}

// decodeFloats decodes src, the payload of len(dst) elements, into dst one
// element at a time.
func decodeFloats(dst []float64, src []byte, f32 bool) {
	if f32 {
		for j := range dst {
			dst[j] = float64(math.Float32frombits(binary.LittleEndian.Uint32(src[4*j:])))
		}
		return
	}
	for j := range dst {
		dst[j] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*j:]))
	}
}

// noEOF converts a bare io.EOF into io.ErrUnexpectedEOF: past the first
// header byte, running out of input is a truncated frame, not a clean end
// of stream.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
