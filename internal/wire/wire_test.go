package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// awkwardFloats are the values a lossy or sloppy codec gets wrong: negative
// zero, denormals, extreme magnitudes, and values with no short decimal
// form. NaN and the infinities are exercised separately — JSON cannot carry
// them at all.
var awkwardFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3.0,
	math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	5e-324, 2.2250738585072014e-308, // denormal boundary
	1e300, -1e-300, math.Pi, math.Nextafter(1, 2),
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestCodecsRoundTripBitIdentical(t *testing.T) {
	m := [][]float64{awkwardFloats, awkwardFloats}
	for _, codec := range []Codec{JSON{}, Binary{}} {
		var buf bytes.Buffer
		if err := codec.EncodeVec(&buf, "probs", awkwardFloats); err != nil {
			t.Fatalf("%s EncodeVec: %v", codec.Name(), err)
		}
		v, err := codec.DecodeVec(&buf, 0, "probs")
		if err != nil {
			t.Fatalf("%s DecodeVec: %v", codec.Name(), err)
		}
		if !bitsEqual(v, awkwardFloats) {
			t.Fatalf("%s vector round trip changed bits: %v != %v", codec.Name(), v, awkwardFloats)
		}
		buf.Reset()
		if err := codec.EncodeMat(&buf, "xs", m); err != nil {
			t.Fatalf("%s EncodeMat: %v", codec.Name(), err)
		}
		got, err := codec.DecodeMat(&buf, 0, "xs")
		if err != nil {
			t.Fatalf("%s DecodeMat: %v", codec.Name(), err)
		}
		if len(got) != len(m) {
			t.Fatalf("%s matrix round trip: %d rows, want %d", codec.Name(), len(got), len(m))
		}
		for i := range m {
			if !bitsEqual(got[i], m[i]) {
				t.Fatalf("%s matrix row %d changed bits", codec.Name(), i)
			}
		}
	}
}

func TestBinaryCarriesNaNAndInf(t *testing.T) {
	// The binary frame carries raw IEEE-754 bits, so the values JSON cannot
	// express survive — including a quiet NaN's exact payload bits.
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	var buf bytes.Buffer
	if err := (Binary{}).EncodeVec(&buf, "", specials); err != nil {
		t.Fatal(err)
	}
	got, err := Binary{}.DecodeVec(&buf, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(got, specials) {
		t.Fatalf("specials changed bits: %v != %v", got, specials)
	}
}

func TestJSONDecodeRejectsWrongEnvelope(t *testing.T) {
	for _, body := range []string{
		`{"x":[1],"y":[2]}`, // extra member
		`{"y":[1]}`,         // wrong member
	} {
		if _, err := (JSON{}).DecodeVec(strings.NewReader(body), 0, "x"); err == nil {
			t.Fatalf("envelope %s accepted for field x", body)
		}
	}
	// The exact field alone is fine, and null/absent mean an empty payload.
	for _, body := range []string{`{"x":[1,2]}`, `{"x":null}`, `{}`} {
		if _, err := (JSON{}).DecodeVec(strings.NewReader(body), 0, "x"); err != nil {
			t.Fatalf("envelope %s rejected: %v", body, err)
		}
	}
}

func TestDecodeVecRejectsMultiRowFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, [][]float64{{1}, {2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := (Binary{}).DecodeVec(&buf, 0, ""); err == nil {
		t.Fatal("two-row frame accepted as a vector")
	}
}

func TestWriteFrameRejectsRaggedRows(t *testing.T) {
	if err := WriteFrame(io.Discard, [][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged frame written")
	}
}

// TestReadFrameRefusesFlagBit0: the flags byte is reserved, so a frame with
// bit 0 set — the retired float32 marker — is refused as unknown flags with
// a 400, whether its payload is float32-sized or float64-sized.
func TestReadFrameRefusesFlagBit0(t *testing.T) {
	row := []float64{1.5, -0.25, 1.0 / 3.0}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, [][]float64{row}); err != nil {
		t.Fatal(err)
	}
	if want := frameHeader + 8*len(row); buf.Len() != want {
		t.Fatalf("frame is %d bytes, want %d", buf.Len(), want)
	}
	if buf.Bytes()[5] != 0 {
		t.Fatalf("WriteFrame set flags %#x", buf.Bytes()[5])
	}
	flagged := bytes.Clone(buf.Bytes())
	flagged[5] = 1
	for _, raw := range [][]byte{flagged, flagged[:frameHeader+4*len(row)]} {
		_, err := ReadFrame(bytes.NewReader(raw), 0)
		if err == nil || !strings.Contains(err.Error(), "unknown frame flags 0x1") {
			t.Fatalf("%d-byte frame with flags 1: err = %v, want unknown frame flags", len(raw), err)
		}
		if DecodeStatus(err) != http.StatusBadRequest {
			t.Fatalf("flags 1 answers %d, want 400", DecodeStatus(err))
		}
	}
}

// frameBytes builds a frame byte string with an arbitrary header.
func frameBytes(magic string, version, flags byte, reserved [2]byte, rows, cols uint32, payload []byte) []byte {
	b := make([]byte, frameHeader+len(payload))
	copy(b[:4], magic)
	b[4] = version
	b[5] = flags
	b[6], b[7] = reserved[0], reserved[1]
	binary.LittleEndian.PutUint32(b[8:], rows)
	binary.LittleEndian.PutUint32(b[12:], cols)
	copy(b[frameHeader:], payload)
	return b
}

func TestReadFrameRejectsMalformedHeaders(t *testing.T) {
	eight := make([]byte, 8)
	cases := map[string][]byte{
		"bad magic":        frameBytes("NOPE", FrameVersion, 0, [2]byte{}, 1, 1, eight),
		"bad version":      frameBytes(frameMagic, 9, 0, [2]byte{}, 1, 1, eight),
		"unknown flags":    frameBytes(frameMagic, FrameVersion, 0x80, [2]byte{}, 1, 1, eight),
		"nonzero reserved": frameBytes(frameMagic, FrameVersion, 0, [2]byte{1, 0}, 1, 1, eight),
		"truncated header": []byte(frameMagic + "\x01"),
		"truncated body":   frameBytes(frameMagic, FrameVersion, 0, [2]byte{}, 2, 3, eight),
	}
	for name, raw := range cases {
		_, err := ReadFrame(bytes.NewReader(raw), 0)
		if err == nil {
			t.Fatalf("%s accepted", name)
		}
		if errors.Is(err, ErrTooLarge) {
			t.Fatalf("%s misclassified as too large: %v", name, err)
		}
		if DecodeStatus(err) != http.StatusBadRequest {
			t.Fatalf("%s answers %d, want 400", name, DecodeStatus(err))
		}
	}
}

func TestReadFrameHostileDimsFailBeforeAllocation(t *testing.T) {
	cases := map[string][]byte{
		"huge payload":       frameBytes(frameMagic, FrameVersion, 0, [2]byte{}, math.MaxUint32, math.MaxUint32, nil),
		"zero-col huge rows": frameBytes(frameMagic, FrameVersion, 0, [2]byte{}, math.MaxUint32, 0, nil),
		"exceeds budget":     frameBytes(frameMagic, FrameVersion, 0, [2]byte{}, 1, 1000, nil),
	}
	for name, raw := range cases {
		_, err := ReadFrame(bytes.NewReader(raw), 1024)
		if !errors.Is(err, ErrTooLarge) {
			t.Fatalf("%s: err = %v, want ErrTooLarge", name, err)
		}
		if DecodeStatus(err) != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s answers %d, want 413", name, DecodeStatus(err))
		}
	}
}

// TestReadFrameChargesRowHeaders: admission charges every row its 24-byte
// header besides its floats. A 16-byte header declaring 4,194,304 zero-col
// rows (~100 MB of row headers) is refused under the 64 MiB default budget
// before anything is allocated, while frames whose floats plus headers
// just fit the budget still decode, and one byte less answers 413.
func TestReadFrameChargesRowHeaders(t *testing.T) {
	raw := frameBytes(frameMagic, FrameVersion, 0, [2]byte{}, 1<<22, 0, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(bytes.NewReader(raw), 0)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTooLarge) || DecodeStatus(err) != http.StatusRequestEntityTooLarge {
		t.Fatalf("4,194,304 zero-col rows: err = %v (status %d), want ErrTooLarge/413", err, DecodeStatus(err))
	}
	// Decoding it would take ~100 MB of row headers; a refusal allocates
	// only its error (the bound leaves room for other goroutines).
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("refused zero-col header allocated %d B", got)
	}
	for _, dims := range [][2]int{{1000, 0}, {1, 16}, {3, 784}, {1 << 12, 1}} {
		rows, cols := dims[0], dims[1]
		raw := frameBytes(frameMagic, FrameVersion, 0, [2]byte{}, uint32(rows), uint32(cols), make([]byte, rows*cols*8))
		budget := int64(frameHeader + rows*(cols*8+rowHeader))
		m, err := ReadFrame(bytes.NewReader(raw), budget)
		if err != nil || len(m) != rows {
			t.Fatalf("%dx%d frame at its exact budget: %d rows, err %v", rows, cols, len(m), err)
		}
		_, err = ReadFrame(bytes.NewReader(raw), budget-1)
		if !errors.Is(err, ErrTooLarge) || DecodeStatus(err) != http.StatusRequestEntityTooLarge {
			t.Fatalf("%dx%d frame one byte over budget: err = %v, want ErrTooLarge/413", rows, cols, err)
		}
	}
}

func TestZeroRowFrameWithHugeColsDecodesEmpty(t *testing.T) {
	// A zero-row frame carries no payload whatever its cols field claims;
	// the decoder must answer it without sizing a row buffer for it
	// (regression: this once attempted a cols×8-byte allocation).
	raw := frameBytes(frameMagic, FrameVersion, 0, [2]byte{}, 0, math.MaxUint32, nil)
	m, err := ReadFrame(bytes.NewReader(raw), 1024)
	if err != nil || len(m) != 0 {
		t.Fatalf("zero-row frame = %v rows, err %v", len(m), err)
	}
}

func TestFrameReaderStreamsUnderOneBudget(t *testing.T) {
	var buf bytes.Buffer
	frames := [][][]float64{{{1, 2}}, {{3, 4}, {5, 6}}, {}}
	for _, m := range frames {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&buf, 0)
	for i, want := range frames {
		got, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("frame %d has %d rows, want %d", i, len(got), len(want))
		}
		for r := range want {
			if !bitsEqual(got[r], want[r]) {
				t.Fatalf("frame %d row %d differs", i, r)
			}
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("stream end = %v, want io.EOF", err)
	}
	// The budget spans the whole stream: a second frame that would fit on
	// its own is refused once the first has spent the allowance (admission
	// charges a row its header besides its floats).
	buf.Reset()
	_ = WriteFrame(&buf, [][]float64{awkwardFloats})
	_ = WriteFrame(&buf, [][]float64{awkwardFloats})
	fr = NewFrameReader(&buf, int64(frameHeader+8*len(awkwardFloats)+rowHeader+frameHeader))
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := fr.Next(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("over-budget second frame = %v, want ErrTooLarge", err)
	}
}

func TestJSONBodyOverLimitAnswers413(t *testing.T) {
	big := `{"x":[` + strings.Repeat("1,", 600) + `1]}`
	_, err := (JSON{}).DecodeVec(strings.NewReader(big), 64, "x")
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if DecodeStatus(err) != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", DecodeStatus(err))
	}
	// A genuinely malformed body under the limit stays a 400.
	_, err = (JSON{}).DecodeVec(strings.NewReader(`{"x":[1,`), 64, "x")
	if err == nil || errors.Is(err, ErrTooLarge) {
		t.Fatalf("malformed body err = %v, want a non-size error", err)
	}
	if DecodeStatus(err) != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", DecodeStatus(err))
	}
}

func TestNegotiation(t *testing.T) {
	req := func(contentType, accept string) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/predict", nil)
		if contentType != "" {
			r.Header.Set("Content-Type", contentType)
		}
		if accept != "" {
			r.Header.Set("Accept", accept)
		}
		return r
	}
	cases := []struct {
		name                string
		contentType, accept string
		wantIn, wantOut     string
	}{
		{"absent headers", "", "", NameJSON, NameJSON},
		{"legacy json", ContentTypeJSON, ContentTypeJSON, NameJSON, NameJSON},
		{"binary both ways", ContentTypeBinary, ContentTypeBinary, NameBinary, NameBinary},
		{"binary in accept list", ContentTypeJSON, "text/html, " + ContentTypeBinary + ", */*", NameJSON, NameBinary},
		// A precision parameter is ignored: the answer is float64 frames.
		{"retired prec parameter", ContentTypeBinary, ContentTypeBinary + ";prec=f32", NameBinary, NameBinary},
		{"wildcard stays json", ContentTypeJSON, "*/*", NameJSON, NameJSON},
		{"garbage headers", "not/a;;;type", ";;;", NameJSON, NameJSON},
		{"charset parameter", ContentTypeJSON + "; charset=utf-8", "", NameJSON, NameJSON},
	}
	for _, tc := range cases {
		ex := NewExchange(req(tc.contentType, tc.accept), nil, 0)
		if got := ex.in.Name(); got != tc.wantIn {
			t.Fatalf("%s: request codec %s, want %s", tc.name, got, tc.wantIn)
		}
		if got := ex.out.Name(); got != tc.wantOut {
			t.Fatalf("%s: response codec %s, want %s", tc.name, got, tc.wantOut)
		}
		if got := ex.BinaryOut(); got != (tc.wantOut == NameBinary) {
			t.Fatalf("%s: BinaryOut = %v", tc.name, got)
		}
	}
}

func TestAcceptValueAndResponseBodyCodec(t *testing.T) {
	if got := AcceptValue(JSON{}); got != ContentTypeJSON {
		t.Fatalf("json accept = %q", got)
	}
	if got := AcceptValue(Binary{}); got != ContentTypeBinary {
		t.Fatalf("binary accept = %q", got)
	}
	if got := ResponseBodyCodec(ContentTypeBinary + "; prec=f32").Name(); got != NameBinary {
		t.Fatalf("frame content type decoded as %s", got)
	}
	for _, ct := range []string{"", ContentTypeJSON, "text/plain", "garbage;;;"} {
		if got := ResponseBodyCodec(ct).Name(); got != NameJSON {
			t.Fatalf("content type %q decoded as %s, want json", ct, got)
		}
	}
}

func TestStatsCountingAndNilSafety(t *testing.T) {
	// Every method must be a safe no-op on a nil receiver — unmounted
	// runners carry a nil *Stats.
	var nilStats *Stats
	nilStats.AddBytesIn(5)
	nilStats.AddBytesOut(5)
	nilStats.CountRequest(true)
	if got := nilStats.Counts(); got != (Counts{}) {
		t.Fatalf("nil stats counts = %+v", got)
	}

	var s Stats
	s.AddBytesIn(10)
	s.AddBytesIn(-3) // negative deltas ignored
	s.AddBytesOut(7)
	s.CountRequest(true)
	s.CountRequest(false)
	s.CountRequest(false)
	want := Counts{BytesIn: 10, BytesOut: 7, BinaryRequests: 1, JSONRequests: 2}
	if got := s.Counts(); got != want {
		t.Fatalf("counts = %+v, want %+v", got, want)
	}
}

func TestExchangeCountsPayloadBytes(t *testing.T) {
	var stats Stats
	body := `{"x":[1,2,3]}`
	r := httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(body))
	r.Header.Set("Content-Type", ContentTypeJSON)
	ex := NewExchange(r, &stats, 0)
	if _, err := ex.ReadVec("x"); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	ex.WriteVec(rec, "probs", []float64{0.5, 0.5})
	c := stats.Counts()
	if c.BytesIn != int64(len(body)) {
		t.Fatalf("bytes_in = %d, want %d", c.BytesIn, len(body))
	}
	if c.BytesOut != int64(rec.Body.Len()) || c.BytesOut == 0 {
		t.Fatalf("bytes_out = %d, body = %d", c.BytesOut, rec.Body.Len())
	}
	if c.JSONRequests != 1 || c.BinaryRequests != 0 {
		t.Fatalf("request split = %+v", c)
	}
}
