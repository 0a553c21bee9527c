// Package wire is the serving stack's single encode/decode seam: every
// float payload that crosses the HTTP boundary — /predict probes, /batch
// matrices, async job submissions and their streamed results — is encoded
// and decoded here, by exactly one of two codecs:
//
//   - JSON, the legacy envelope every peer understands ({"x":[...]},
//     {"xs":[[...]]}, {"probs":[...]}), and
//   - Binary, a length-prefixed little-endian float frame (see frame.go)
//     that carries the same payloads at 8 bytes per float64 instead of
//     ~18 characters.
//
// Codec choice is negotiated per request with standard HTTP content
// negotiation: the request body's codec is named by Content-Type, the
// desired response codec by Accept, and anything unrecognized falls back
// to JSON — so an old JSON-only peer on either end of the connection keeps
// working unchanged. Servers advertise `"codecs":["json","binary"]` in
// /meta; clients only switch to binary after seeing the advertisement, so
// a binary frame is never shipped to a server that cannot parse it.
//
// Decoding is bit-identical across codecs: the binary frame carries the
// exact IEEE-754 bits, and encoding/json's shortest round-trip float
// formatting restores the same bits on the JSON path. There is no lossy
// mode: the interpreter's consistency check needs exact probabilities, so
// a peer that asks for less precision still gets every bit (DESIGN.md §12).
package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
)

// Content types spoken on the wire.
const (
	// ContentTypeJSON is the legacy codec every peer understands.
	ContentTypeJSON = "application/json"
	// ContentTypeBinary is the float-frame codec.
	ContentTypeBinary = "application/x-plm-frame"
)

// Codec names, as advertised by the server's /meta "codecs" list.
const (
	NameJSON   = "json"
	NameBinary = "binary"
)

// DefaultMaxBody is the request/response body size cap applied when a
// caller passes a non-positive limit: large enough for a 4096-probe batch
// of wide inputs, small enough that a hostile frame header cannot commit
// the process to an unbounded allocation.
const DefaultMaxBody int64 = 64 << 20

// ErrTooLarge reports that the size cap — not a syntax problem — is what
// stopped a decode. Servers answer it with 413 instead of a generic 400.
var ErrTooLarge = errors.New("wire: body exceeds size limit")

// Codec encodes and decodes the dense float payloads of the serving
// protocol. field is the JSON member name the payload travels under
// ("x", "xs", "probs"); the binary codec ignores it — a frame is
// self-describing. limit bounds the bytes a decode may consume; a decode
// stopped by the cap fails with an error wrapping ErrTooLarge.
type Codec interface {
	Name() string
	ContentType() string
	EncodeVec(w io.Writer, field string, v []float64) error
	DecodeVec(r io.Reader, limit int64, field string) ([]float64, error)
	EncodeMat(w io.Writer, field string, m [][]float64) error
	DecodeMat(r io.Reader, limit int64, field string) ([][]float64, error)
}

// JSON is the legacy codec: one-field envelopes, exactly the wire format
// the server spoke before the codec layer existed.
type JSON struct{}

// Name returns "json".
func (JSON) Name() string { return NameJSON }

// ContentType returns the JSON MIME type.
func (JSON) ContentType() string { return ContentTypeJSON }

// EncodeVec writes {"<field>":[...]}.
func (JSON) EncodeVec(w io.Writer, field string, v []float64) error {
	return encodeJSONField(w, field, v)
}

// DecodeVec reads {"<field>":[...]} with unknown fields rejected.
func (JSON) DecodeVec(r io.Reader, limit int64, field string) ([]float64, error) {
	var v []float64
	if err := decodeJSONField(r, limit, field, &v); err != nil {
		return nil, err
	}
	return v, nil
}

// EncodeMat writes {"<field>":[[...],...]}.
func (JSON) EncodeMat(w io.Writer, field string, m [][]float64) error {
	if m == nil {
		m = [][]float64{}
	}
	return encodeJSONField(w, field, m)
}

// DecodeMat reads {"<field>":[[...],...]} with unknown fields rejected.
func (JSON) DecodeMat(r io.Reader, limit int64, field string) ([][]float64, error) {
	var m [][]float64
	if err := decodeJSONField(r, limit, field, &m); err != nil {
		return nil, err
	}
	return m, nil
}

// encodeJSONField writes the one-field envelope {"<field>":<v>}. The
// envelope is assembled by hand so the field name can be a runtime value
// without reflect-built struct types.
func encodeJSONField(w io.Writer, field string, v any) error {
	if _, err := fmt.Fprintf(w, "{%q:", field); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("wire: encode json %q: %w", field, err)
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	_, err = io.WriteString(w, "}\n")
	return err
}

// decodeJSONField reads a one-field envelope, rejecting envelopes carrying
// any member other than field — the same strictness DisallowUnknownFields
// used to provide, kept so a typoed request fails loudly instead of being
// silently ignored.
func decodeJSONField(r io.Reader, limit int64, field string, dst any) error {
	lr := newLimited(r, limit)
	var env map[string]json.RawMessage
	if err := json.NewDecoder(lr).Decode(&env); err != nil {
		return fmt.Errorf("wire: decode json: %w", lr.sticky(err))
	}
	raw, ok := env[field]
	if len(env) > 1 || (len(env) == 1 && !ok) {
		return fmt.Errorf("wire: json body must carry exactly the %q field", field)
	}
	if !ok || string(raw) == "null" {
		return nil
	}
	if err := json.Unmarshal(raw, dst); err != nil {
		return fmt.Errorf("wire: decode json %q: %w", field, err)
	}
	return nil
}

// DecodeJSON decodes a JSON body under the size cap. strict rejects
// unknown fields — servers decode request envelopes strictly so a typoed
// field answers 400; clients decode response envelopes tolerantly so a
// newer server may add fields without breaking them.
func DecodeJSON(r io.Reader, limit int64, dst any, strict bool) error {
	lr := newLimited(r, limit)
	dec := json.NewDecoder(lr)
	if strict {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("wire: decode json: %w", lr.sticky(err))
	}
	return nil
}

// EncodeJSON writes v as a JSON body — the client-side escape hatch for
// multi-field envelopes (the job submit request) that are JSON in every
// codec pairing.
func EncodeJSON(w io.Writer, v any) error {
	return json.NewEncoder(w).Encode(v)
}

// WriteJSON writes v as a JSON response body. Metadata and error responses
// always ride JSON, whatever codec the payloads negotiated: every peer can
// parse them, and they are too small for the binary layout to matter.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", ContentTypeJSON)
	w.WriteHeader(status)
	// Encoding errors past the header are unrecoverable; best effort.
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes the protocol's JSON error envelope.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// DecodeStatus maps a request decode error to its HTTP status: 413 when
// the size cap stopped the read, 400 for everything malformed.
func DecodeStatus(err error) int {
	if errors.Is(err, ErrTooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// AcceptValue returns the Accept header a client sends to request
// responses in codec c.
func AcceptValue(c Codec) string {
	if c.Name() == NameBinary {
		return ContentTypeBinary
	}
	return ContentTypeJSON
}

// ResponseBodyCodec returns the codec matching a response's Content-Type.
// Clients decode what the server actually sent rather than what they asked
// for, so a JSON-only peer answering a binary-hopeful request still
// interoperates.
func ResponseBodyCodec(contentType string) Codec {
	if mt, _, err := mime.ParseMediaType(contentType); err == nil && mt == ContentTypeBinary {
		return Binary{}
	}
	return JSON{}
}

// limited is an io.Reader that enforces the byte cap and remembers whether
// the cap — rather than the underlying stream — is what stopped a read, so
// decode errors can be mapped to 413 vs 400.
type limited struct {
	r   io.Reader
	n   int64 // bytes remaining under the cap
	hit bool
}

func newLimited(r io.Reader, limit int64) *limited {
	if limit <= 0 {
		limit = DefaultMaxBody
	}
	return &limited{r: r, n: limit}
}

func (l *limited) Read(p []byte) (int, error) {
	if l.n <= 0 {
		l.hit = true
		return 0, ErrTooLarge
	}
	if int64(len(p)) > l.n {
		p = p[:l.n]
	}
	n, err := l.r.Read(p)
	l.n -= int64(n)
	return n, err
}

// sticky rewrites err to ErrTooLarge when the cap is what actually stopped
// the decode (the JSON decoder surfaces the reader's error as its own).
func (l *limited) sticky(err error) error {
	if l.hit || errors.Is(err, ErrTooLarge) {
		return ErrTooLarge
	}
	return err
}
