// Package atlas is the disk-backed region store: an append-log + index of
// composed closed-form region models keyed by PatternKey, shared across
// restarts and replicas. It turns exact interpretation from a compute
// service into a data service — once a region's (W_eff, b_eff) has been
// composed anywhere in the fleet, every later request is a checksummed
// pread instead of a GEMM chain.
//
// On-disk layout (all integers little-endian):
//
//	file   = header record*
//	header = "PLMA" version:u8 reserved:u8[3]          (8 bytes)
//	record = "PLMR" bodyLen:u32 crc:u32 body           (12-byte prefix)
//	body   = keyLen:u16 key PLMB(W) PLMB(B as one row)
//
// The float payloads ride the PR 7 wire framing (internal/wire "PLMB"
// frames, raw Float64bits), so a read-back is bit-identical to the
// composition that produced it. crc is CRC-32 (IEEE) over the whole body.
//
// Crash story: records are appended atomically from the reader's point of
// view only up to the last fsync, so Open rescans the log. A short or
// unframed tail (torn write) is truncated; a mid-file record whose checksum
// fails is quarantined — skipped, counted, never served — rather than
// fatal. The index (key → offset) is rebuilt on Open without decoding any
// floats, so reopening a large atlas costs one sequential read.
//
// Concurrency: one writer at a time appends under the write lock; any
// number of readers resolve offsets under the read lock and then pread
// concurrently (os.File.ReadAt is goroutine-safe).
package atlas

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/mat"
	"repro/internal/plm"
	"repro/internal/wire"
)

const (
	fileMagic   = "PLMA"
	fileVersion = 1
	headerLen   = 8

	recordMagic  = "PLMR"
	recordPrefix = 12 // magic + bodyLen + crc

	// maxBody bounds a single record body. The largest closed form in this
	// repository is a few MB; a declared length beyond this is framing
	// garbage, not data.
	maxBody = 1 << 30
)

// recordRef locates one committed record's body in the log.
type recordRef struct {
	off int64 // body offset
	n   int32 // body length
	crc uint32
}

// Atlas is the open store. Create with Open; it implements the
// openbox.RegionStore contract structurally (Lookup/Insert/Stats/Len).
type Atlas struct {
	f *os.File

	mu    sync.RWMutex
	index map[string]recordRef
	size  int64 // committed file length (header + whole records)

	hits        atomic.Int64
	misses      atomic.Int64
	quarantined atomic.Int64
	torn        atomic.Int64 // bytes truncated from the tail at Open
}

// Open opens (creating if absent) the atlas at path and rebuilds the key
// index from the log. A torn tail is truncated in place; records with
// checksum mismatches are quarantined and not indexed.
func Open(path string) (*Atlas, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("atlas: open %s: %w", path, err)
	}
	a := &Atlas{f: f, index: make(map[string]recordRef)}
	if err := a.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return a, nil
}

// recover validates the header, scans the log to rebuild the index, and
// truncates any torn tail so later appends start on a clean boundary.
func (a *Atlas) recover() error {
	fi, err := a.f.Stat()
	if err != nil {
		return fmt.Errorf("atlas: stat: %w", err)
	}
	end := fi.Size()
	if end < headerLen {
		// Empty or a header torn mid-write: start the log fresh.
		if end > 0 {
			a.torn.Add(end)
		}
		return a.reset()
	}
	var hdr [headerLen]byte
	if _, err := a.f.ReadAt(hdr[:], 0); err != nil {
		return fmt.Errorf("atlas: read header: %w", err)
	}
	if string(hdr[:4]) != fileMagic {
		// Never clobber a file that was not ours to begin with.
		return fmt.Errorf("atlas: bad magic % x: not an atlas file", hdr[:4])
	}
	if hdr[4] != fileVersion {
		return fmt.Errorf("atlas: unsupported version %d", hdr[4])
	}

	r := io.NewSectionReader(a.f, headerLen, end-headerLen)
	br := &countReader{r: r}
	off := int64(headerLen)
	for {
		key, ref, err := scanRecord(br, off)
		if err == io.EOF {
			break
		}
		if err == errTorn {
			a.torn.Add(end - off)
			break
		}
		if err == errQuarantine {
			a.quarantined.Add(1)
			off = headerLen + br.n
			continue
		}
		if err != nil {
			return err
		}
		a.index[key] = ref
		off = headerLen + br.n
	}
	a.size = off
	if off < end {
		if err := a.f.Truncate(off); err != nil {
			return fmt.Errorf("atlas: truncate torn tail: %w", err)
		}
	}
	return nil
}

// reset truncates the file to a fresh header.
func (a *Atlas) reset() error {
	if err := a.f.Truncate(0); err != nil {
		return fmt.Errorf("atlas: truncate: %w", err)
	}
	var hdr [headerLen]byte
	copy(hdr[:4], fileMagic)
	hdr[4] = fileVersion
	if _, err := a.f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("atlas: write header: %w", err)
	}
	a.size = headerLen
	return nil
}

var (
	errTorn       = fmt.Errorf("atlas: torn record")
	errQuarantine = fmt.Errorf("atlas: checksum mismatch")
)

// countReader tracks how many bytes have been consumed from r.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// scanRecord reads one record starting at the reader's position (whose file
// offset is off) and returns its key and ref without decoding floats.
// io.EOF means a clean end of log; errTorn means the tail from off on is
// not a whole well-framed record; errQuarantine means the framing was
// intact but the checksum failed (the reader is positioned past the body).
func scanRecord(r *countReader, off int64) (string, recordRef, error) {
	var prefix [recordPrefix]byte
	if _, err := io.ReadFull(r, prefix[:1]); err != nil {
		if err == io.EOF {
			return "", recordRef{}, io.EOF
		}
		return "", recordRef{}, errTorn
	}
	if _, err := io.ReadFull(r, prefix[1:]); err != nil {
		return "", recordRef{}, errTorn
	}
	if string(prefix[:4]) != recordMagic {
		return "", recordRef{}, errTorn
	}
	bodyLen := binary.LittleEndian.Uint32(prefix[4:])
	crc := binary.LittleEndian.Uint32(prefix[8:])
	if bodyLen > maxBody {
		return "", recordRef{}, errTorn
	}
	body := make([]byte, bodyLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return "", recordRef{}, errTorn
	}
	if crc32.ChecksumIEEE(body) != crc {
		return "", recordRef{}, errQuarantine
	}
	key, err := bodyKey(body)
	if err != nil {
		return "", recordRef{}, errQuarantine
	}
	return key, recordRef{off: off + recordPrefix, n: int32(bodyLen), crc: crc}, nil
}

// bodyKey parses just the key prefix of a record body.
func bodyKey(body []byte) (string, error) {
	if len(body) < 2 {
		return "", fmt.Errorf("atlas: body too short for key length")
	}
	kl := int(binary.LittleEndian.Uint16(body))
	if kl == 0 || len(body) < 2+kl {
		return "", fmt.Errorf("atlas: key length %d exceeds body", kl)
	}
	return string(body[2 : 2+kl]), nil
}

// encodeBody serializes a closed form as one record body.
func encodeBody(key string, lin *plm.Linear) ([]byte, error) {
	if len(key) == 0 || len(key) > 1<<16-1 {
		return nil, fmt.Errorf("atlas: key length %d out of range", len(key))
	}
	var buf bytes.Buffer
	var kl [2]byte
	binary.LittleEndian.PutUint16(kl[:], uint16(len(key)))
	buf.Write(kl[:])
	buf.WriteString(key)
	rows := make([][]float64, lin.W.Rows())
	for i := range rows {
		rows[i] = lin.W.RawRow(i)
	}
	if err := wire.WriteFrame(&buf, rows); err != nil {
		return nil, fmt.Errorf("atlas: encode W: %w", err)
	}
	if err := wire.WriteFrame(&buf, [][]float64{lin.B}); err != nil {
		return nil, fmt.Errorf("atlas: encode B: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeBody parses a record body back into the closed form. The read-back
// is bit-identical: payloads are raw Float64bits through the wire framing.
func decodeBody(body []byte) (string, *plm.Linear, error) {
	key, err := bodyKey(body)
	if err != nil {
		return "", nil, err
	}
	rest := body[2+len(key):]
	// The frame reader's admission charges each row a 24-byte header on
	// top of its floats; every W and B row holds at least one 8-byte
	// float, so four times the record's bytes admits any frame it holds.
	fr := wire.NewFrameReader(bytes.NewReader(rest), 4*int64(len(rest))+1)
	wRows, err := fr.Next()
	if err != nil {
		return "", nil, fmt.Errorf("atlas: decode W: %w", err)
	}
	bRows, err := fr.Next()
	if err != nil {
		return "", nil, fmt.Errorf("atlas: decode B: %w", err)
	}
	if len(bRows) != 1 {
		return "", nil, fmt.Errorf("atlas: bias frame has %d rows, want 1", len(bRows))
	}
	vecs := make([]mat.Vec, len(wRows))
	for i, r := range wRows {
		vecs[i] = mat.Vec(r)
	}
	lin, err := plm.NewLinear(mat.FromRows(vecs...), mat.Vec(bRows[0]), key)
	if err != nil {
		return "", nil, fmt.Errorf("atlas: rebuild closed form: %w", err)
	}
	return key, lin, nil
}

// Lookup returns the stored closed form under key, decoded fresh from disk
// and verified against the record checksum. A record that fails its
// checksum at read time is quarantined (dropped from the index, counted)
// and reported as a miss rather than served corrupt.
func (a *Atlas) Lookup(key string) (*plm.Linear, bool) {
	a.mu.RLock()
	ref, ok := a.index[key]
	a.mu.RUnlock()
	if !ok {
		a.misses.Add(1)
		return nil, false
	}
	body := make([]byte, ref.n)
	if _, err := a.f.ReadAt(body, ref.off); err != nil {
		a.quarantine(key)
		return nil, false
	}
	if crc32.ChecksumIEEE(body) != ref.crc {
		a.quarantine(key)
		return nil, false
	}
	gotKey, lin, err := decodeBody(body)
	if err != nil || gotKey != key {
		a.quarantine(key)
		return nil, false
	}
	a.hits.Add(1)
	return lin, true
}

// quarantine drops a key whose record failed verification at read time.
func (a *Atlas) quarantine(key string) {
	a.mu.Lock()
	_, present := a.index[key]
	delete(a.index, key)
	a.mu.Unlock()
	if present {
		a.quarantined.Add(1)
	}
	a.misses.Add(1)
}

// Insert appends the closed form under key and returns the retained value.
// A key already present is left alone: two composes of the same PatternKey
// are bit-identical by construction, so the argument stands in for the
// incumbent without a disk read.
func (a *Atlas) Insert(key string, lin *plm.Linear) *plm.Linear {
	body, err := encodeBody(key, lin)
	if err != nil {
		// An unencodable record (empty key, ragged matrix) cannot be
		// persisted; serve the in-RAM value and move on.
		return lin
	}
	rec := make([]byte, recordPrefix+len(body))
	copy(rec[:4], recordMagic)
	binary.LittleEndian.PutUint32(rec[4:], uint32(len(body)))
	binary.LittleEndian.PutUint32(rec[8:], crc32.ChecksumIEEE(body))
	copy(rec[recordPrefix:], body)

	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.index[key]; ok {
		return lin
	}
	if _, err := a.f.WriteAt(rec, a.size); err != nil {
		// Append failed (disk full, closed file): the store degrades to a
		// pass-through; the caller still has the composed value.
		return lin
	}
	a.index[key] = recordRef{
		off: a.size + recordPrefix,
		n:   int32(len(body)),
		crc: binary.LittleEndian.Uint32(rec[8:]),
	}
	a.size += int64(len(rec))
	return lin
}

// Stats reports the unified store accounting: Size is indexed regions,
// Bytes the committed log length. The atlas never evicts.
func (a *Atlas) Stats() plm.StoreStats {
	a.mu.RLock()
	size, bytes := len(a.index), a.size
	a.mu.RUnlock()
	return plm.StoreStats{
		Hits:   a.hits.Load(),
		Misses: a.misses.Load(),
		Size:   size,
		Bytes:  bytes,
	}
}

// Len returns the number of indexed regions.
func (a *Atlas) Len() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.index)
}

// Quarantined returns how many records have been quarantined (at Open or at
// read time) since this handle opened.
func (a *Atlas) Quarantined() int64 { return a.quarantined.Load() }

// TornBytes returns how many bytes of torn tail Open truncated.
func (a *Atlas) TornBytes() int64 { return a.torn.Load() }

// Keys returns the indexed region keys in unspecified order.
func (a *Atlas) Keys() []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]string, 0, len(a.index))
	for k := range a.index {
		out = append(out, k) //plmvet:allow(detfloat) keys are sorted below before any ordered use
	}
	sort.Strings(out)
	return out
}

// Sync flushes appended records to stable storage.
func (a *Atlas) Sync() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.f.Sync()
}

// Close syncs and closes the log.
func (a *Atlas) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.f.Sync(); err != nil {
		a.f.Close()
		return err
	}
	return a.f.Close()
}

// WriteSnapshot streams the committed log — itself a valid atlas file — to
// w. Concurrent appends after the snapshot point are simply not included;
// the bytes [0, size) are immutable once committed.
func (a *Atlas) WriteSnapshot(w io.Writer) (int64, error) {
	a.mu.RLock()
	size := a.size
	a.mu.RUnlock()
	return io.Copy(w, io.NewSectionReader(a.f, 0, size))
}

// Ingest merges a snapshot stream (as produced by WriteSnapshot) into this
// atlas, appending records whose keys are not yet indexed and skipping the
// rest — so re-pulling a snapshot is idempotent. Records failing their
// checksum are quarantined as at Open. Returns the number of regions added.
func (a *Atlas) Ingest(r io.Reader) (int, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("atlas: ingest header: %w", err)
	}
	if string(hdr[:4]) != fileMagic || hdr[4] != fileVersion {
		return 0, fmt.Errorf("atlas: ingest: not an atlas snapshot")
	}
	added := 0
	br := &countReader{r: r}
	for {
		var prefix [recordPrefix]byte
		if _, err := io.ReadFull(br, prefix[:]); err != nil {
			if err == io.EOF {
				return added, nil
			}
			return added, fmt.Errorf("atlas: ingest record prefix: %w", err)
		}
		if string(prefix[:4]) != recordMagic {
			return added, fmt.Errorf("atlas: ingest: bad record magic % x", prefix[:4])
		}
		bodyLen := binary.LittleEndian.Uint32(prefix[4:])
		if bodyLen > maxBody {
			return added, fmt.Errorf("atlas: ingest: record body %d too large", bodyLen)
		}
		body := make([]byte, bodyLen)
		if _, err := io.ReadFull(br, body); err != nil {
			return added, fmt.Errorf("atlas: ingest record body: %w", err)
		}
		crc := binary.LittleEndian.Uint32(prefix[8:])
		if crc32.ChecksumIEEE(body) != crc {
			a.quarantined.Add(1)
			continue
		}
		key, err := bodyKey(body)
		if err != nil {
			a.quarantined.Add(1)
			continue
		}

		rec := make([]byte, recordPrefix+len(body))
		copy(rec, prefix[:])
		copy(rec[recordPrefix:], body)
		ok, err := a.ingestRecord(key, rec, bodyLen, crc)
		if err != nil {
			return added, err
		}
		if ok {
			added++
		}
	}
}

// ingestRecord appends one verified snapshot record unless its key is
// already indexed. Reports whether the record was added.
func (a *Atlas) ingestRecord(key string, rec []byte, bodyLen, crc uint32) (bool, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.index[key]; ok {
		return false, nil
	}
	if _, err := a.f.WriteAt(rec, a.size); err != nil {
		return false, fmt.Errorf("atlas: ingest append: %w", err)
	}
	a.index[key] = recordRef{off: a.size + recordPrefix, n: int32(bodyLen), crc: crc}
	a.size += int64(len(rec))
	return true, nil
}
