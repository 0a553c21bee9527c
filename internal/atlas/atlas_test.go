package atlas_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/atlas"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/openbox"
	"repro/internal/plm"
)

// The atlas must satisfy the redesigned store contract.
var _ openbox.RegionStore = (*atlas.Atlas)(nil)

func testNet(seed int64, sizes ...int) *nn.Network {
	return nn.New(rand.New(rand.NewSource(seed)), sizes...)
}

// distinctRegions extracts up to want distinct closed forms from random
// instances of net.
func distinctRegions(t *testing.T, net *nn.Network, want int) []*plm.Linear {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	seen := make(map[string]bool)
	var out []*plm.Linear
	for tries := 0; len(out) < want && tries < want*50; tries++ {
		x := make(mat.Vec, net.InputDim())
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		lin, err := openbox.Extract(net, x)
		if err != nil {
			t.Fatalf("extract: %v", err)
		}
		if seen[lin.Key] {
			continue
		}
		seen[lin.Key] = true
		out = append(out, lin)
	}
	if len(out) < want {
		t.Fatalf("only found %d distinct regions, want %d", len(out), want)
	}
	return out
}

func sameBits(a, b *plm.Linear) bool {
	if a.W.Rows() != b.W.Rows() || a.W.Cols() != b.W.Cols() || len(a.B) != len(b.B) {
		return false
	}
	for r := 0; r < a.W.Rows(); r++ {
		ra, rb := a.W.RawRow(r), b.W.RawRow(r)
		for j := range ra {
			if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
				return false
			}
		}
	}
	for j := range a.B {
		if math.Float64bits(a.B[j]) != math.Float64bits(b.B[j]) {
			return false
		}
	}
	return true
}

func TestReopenBitIdentity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "regions.atlas")
	net := testNet(3, 6, 12, 10, 4)
	regions := distinctRegions(t, net, 8)

	a, err := atlas.Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for _, lin := range regions {
		a.Insert(lin.Key, lin)
	}
	if a.Len() != len(regions) {
		t.Fatalf("Len = %d, want %d", a.Len(), len(regions))
	}
	// Lookup through the live handle round-trips through disk already.
	for _, lin := range regions {
		got, ok := a.Lookup(lin.Key)
		if !ok {
			t.Fatalf("live lookup miss for %s", lin.Key)
		}
		if !sameBits(got, lin) {
			t.Fatalf("live lookup not bit-identical for %s", lin.Key)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	b, err := atlas.Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer b.Close()
	if b.Len() != len(regions) {
		t.Fatalf("reopened Len = %d, want %d", b.Len(), len(regions))
	}
	if b.TornBytes() != 0 || b.Quarantined() != 0 {
		t.Fatalf("clean reopen reported torn=%d quarantined=%d", b.TornBytes(), b.Quarantined())
	}
	for _, lin := range regions {
		got, ok := b.Lookup(lin.Key)
		if !ok {
			t.Fatalf("reopened lookup miss for %s", lin.Key)
		}
		if !sameBits(got, lin) {
			t.Fatalf("reopened lookup not bit-identical for %s", lin.Key)
		}
		if got.Key != lin.Key {
			t.Fatalf("key mangled: %q vs %q", got.Key, lin.Key)
		}
	}
	st := b.Stats()
	if st.Size != len(regions) || st.Hits != int64(len(regions)) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDuplicateInsertKeepsOneRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "regions.atlas")
	net := testNet(5, 5, 8, 3)
	regions := distinctRegions(t, net, 2)

	a, err := atlas.Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer a.Close()
	a.Insert(regions[0].Key, regions[0])
	before := a.Stats().Bytes
	a.Insert(regions[0].Key, regions[0])
	if got := a.Stats().Bytes; got != before {
		t.Fatalf("duplicate insert grew log: %d -> %d", before, got)
	}
	if a.Len() != 1 {
		t.Fatalf("Len = %d, want 1", a.Len())
	}
}

// TestTornTailTruncated simulates a crash mid-append: a valid log followed
// by a partial record must reopen with the committed records intact and the
// torn bytes dropped, and the next insert must land cleanly.
func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "regions.atlas")
	net := testNet(11, 6, 10, 8, 3)
	regions := distinctRegions(t, net, 5)

	a, err := atlas.Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for _, lin := range regions[:4] {
		a.Insert(lin.Key, lin)
	}
	a.Close()

	// Tear the tail three ways: a few garbage bytes, a record prefix cut
	// mid-header, and a full prefix whose body never arrived.
	tails := [][]byte{
		{0xde, 0xad, 0xbe},
		[]byte("PLMR\x10"),
		append([]byte("PLMR"), 0x40, 0, 0, 0, 1, 2, 3, 4, 0xaa, 0xbb),
	}
	for i, tail := range tails {
		t.Run(fmt.Sprintf("tail%d", i), func(t *testing.T) {
			clean, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			torn := filepath.Join(t.TempDir(), "torn.atlas")
			if err := os.WriteFile(torn, append(append([]byte{}, clean...), tail...), 0o644); err != nil {
				t.Fatalf("write: %v", err)
			}
			b, err := atlas.Open(torn)
			if err != nil {
				t.Fatalf("reopen torn: %v", err)
			}
			defer b.Close()
			if b.TornBytes() != int64(len(tail)) {
				t.Fatalf("TornBytes = %d, want %d", b.TornBytes(), len(tail))
			}
			if b.Len() != 4 {
				t.Fatalf("Len = %d, want 4", b.Len())
			}
			for _, lin := range regions[:4] {
				got, ok := b.Lookup(lin.Key)
				if !ok || !sameBits(got, lin) {
					t.Fatalf("committed record lost after torn-tail recovery: %s", lin.Key)
				}
			}
			// The truncated log must accept appends on a clean boundary.
			b.Insert(regions[4].Key, regions[4])
			b.Close()
			c, err := atlas.Open(torn)
			if err != nil {
				t.Fatalf("reopen after append: %v", err)
			}
			defer c.Close()
			if c.Len() != 5 || c.TornBytes() != 0 {
				t.Fatalf("post-append reopen: len=%d torn=%d", c.Len(), c.TornBytes())
			}
		})
	}
}

// TestCorruptChecksumQuarantined flips a byte inside an early record's
// body: reopen must quarantine that record only, keep serving the rest,
// and not fail.
func TestCorruptChecksumQuarantined(t *testing.T) {
	path := filepath.Join(t.TempDir(), "regions.atlas")
	net := testNet(13, 6, 10, 8, 3)
	regions := distinctRegions(t, net, 4)

	a, err := atlas.Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for _, lin := range regions {
		a.Insert(lin.Key, lin)
	}
	a.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	// First record body starts at fileHeader(8) + recordPrefix(12) +
	// keyLen field(2); flip a byte well inside the float payload.
	raw[8+12+2+40] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}

	b, err := atlas.Open(path)
	if err != nil {
		t.Fatalf("reopen with corrupt record: %v", err)
	}
	defer b.Close()
	if b.Quarantined() != 1 {
		t.Fatalf("Quarantined = %d, want 1", b.Quarantined())
	}
	if b.Len() != len(regions)-1 {
		t.Fatalf("Len = %d, want %d", b.Len(), len(regions)-1)
	}
	if _, ok := b.Lookup(regions[0].Key); ok {
		t.Fatalf("corrupt record served")
	}
	for _, lin := range regions[1:] {
		got, ok := b.Lookup(lin.Key)
		if !ok || !sameBits(got, lin) {
			t.Fatalf("record after quarantined one lost: %s", lin.Key)
		}
	}
}

// TestReadTimeCorruptionQuarantined corrupts a record after the index was
// built: Lookup must detect the checksum mismatch, quarantine, and miss.
func TestReadTimeCorruptionQuarantined(t *testing.T) {
	path := filepath.Join(t.TempDir(), "regions.atlas")
	net := testNet(17, 5, 8, 3)
	regions := distinctRegions(t, net, 2)

	a, err := atlas.Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer a.Close()
	a.Insert(regions[0].Key, regions[0])
	a.Insert(regions[1].Key, regions[1])

	// Corrupt the first record's payload on disk behind the live handle.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("open raw: %v", err)
	}
	if _, err := f.WriteAt([]byte{0x5a}, 8+12+2+50); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	f.Close()

	if _, ok := a.Lookup(regions[0].Key); ok {
		t.Fatalf("corrupted record served from live handle")
	}
	if a.Quarantined() != 1 {
		t.Fatalf("Quarantined = %d, want 1", a.Quarantined())
	}
	// Second miss on the same key is a plain miss, not a second quarantine.
	if _, ok := a.Lookup(regions[0].Key); ok {
		t.Fatalf("quarantined key resurfaced")
	}
	if a.Quarantined() != 1 {
		t.Fatalf("Quarantined double-counted: %d", a.Quarantined())
	}
	if got, ok := a.Lookup(regions[1].Key); !ok || !sameBits(got, regions[1]) {
		t.Fatalf("untouched record lost")
	}
}

func TestOpenRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notatlas")
	if err := os.WriteFile(path, []byte("definitely not an atlas file"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := atlas.Open(path); err == nil {
		t.Fatalf("Open clobbered a foreign file")
	}
}

func TestSnapshotIngestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	net := testNet(19, 6, 10, 8, 3)
	regions := distinctRegions(t, net, 6)

	src, err := atlas.Open(filepath.Join(dir, "src.atlas"))
	if err != nil {
		t.Fatalf("open src: %v", err)
	}
	defer src.Close()
	for _, lin := range regions {
		src.Insert(lin.Key, lin)
	}
	var snap bytes.Buffer
	if _, err := src.WriteSnapshot(&snap); err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	dst, err := atlas.Open(filepath.Join(dir, "dst.atlas"))
	if err != nil {
		t.Fatalf("open dst: %v", err)
	}
	defer dst.Close()
	// Pre-seed one region: ingest must dedup it.
	dst.Insert(regions[0].Key, regions[0])
	added, err := dst.Ingest(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if added != len(regions)-1 {
		t.Fatalf("added = %d, want %d", added, len(regions)-1)
	}
	// Re-ingest is idempotent.
	added, err = dst.Ingest(bytes.NewReader(snap.Bytes()))
	if err != nil || added != 0 {
		t.Fatalf("re-ingest added=%d err=%v", added, err)
	}
	for _, lin := range regions {
		got, ok := dst.Lookup(lin.Key)
		if !ok || !sameBits(got, lin) {
			t.Fatalf("ingested region wrong: %s", lin.Key)
		}
	}
}

// TestTieredStoreServesWithoutComposing is the acceptance-criteria core: a
// region cache layered over a warm atlas must answer LocalAt with zero
// compositions, bit-identical to a from-scratch extraction.
func TestTieredStoreServesWithoutComposing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "regions.atlas")
	net := testNet(23, 6, 12, 10, 4)

	rng := rand.New(rand.NewSource(99))
	xs := make([]mat.Vec, 16)
	for i := range xs {
		x := make(mat.Vec, net.InputDim())
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		xs[i] = x
	}

	// Warm pass: compose through a tiered store backed by the atlas.
	warm, err := atlas.Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	rc := openbox.CacheRegionModelOpts(&openbox.PLNN{Net: net}, openbox.StoreOptions{Capacity: 4, Backing: warm})
	want := make([]*plm.Linear, len(xs))
	for i, x := range xs {
		lin, err := rc.LocalAt(x)
		if err != nil {
			t.Fatalf("warm LocalAt: %v", err)
		}
		want[i] = lin
	}
	if rc.(openbox.StoreReporter).RegionCompositions() == 0 {
		t.Fatalf("warm pass composed nothing")
	}
	warm.Close()

	// Cold restart: fresh process state, reopened atlas, zero compositions.
	cold, err := atlas.Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer cold.Close()
	rc2 := openbox.CacheRegionModelOpts(&openbox.PLNN{Net: net}, openbox.StoreOptions{Capacity: 4, Backing: cold})
	for i, x := range xs {
		lin, err := rc2.LocalAt(x)
		if err != nil {
			t.Fatalf("cold LocalAt: %v", err)
		}
		if !sameBits(lin, want[i]) {
			t.Fatalf("cold lookup %d not bit-identical to composition", i)
		}
	}
	if got := rc2.(openbox.StoreReporter).RegionCompositions(); got != 0 {
		t.Fatalf("cold pass composed %d regions, want 0", got)
	}
	st := rc2.(openbox.StoreReporter).RegionStoreStats()
	if st.Misses != 0 {
		t.Fatalf("cold pass had %d cold misses, want 0 (stats %+v)", st.Misses, st)
	}
}

// TestConcurrentReadersWriter is the -race battery: one writer appending
// fresh regions while readers look up, snapshot, and stat concurrently.
func TestConcurrentReadersWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "regions.atlas")
	net := testNet(29, 6, 12, 10, 4)
	regions := distinctRegions(t, net, 24)

	a, err := atlas.Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer a.Close()
	for _, lin := range regions[:8] {
		a.Insert(lin.Key, lin)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, lin := range regions[8:] {
			a.Insert(lin.Key, lin)
		}
		close(stop)
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					if i > 0 {
						return
					}
				default:
				}
				lin := regions[(seed+i)%len(regions)]
				if got, ok := a.Lookup(lin.Key); ok && !sameBits(got, lin) {
					t.Errorf("concurrent lookup returned wrong bits for %s", lin.Key)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			var buf bytes.Buffer
			if _, err := a.WriteSnapshot(&buf); err != nil {
				t.Errorf("snapshot: %v", err)
				return
			}
			_ = a.Stats()
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()

	if a.Len() != len(regions) {
		t.Fatalf("Len = %d, want %d", a.Len(), len(regions))
	}
	for _, lin := range regions {
		got, ok := a.Lookup(lin.Key)
		if !ok || !sameBits(got, lin) {
			t.Fatalf("post-battery lookup wrong for %s", lin.Key)
		}
	}
}
