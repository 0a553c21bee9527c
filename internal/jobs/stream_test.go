package jobs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/plm"
	"repro/internal/wire"
)

// streamServer mounts a runner on a prediction server and returns both plus
// a dialed (binary-negotiated) client.
func streamServer(t *testing.T, model plm.Model, white plm.RegionModel, streamRows int) (*Runner, *api.Server, *api.Client) {
	t.Helper()
	r, err := NewRunner(model, white, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	r.StreamRows = streamRows
	srv := api.NewServer(model, "stream-test")
	r.Mount(srv)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c, err := api.Dial(ts.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r, srv, c
}

func rowBitsEqual(t *testing.T, got, want [][]float64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s row %d: %d cols, want %d", what, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s row %d col %d not bit-identical", what, i, j)
			}
		}
	}
}

func TestJSONPaginationWindow(t *testing.T) {
	model := jobModel(21)
	r, _, c := streamServer(t, model, model, 0)
	xs := jobProbes(rand.New(rand.NewSource(22)), 10, model.Dim())
	id, err := r.Submit(OpPredict, xs)
	if err != nil {
		t.Fatal(err)
	}
	full := waitDone(t, r, id)

	get := func(url string) View {
		t.Helper()
		resp, err := c.HTTPClient().Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s answered %s", url, resp.Status)
		}
		var v View
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v
	}

	// A windowed fetch answers just the slice, stamped with the window.
	page := get(c.BaseURL() + "/jobs/" + id + "?offset=3&limit=4")
	if page.Total != 10 || page.Offset != 3 || len(page.Probs) != 4 {
		t.Fatalf("page = total %d offset %d rows %d, want 10/3/4", page.Total, page.Offset, len(page.Probs))
	}
	rowBitsEqual(t, page.Probs, full.Probs[3:7], "page")

	// A window past the end is empty, not an error.
	if past := get(c.BaseURL() + "/jobs/" + id + "?offset=50"); past.Total != 10 || len(past.Probs) != 0 {
		t.Fatalf("past-the-end page = total %d rows %d", past.Total, len(past.Probs))
	}

	// The legacy parameterless fetch still ships everything, unstamped —
	// exactly what a pre-pagination client expects.
	legacy := get(c.BaseURL() + "/jobs/" + id)
	if legacy.Total != 0 || legacy.Offset != 0 {
		t.Fatalf("legacy fetch grew window fields: total %d offset %d", legacy.Total, legacy.Offset)
	}
	rowBitsEqual(t, legacy.Probs, full.Probs, "legacy fetch")

	// Malformed windows answer 400.
	for _, q := range []string{"?offset=-1", "?limit=-2", "?offset=abc"} {
		resp, err := c.HTTPClient().Get(c.BaseURL() + "/jobs/" + id + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("window %s answered %s, want 400", q, resp.Status)
		}
	}
}

func TestBinarySubmitAndStreamProbs(t *testing.T) {
	model := jobModel(23)
	// StreamRows 4 forces multi-frame streams out of a 10-row result.
	r, srv, c := streamServer(t, model, model, 4)
	if c.CodecName() != wire.NameBinary {
		t.Fatalf("client negotiated %s", c.CodecName())
	}
	xs := jobProbes(rand.New(rand.NewSource(24)), 10, model.Dim())
	ack, err := Submit(c, OpPredict, xs)
	if err != nil {
		t.Fatal(err)
	}
	if ack.ID == "" || ack.Op != OpPredict || ack.N != 10 {
		t.Fatalf("ack = %+v", ack)
	}
	// The submission itself rode the frame codec.
	if counts := srv.WireCounts(); counts.BinaryRequests == 0 {
		t.Fatalf("server counted no binary requests after a binary submit: %+v", counts)
	}
	full := waitDone(t, r, ack.ID)

	// Poll ships metadata without dragging the results over.
	polled, err := Poll(c, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if polled.Status != StatusDone || len(polled.Probs) != 0 || polled.Total != 10 {
		t.Fatalf("poll = status %s rows %d total %d", polled.Status, len(polled.Probs), polled.Total)
	}

	// Full stream: chunk offsets follow StreamRows, rows arrive bit-identical.
	var got [][]float64
	var offsets []int
	err = StreamProbs(c, ack.ID, 0, -1, func(offset int, probs [][]float64) error {
		offsets = append(offsets, offset)
		got = append(got, probs...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(offsets) != 3 || offsets[0] != 0 || offsets[1] != 4 || offsets[2] != 8 {
		t.Fatalf("chunk offsets = %v, want [0 4 8]", offsets)
	}
	rowBitsEqual(t, got, full.Probs, "streamed probs")

	// A windowed stream covers exactly the requested slice.
	got, offsets = nil, nil
	err = StreamProbs(c, ack.ID, 3, 5, func(offset int, probs [][]float64) error {
		offsets = append(offsets, offset)
		got = append(got, probs...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if offsets[0] != 3 {
		t.Fatalf("windowed stream starts at %d, want 3", offsets[0])
	}
	rowBitsEqual(t, got, full.Probs[3:8], "windowed stream")
}

func TestBinaryStreamRegionsBitIdentical(t *testing.T) {
	model := jobModel(25)
	r, _, c := streamServer(t, model, model, 0)
	xs := jobProbes(rand.New(rand.NewSource(26)), 20, model.Dim())
	ack, err := Submit(c, OpInterpret, xs)
	if err != nil {
		t.Fatal(err)
	}
	full := waitDone(t, r, ack.ID)
	if len(full.Regions) == 0 {
		t.Fatal("harvest found no regions")
	}

	var got []Region
	err = StreamRegions(c, ack.ID, 0, -1, func(offset int, regions []Region) error {
		if offset != len(got) {
			t.Fatalf("region chunk at offset %d, expected %d", offset, len(got))
		}
		got = append(got, regions...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(full.Regions) {
		t.Fatalf("streamed %d regions, want %d", len(got), len(full.Regions))
	}
	for i, want := range full.Regions {
		rowBitsEqual(t, [][]float64{got[i].Probe}, [][]float64{want.Probe}, "probe")
		rowBitsEqual(t, got[i].RelW, want.RelW, "rel_w")
		rowBitsEqual(t, [][]float64{got[i].RelB}, [][]float64{want.RelB}, "rel_b")
	}
}

// TestStreamIgnoresRetiredPrecParameter: a result stream requested with
// Accept: …;prec=f32 is the same float64 frames, byte for byte, as a plain
// binary request's, for both result kinds.
func TestStreamIgnoresRetiredPrecParameter(t *testing.T) {
	model := jobModel(29)
	r, _, c := streamServer(t, model, model, 4)
	get := func(id, accept string) []byte {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, c.BaseURL()+c.Prefix()+"/jobs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept", accept)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != wire.ContentTypeBinary {
			t.Fatalf("Accept %q answered %s, %q", accept, resp.Status, resp.Header.Get("Content-Type"))
		}
		return body
	}
	xs := jobProbes(rand.New(rand.NewSource(30)), 10, model.Dim())
	for _, op := range []string{OpPredict, OpInterpret} {
		ack, err := Submit(c, op, xs)
		if err != nil {
			t.Fatal(err)
		}
		full := waitDone(t, r, ack.ID)
		plain := get(ack.ID, wire.ContentTypeBinary)
		if asked := get(ack.ID, wire.ContentTypeBinary+";prec=f32"); !bytes.Equal(asked, plain) {
			t.Fatalf("%s: prec=f32 stream (%d bytes) differs from the plain one (%d bytes)", op, len(asked), len(plain))
		}
		fr := wire.NewFrameReader(bytes.NewReader(plain), 0)
		var got [][]float64
		for {
			m, err := fr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, m...)
		}
		if op == OpPredict {
			rowBitsEqual(t, got, full.Probs, "streamed probs")
		} else if len(got) == 0 {
			t.Fatal("interpret stream carried no frames")
		}
	}
}

func TestStreamRejectsWrongOpAndUnfinishedJobs(t *testing.T) {
	inner := jobModel(27)
	stalled := &stallModel{Model: inner, gate: make(chan struct{})}
	r, err := NewRunner(stalled, inner, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := api.NewServer(inner, "stall")
	r.Mount(srv)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c, err := api.Dial(ts.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	xs := jobProbes(rand.New(rand.NewSource(28)), 2, inner.Dim())
	ack, err := Submit(c, OpPredict, xs)
	if err != nil {
		t.Fatal(err)
	}
	// Still running behind the gate: a result stream must refuse, not hang.
	if err := StreamProbs(c, ack.ID, 0, -1, func(int, [][]float64) error { return nil }); err == nil {
		t.Fatal("streamed results of an unfinished job")
	} else if !strings.Contains(err.Error(), "not ready") {
		t.Fatalf("unfinished stream error = %v", err)
	}
	close(stalled.gate)
	waitDone(t, r, ack.ID)

	// Asking for the wrong result kind names the mismatch.
	err = StreamRegions(c, ack.ID, 0, -1, func(int, []Region) error { return nil })
	if err == nil || !strings.Contains(err.Error(), OpPredict) {
		t.Fatalf("wrong-op stream error = %v", err)
	}

	// Unknown job ids surface the 404.
	if err := StreamProbs(c, "job-9999", 0, -1, func(int, [][]float64) error { return nil }); err == nil {
		t.Fatal("streamed an unknown job")
	}
}

func TestJSONClientPagesThroughLargeResult(t *testing.T) {
	// 5000 rows forces the JSON fallback through more than one page
	// (jsonPageRows = 4096) — the loop must stitch them back seamlessly.
	model := jobModel(29)
	r, _, c := streamServer(t, model, model, 0)
	if err := c.SetCodec(wire.NameJSON); err != nil {
		t.Fatal(err)
	}
	xs := jobProbes(rand.New(rand.NewSource(30)), 5000, model.Dim())
	ack, err := Submit(c, OpPredict, xs)
	if err != nil {
		t.Fatal(err)
	}
	full := waitDone(t, r, ack.ID)

	var got [][]float64
	var pages int
	err = StreamProbs(c, ack.ID, 0, -1, func(offset int, probs [][]float64) error {
		if offset != len(got) {
			t.Fatalf("page at offset %d, expected %d", offset, len(got))
		}
		pages++
		got = append(got, probs...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if pages != 2 {
		t.Fatalf("result crossed %d pages, want 2", pages)
	}
	rowBitsEqual(t, got, full.Probs, "paged probs")

	// A bounded window stays one short page.
	got = nil
	err = StreamProbs(c, ack.ID, 4990, 5, func(offset int, probs [][]float64) error {
		if offset != 4990 {
			t.Fatalf("window page at offset %d", offset)
		}
		got = append(got, probs...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rowBitsEqual(t, got, full.Probs[4990:4995], "windowed page")
}
