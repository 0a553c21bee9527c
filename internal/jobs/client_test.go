package jobs

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/mat"
	"repro/internal/wire"
)

// The client half of the async job protocol: Submit ships a bulk job
// through a dialed api.Client's negotiated codec, Poll fetches metadata
// without dragging results over the wire, and StreamProbs/StreamRegions
// read a finished job's results incrementally — binary clients as a frame
// stream off one response, JSON clients as an offset/limit page loop —
// so the caller handles one chunk at a time however large the harvest.
// No command ships it, so it lives beside the tests that drive the
// protocol's client side; the server half is jobs.Runner.

// jsonPageRows is the page size of the JSON fallback result loop.
const jsonPageRows = 4096

// submitRetries bounds how many 503 backpressure responses SubmitCtx
// absorbs — each costs one Retry-After wait — before surfacing the error.
const submitRetries = 2

// maxRetryAfter caps how long a single Retry-After header can make the
// client wait, so a confused (or hostile) server cannot park it for hours.
const maxRetryAfter = 30 * time.Second

// retrySleep waits out one Retry-After interval or the caller's context,
// whichever ends first. A variable so tests can observe waits without
// serving them in real time.
var retrySleep = func(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Submit ships a bulk job and returns the server's acknowledgement view.
func Submit(c *api.Client, op string, xs []mat.Vec) (View, error) {
	return SubmitCtx(context.Background(), c, op, xs)
}

// SubmitCensus ships a census job over the given anchors with an explicit
// probe budget (n <= 0 lets the server pick its default sweep size).
func SubmitCensus(c *api.Client, xs []mat.Vec, n int) (View, error) {
	return submitN(context.Background(), c, OpCensus, xs, n)
}

// SubmitCtx is Submit under a caller context. A saturated server's 503
// carries a Retry-After hint (its mean job drain time); SubmitCtx honors
// it — a bounded number of times, with the wait cancellable through ctx —
// before handing the backpressure to the caller.
func SubmitCtx(ctx context.Context, c *api.Client, op string, xs []mat.Vec) (View, error) {
	return submitN(ctx, c, op, xs, 0)
}

// submitN is the shared submit loop; n is the census probe budget (ignored
// by every other op).
func submitN(ctx context.Context, c *api.Client, op string, xs []mat.Vec, n int) (View, error) {
	for attempt := 0; ; attempt++ {
		v, retryAfter, err := submitOnce(ctx, c, op, xs, n)
		if err == nil {
			return v, nil
		}
		if retryAfter <= 0 || attempt >= submitRetries {
			return View{}, err
		}
		if retryAfter > maxRetryAfter {
			retryAfter = maxRetryAfter
		}
		if serr := retrySleep(ctx, retryAfter); serr != nil {
			return View{}, fmt.Errorf("jobs: submit retry abandoned: %w", serr)
		}
	}
}

// submitOnce performs a single submit round trip. On a 503 whose
// Retry-After header parses, the returned duration is positive and the
// caller may wait and retry; every other failure returns zero.
func submitOnce(ctx context.Context, c *api.Client, op string, xs []mat.Vec, n int) (View, time.Duration, error) {
	rows := make([][]float64, len(xs))
	for i, x := range xs {
		rows[i] = x
	}
	codec := c.Codec()
	var buf bytes.Buffer
	var err error
	if codec.Name() == wire.NameBinary {
		err = codec.EncodeMat(&buf, "xs", rows)
	} else {
		err = wire.EncodeJSON(&buf, submitRequest{Op: op, Xs: rows, N: n})
	}
	if err != nil {
		return View{}, 0, fmt.Errorf("jobs: encode submit: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL()+c.Prefix()+"/jobs", &buf)
	if err != nil {
		return View{}, 0, fmt.Errorf("jobs: build submit: %w", err)
	}
	req.Header.Set("Content-Type", codec.ContentType())
	if codec.Name() == wire.NameBinary {
		req.Header.Set(OpHeader, op)
		if n > 0 {
			req.Header.Set(NHeader, strconv.Itoa(n))
		}
	}
	resp, err := c.HTTPClient().Do(req)
	if err != nil {
		return View{}, 0, fmt.Errorf("jobs: submit: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var retryAfter time.Duration
		if resp.StatusCode == http.StatusServiceUnavailable {
			if secs, err := strconv.ParseInt(resp.Header.Get("Retry-After"), 10, 64); err == nil && secs > 0 {
				retryAfter = time.Duration(secs) * time.Second
			}
		}
		return View{}, retryAfter, respError("submit", resp)
	}
	var v View
	if err := wire.DecodeJSON(resp.Body, wire.DefaultMaxBody, &v, false); err != nil {
		return View{}, 0, fmt.Errorf("jobs: decode submit ack: %w", err)
	}
	return v, 0, nil
}

// Poll fetches a job's metadata view without its results (limit=0 — an
// older server ignores the parameter and ships them anyway, which still
// decodes, just unpaginated).
func Poll(c *api.Client, id string) (View, error) {
	return fetchPage(c, id, 0, 0)
}

// StreamProbs reads a finished predict job's probabilities from offset on
// (limit < 0: to the end), invoking fn once per chunk with the absolute
// row offset the chunk starts at. Binary-codec clients read one streamed
// frame sequence; JSON clients loop over offset/limit pages. Neither side
// ever holds more than one chunk. A binary chunk's rows share memory in
// blocks of up to 256 KiB, so an fn that keeps a single row past its call
// should copy it.
func StreamProbs(c *api.Client, id string, offset, limit int, fn func(offset int, probs [][]float64) error) error {
	if c.CodecName() == wire.NameBinary {
		return streamBinary(c, id, OpPredict, offset, limit, func(fr *wire.FrameReader, at int) (int, error) {
			chunk, err := fr.Next()
			if err != nil {
				return 0, err // io.EOF ends the stream
			}
			return len(chunk), fn(at, chunk)
		})
	}
	return pageLoop(c, id, OpPredict, offset, limit, func(v View) (int, error) {
		if len(v.Probs) == 0 {
			return 0, nil
		}
		return len(v.Probs), fn(v.Offset, v.Probs)
	})
}

// StreamRegions reads a finished interpret job's harvested regions from
// offset on (limit < 0: to the end), invoking fn once per chunk with the
// absolute region offset. On the binary stream every region is a triple of
// frames — probe, relative W, relative b.
func StreamRegions(c *api.Client, id string, offset, limit int, fn func(offset int, regions []Region) error) error {
	if c.CodecName() == wire.NameBinary {
		return streamBinary(c, id, OpInterpret, offset, limit, func(fr *wire.FrameReader, at int) (int, error) {
			probe, err := fr.Next()
			if err != nil {
				return 0, err // io.EOF between triples ends the stream
			}
			relW, err := fr.Next()
			if err != nil {
				return 0, fmt.Errorf("jobs: region stream cut mid-triple: %w", noStreamEOF(err))
			}
			relB, err := fr.Next()
			if err != nil {
				return 0, fmt.Errorf("jobs: region stream cut mid-triple: %w", noStreamEOF(err))
			}
			if len(probe) != 1 || len(relB) != 1 {
				return 0, fmt.Errorf("jobs: region triple has %d probe rows and %d bias rows, want 1 and 1", len(probe), len(relB))
			}
			return 1, fn(at, []Region{{Probe: probe[0], RelW: relW, RelB: relB[0]}})
		})
	}
	return pageLoop(c, id, OpInterpret, offset, limit, func(v View) (int, error) {
		if len(v.Regions) == 0 {
			return 0, nil
		}
		return len(v.Regions), fn(v.Offset, v.Regions)
	})
}

// noStreamEOF rewrites a clean EOF into ErrUnexpectedEOF for stream
// positions where the stream is not allowed to end.
func noStreamEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// streamBinary performs one binary result fetch and drains its frame
// stream. next consumes one logical chunk (however many frames that is)
// and returns how many result items it covered; it propagates io.EOF to
// end the stream.
func streamBinary(c *api.Client, id, wantOp string, offset, limit int, next func(fr *wire.FrameReader, at int) (int, error)) error {
	req, err := http.NewRequest(http.MethodGet, pageURL(c, id, offset, limit), nil)
	if err != nil {
		return fmt.Errorf("jobs: build result fetch: %w", err)
	}
	req.Header.Set("Accept", wire.AcceptValue(c.Codec()))
	resp, err := c.HTTPClient().Do(req)
	if err != nil {
		return fmt.Errorf("jobs: fetch results: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return respError("results", resp)
	}
	if ct := resp.Header.Get("Content-Type"); wire.ResponseBodyCodec(ct).Name() != wire.NameBinary {
		// A pre-streaming server answered the legacy JSON view; the caller
		// asked for a stream, so surface the mismatch instead of buffering
		// the whole body behind their back.
		return fmt.Errorf("jobs: server answered %s, not a binary result stream", ct)
	}
	if op := resp.Header.Get(HeaderOp); op != wantOp {
		return fmt.Errorf("jobs: job %s is an %s job, not %s", id, op, wantOp)
	}
	if status := Status(resp.Header.Get(HeaderStatus)); status != StatusDone {
		if msg := resp.Header.Get(HeaderError); msg != "" {
			return fmt.Errorf("jobs: job %s %s: %s", id, status, msg)
		}
		return fmt.Errorf("jobs: job %s is %s, results not ready", id, status)
	}
	at, err := strconv.Atoi(resp.Header.Get(HeaderOffset))
	if err != nil {
		return fmt.Errorf("jobs: bad %s header %q", HeaderOffset, resp.Header.Get(HeaderOffset))
	}
	// The stream's length is governed by the server-side window; the
	// reader's byte budget only has to admit each frame as it arrives.
	fr := wire.NewFrameReader(resp.Body, math.MaxInt64)
	for {
		n, err := next(fr, at)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		at += n
	}
}

// pageLoop is the JSON fallback: fetch offset/limit pages until the
// window (or the result set) is exhausted. page consumes one view and
// returns how many items it covered; zero items ends the loop.
func pageLoop(c *api.Client, id, wantOp string, offset, limit int, page func(v View) (int, error)) error {
	at := offset
	remaining := limit
	for {
		take := jsonPageRows
		if remaining >= 0 && remaining < take {
			take = remaining
		}
		if remaining >= 0 && remaining == 0 {
			return nil
		}
		v, err := fetchPage(c, id, at, take)
		if err != nil {
			return err
		}
		if v.Op != wantOp {
			return fmt.Errorf("jobs: job %s is an %s job, not %s", id, v.Op, wantOp)
		}
		if v.Status != StatusDone {
			if v.Error != "" {
				return fmt.Errorf("jobs: job %s %s: %s", id, v.Status, v.Error)
			}
			return fmt.Errorf("jobs: job %s is %s, results not ready", id, v.Status)
		}
		n, err := page(v)
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
		at += n
		if remaining >= 0 {
			remaining -= n
		}
		if at >= v.Total {
			return nil
		}
	}
}

// fetchPage GETs one offset/limit page of a job view (JSON).
func fetchPage(c *api.Client, id string, offset, limit int) (View, error) {
	resp, err := c.HTTPClient().Get(pageURL(c, id, offset, limit))
	if err != nil {
		return View{}, fmt.Errorf("jobs: fetch job %s: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return View{}, respError("fetch", resp)
	}
	var v View
	if err := wire.DecodeJSON(resp.Body, wire.DefaultMaxBody, &v, false); err != nil {
		return View{}, fmt.Errorf("jobs: decode job view: %w", err)
	}
	return v, nil
}

// pageURL builds the GET /jobs/{id} URL with the offset/limit window
// (limit < 0 omits the parameter: to the end).
func pageURL(c *api.Client, id string, offset, limit int) string {
	url := c.BaseURL() + c.Prefix() + "/jobs/" + id + "?offset=" + strconv.Itoa(offset)
	if limit >= 0 {
		url += "&limit=" + strconv.Itoa(limit)
	}
	return url
}

// respError summarizes a non-2xx response.
func respError(what string, resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
	return fmt.Errorf("jobs: %s returned %s: %s", what, resp.Status, bytes.TrimSpace(b))
}
