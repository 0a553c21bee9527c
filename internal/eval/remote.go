package eval

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/mat"
	"repro/internal/plm"
)

// RemoteBench turns one in-process model into a genuinely remote experiment
// target: the model is served over loopback HTTP — optionally sharded across
// replica slots — and dialed back through api.DialAggregated, so every
// interpreter probe pays a real wire round trip and rides the adaptive
// batching layer. Experiments that want to measure round trips rather than
// abstract queries run against a RemoteBench instead of a raw client.
type RemoteBench struct {
	// Server exposes the server-side counters (Queries, Requests).
	Server *api.Server
	// Agg is the aggregated model experiments probe through.
	Agg *api.Aggregator
	// Client is the underlying HTTP client, for sticky-error checks.
	Client *api.Client

	httpSrv *http.Server
	url     string
}

// ServeRemote serves model on a loopback listener and dials it back through
// an aggregator. replicas > 1 routes /batch requests across that many shard
// slots (all backed by the one model value — models are pure functions, so
// the slots buy intra-batch parallelism, exactly like plmserve -replicas).
// Close the returned bench when the experiment finishes.
func ServeRemote(model plm.Model, name string, replicas int, cfg api.AggregatorConfig) (*RemoteBench, error) {
	served := model
	if replicas > 1 {
		slots := make([]plm.Model, replicas)
		for i := range slots {
			slots[i] = model
		}
		shard, err := api.NewShard(slots)
		if err != nil {
			return nil, fmt.Errorf("eval: shard remote: %w", err)
		}
		served = shard
	}
	srv := api.NewServer(served, name)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("eval: serve remote: %w", err)
	}
	httpSrv := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = httpSrv.Serve(lis) }()
	url := "http://" + lis.Addr().String()
	agg, client, err := api.DialAggregated(url, nil, 2, cfg)
	if err != nil {
		_ = httpSrv.Close()
		return nil, err
	}
	return &RemoteBench{Server: srv, Agg: agg, Client: client, httpSrv: httpSrv, url: url}, nil
}

// URL returns the bench's base URL, for extra clients.
func (r *RemoteBench) URL() string { return r.url }

// Model returns the aggregated remote as a plm.Model.
func (r *RemoteBench) Model() plm.Model { return r.Agg }

// Close flushes the aggregator and stops the HTTP server.
func (r *RemoteBench) Close() error {
	r.Agg.Close()
	return r.httpSrv.Close()
}

// WireStats summarizes what an over-the-API experiment cost on the wire.
type WireStats struct {
	Queries    int64         // probes served (server-counted)
	RoundTrips int64         // HTTP round trips served
	Window     time.Duration // aggregator window in force at the end
	RTT        time.Duration // smoothed round-trip estimate (adaptive only)
}

// QueriesPerTrip returns the batching ratio the run achieved.
func (s WireStats) QueriesPerTrip() float64 {
	if s.RoundTrips == 0 {
		return 0
	}
	return float64(s.Queries) / float64(s.RoundTrips)
}

// remoteRegion probes through the aggregated remote while answering the
// white-box region questions the quality metrics need from the local model —
// the evaluation harness's legitimate dual role. Embedding the concrete
// aggregator (not plm.Model) keeps PredictBatch visible, so each sample
// set still ships as one batched round trip.
type remoteRegion struct {
	*api.Aggregator
	white plm.RegionModel
}

func (r remoteRegion) RegionKey(x mat.Vec) string             { return r.white.RegionKey(x) }
func (r remoteRegion) LocalAt(x mat.Vec) (*plm.Linear, error) { return r.white.LocalAt(x) }

// Quality runs SampleQuality against the already-serving bench: every
// interpreter probe crosses the real HTTP hop through the adaptive
// aggregator, while the white-box side answers its ground-truth LocalAt
// queries locally. The returned WireStats cover this run alone — the
// server counters are cumulative over the bench's lifetime, so Quality
// snapshots them before and after. A persistent bench amortizes server
// startup, the dialed connection and the warmed adaptive window across
// experiment repetitions (cmd/experiments -exp remote starts one bench per
// model and reuses it for every repetition).
func (r *RemoteBench) Quality(white plm.RegionModel, methods []plm.Interpreter, xs []mat.Vec) ([]QualityRow, WireStats, error) {
	q0, t0 := r.Server.Queries(), r.Server.Requests()
	rows, err := SampleQuality(remoteRegion{Aggregator: r.Agg, white: white}, methods, xs)
	if err != nil {
		return nil, WireStats{}, err
	}
	if err := r.Client.Err(); err != nil {
		return nil, WireStats{}, fmt.Errorf("eval: transport errors during remote quality run: %w", err)
	}
	stats := WireStats{
		Queries:    r.Server.Queries() - q0,
		RoundTrips: r.Server.Requests() - t0,
		Window:     r.Agg.CurrentWindow(),
		RTT:        r.Agg.RTT(),
	}
	return rows, stats, nil
}
