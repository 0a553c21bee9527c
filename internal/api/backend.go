package api

import (
	"context"
	"fmt"

	"repro/internal/mat"
	"repro/internal/plm"
	"repro/internal/wire"
)

// Backend is one prediction worker behind the shard router. The paper's
// OpenAPI setting never assumes the model runs in-process — only that
// something answers probability queries — so the router speaks to an
// abstract worker: a local model replica, or a remote plmserve instance
// reached over HTTP. Unlike plm.Model, every call returns an error: a
// backend is allowed to be down, and the router's job is to notice and
// route around it rather than corrupt a batch.
//
// Every call takes a context: a caller's timeout or cancellation must reach
// the wire (a hedged chunk's losing attempt is cancelled the moment the
// winner answers; a dead caller's fan-out stops instead of running to
// completion for nobody). Local backends are pure compute and only check
// the context between probes; remote ones thread it into the HTTP request.
//
// A single prediction reaches a backend as a one-row batch, so PredictBatch
// is the only prediction call.
//
// Implementations must be safe for concurrent use: one batch sends a
// backend at most one chunk at a time, but chunks of concurrent batches,
// hedged duplicates and /stats reads interleave freely.
type Backend interface {
	// PredictBatch answers a batch of probes, one output per input.
	PredictBatch(ctx context.Context, xs []mat.Vec) ([]mat.Vec, error)
	// Stats describes the backend: kind, name and model shape. The shape is
	// what NewShardBackends validates replica interchangeability against.
	Stats() BackendStats
	// Healthy reports whether the backend can currently answer. Local
	// backends are always healthy; remote ones ping their server under the
	// context's deadline. The shard calls this only on quarantine-recovery
	// probes, never on the hot path.
	Healthy(ctx context.Context) bool
}

// BackendStats identifies a backend: its kind ("local" or "remote"), a
// human-readable name, and the model shape it serves.
type BackendStats struct {
	Kind    string
	Name    string
	Dim     int
	Classes int
}

// BackendStatus is the live per-backend view /stats reports: identity plus
// the router's inflight, retry, failure and hedge counters and the health
// state.
type BackendStatus struct {
	Kind string `json:"kind"` // "local" or "remote"
	Name string `json:"name"`
	// Queries counts probes this backend answered successfully.
	Queries int64 `json:"queries"`
	// Inflight counts probes currently outstanding on this backend.
	Inflight int64 `json:"inflight"`
	// Retries counts chunks re-dispatched to another backend after this one
	// failed them.
	Retries int64 `json:"retries"`
	// Failures counts calls (chunk or recovery probe) that errored.
	Failures int64 `json:"failures"`
	// Hedges counts speculative duplicate dispatches launched because this
	// backend sat on a chunk past its hedge threshold.
	Hedges int64 `json:"hedges"`
	// HedgeWins counts hedged chunks this backend answered first.
	HedgeWins int64 `json:"hedge_wins"`
	// HedgeCancels counts this backend's attempts cancelled or discarded
	// because another backend's copy of the same chunk won the race.
	HedgeCancels int64 `json:"hedge_cancels"`
	// State is "ok" for a serving backend and "unreachable" while the
	// backend is quarantined after failures. It reflects the router's
	// bookkeeping, not a live probe — /stats stays cheap.
	State string `json:"state"`
	// Wire is the backend's client-side codec traffic (bytes and the
	// binary/JSON request split) when the backend is remote; local
	// backends have no wire hop and omit it.
	Wire *wire.Counts `json:"wire,omitempty"`
}

// wireCounter is the optional wire-traffic surface a backend may expose:
// remote backends forward their HTTP client's counters for the /stats
// reach-through.
type wireCounter interface {
	WireCounts() wire.Counts
}

// localBackend adapts an in-process plm.Model to the Backend interface —
// today's replicas, unchanged except for the explicit error surface.
type localBackend struct {
	model plm.Model
	name  string
}

// NewLocalBackend wraps an in-process model as a shard backend.
func NewLocalBackend(model plm.Model, name string) Backend {
	return &localBackend{model: model, name: name}
}

// PredictBatch answers in-process. A local forward is not interruptible
// compute, so the context is only consulted before it starts: an
// already-cancelled caller gets its cancellation instead of a result it
// will discard.
func (b *localBackend) PredictBatch(ctx context.Context, xs []mat.Vec) ([]mat.Vec, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return plm.PredictAll(b.model, xs)
}

func (b *localBackend) Stats() BackendStats {
	return BackendStats{Kind: "local", Name: b.name, Dim: b.model.Dim(), Classes: b.model.Classes()}
}

func (b *localBackend) Healthy(context.Context) bool { return true }

// remoteBackend adapts an api.Client to the Backend interface: a shard
// replica that is itself another plmserve instance, reached over HTTP —
// the topology `plmserve -backend host:port` wires up, and the backend a
// dynamically registered worker (`plmserve -join`) turns into on the
// router side.
type remoteBackend struct {
	client *Client
}

// NewRemoteBackend wraps a dialed client as a shard backend.
func NewRemoteBackend(client *Client) Backend {
	return &remoteBackend{client: client}
}

func (b *remoteBackend) PredictBatch(ctx context.Context, xs []mat.Vec) ([]mat.Vec, error) {
	return b.client.PredictBatchCtx(ctx, xs)
}

func (b *remoteBackend) Stats() BackendStats {
	return BackendStats{
		Kind:    "remote",
		Name:    b.client.BaseURL(),
		Dim:     b.client.Dim(),
		Classes: b.client.Classes(),
	}
}

// Healthy pings the remote's /meta endpoint under the caller's context and
// the client's own PingTimeout, whichever ends first. Used by the shard's
// quarantine-recovery probe.
func (b *remoteBackend) Healthy(ctx context.Context) bool { return b.client.PingCtx(ctx) == nil }

// WireCounts forwards the dialed client's wire counters — the /stats
// per-backend reach-through.
func (b *remoteBackend) WireCounts() wire.Counts { return b.client.WireCounts() }

// LocalBackends wraps each model as a local backend, named name-0, name-1…
func LocalBackends(models []plm.Model, name string) []Backend {
	out := make([]Backend, len(models))
	for i, m := range models {
		out[i] = NewLocalBackend(m, fmt.Sprintf("%s-%d", name, i))
	}
	return out
}
