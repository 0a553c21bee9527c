// Command plmserve loads a model saved by plmtrain and exposes it as an
// HTTP prediction API — the "cloud service" the paper interprets. Only
// probabilities leave the process; parameters stay hidden.
//
// With -replicas N the model is loaded N times and served behind the
// api.Shard router: each /batch request is dispatched load-aware across the
// replicas and /stats reports the per-backend breakdown (queries, inflight,
// retries, health).
//
// With -backend host:port,host:port the shard additionally routes to other
// plmserve instances as remote backends — a heterogeneous shard of local
// replicas and remote workers behind one endpoint. An unreachable backend
// is quarantined with exponential backoff, its work fails over to the
// others, and it rejoins after a successful health probe. With -backend
// alone (no -model) the instance is a pure router.
//
// With -cache N a bounded LRU response cache sits in front of the whole
// shard: repeated probes are answered without touching any backend, and
// /stats reports its hits, misses, evictions and size under caches.response.
//
// With -fleet the backend set additionally becomes dynamic: the instance
// mounts the registry protocol (POST /register, /heartbeat, /leave) and
// other plmserve workers join and leave it at runtime. A worker that stops
// heartbeating past -expire is dropped and its in-flight work drained to
// the survivors; /stats grows a "registry" section tracking the churn. The
// worker side is -join router:port: register with the router, heartbeat on
// its advertised interval, re-register if the lease is lost, and leave
// cleanly on SIGINT/SIGTERM. -advertise overrides the URL the router dials
// back (default: derived from -addr).
//
// With -atlas path the closed-form regions the white box composes are
// persisted to a checksummed append-log and survive restarts: a cold-started
// instance answers interpretation for every previously seen region without
// recomposing a single GEMM chain. The atlas also mounts GET /regions/{key}
// (one stored closed form, bit-identical over the binary codec) and GET
// /atlas/snapshot (the committed log as a stream); a worker that -joins an
// atlas-bearing router pulls the snapshot on register and starts warm.
// Async census jobs (POST /jobs with op "census") sweep probes around
// submitted anchors purely to populate the store ahead of demand; /stats
// reports the store's size, bytes, hits, misses and evictions under
// caches.regions, and grows an "atlas" section with what that lacks
// (quarantined, compositions, census_done, census_total, census_progress).
//
// With -hedge the shard router speculatively re-dispatches chunks that sit
// on one backend past an adaptive threshold (a multiple of that backend's
// EWMA chunk round trip); the first answer wins bit-identically and the
// loser is cancelled — tail latency insurance on heterogeneous fleets.
//
// With -jobs N the async job API is enabled: POST /jobs submits a bulk
// predict or interpret request (answered 202 with a job id), GET /jobs/{id}
// polls it, and a bounded worker pool runs the work on the batched fast
// paths. Interpret jobs harvest the exact locally linear regions of the
// submitted instances and need at least one local replica (-model).
//
// Payload encoding is negotiated per request (internal/wire): every
// endpoint speaks the legacy JSON envelopes, and peers that saw the
// server's /meta advertise the binary float-frame codec ship the same
// payloads as length-prefixed little-endian float64 frames — bit-identical
// to the JSON path at a fraction of the bytes.
// Finished job results additionally page (GET /jobs/{id}?offset=O&limit=L)
// and, for binary clients, stream as one frame per result chunk. /stats
// reports the wire traffic (bytes_in/bytes_out and the binary/JSON request
// split), reaching through to remote backends' client-side counters.
//
// Usage:
//
//	plmserve -model plnn.json -type plnn -addr :8080
//	plmserve -model plnn.json -type plnn -replicas 4 -cache 4096 -jobs 64
//	plmserve -model plnn.json -replicas 2 -backend 10.0.0.2:8080,10.0.0.3:8080
//	plmserve -backend 10.0.0.2:8080,10.0.0.3:8080   # pure router, no local model
//	plmserve -fleet -hedge -addr :8080              # dynamic fleet router
//	plmserve -model plnn.json -addr :9001 -join 10.0.0.1:8080   # worker
//	plmserve -model lmt.json -type lmt -addr 127.0.0.1:9000 -latency 5ms
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/atlas"
	"repro/internal/jobs"
	"repro/internal/modelio"
	"repro/internal/openbox"
	"repro/internal/plm"
)

// atlasFrontEntries is the RAM LRU capacity layered in front of the disk
// atlas: hot regions answer from memory, everything else from a pread.
const atlasFrontEntries = 1024

// pullAtlasSnapshot fetches the router's committed atlas log and merges it
// into the local store — the warm-start half of the fleet join handshake.
// Ingest dedups by key, so re-pulling after a re-register is idempotent.
func pullAtlasSnapshot(ctx context.Context, router string, store *atlas.Atlas) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, router+"/atlas/snapshot", nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("atlas snapshot fetch: %s", resp.Status)
	}
	return store.Ingest(resp.Body)
}

// loadReplicas loads the model file n times — each replica owns its own
// parameters — and wraps them in the shard router when n > 1, so one wide
// /batch request (a pool's argmax pre-query, a bulk job) is evaluated across
// all replicas in parallel instead of serially on one.
func loadReplicas(path, kind string, n int, cfg api.ShardConfig) (plm.Model, error) {
	if n <= 1 {
		return modelio.Load(path, kind)
	}
	models, err := loadLocalModels(path, kind, n)
	if err != nil {
		return nil, err
	}
	return api.NewShardBackends(api.LocalBackends(models, path), cfg)
}

// loadLocalModels loads n independent copies of the model file.
func loadLocalModels(path, kind string, n int) ([]plm.Model, error) {
	models := make([]plm.Model, n)
	for i := range models {
		m, err := modelio.Load(path, kind)
		if err != nil {
			return nil, err
		}
		models[i] = m
	}
	return models, nil
}

// buildBackends assembles the heterogeneous backend set: n local replicas
// loaded from the model file (when a path is given) plus one remote backend
// per dialed address.
func buildBackends(path, kind string, n int, addrs []string) ([]api.Backend, error) {
	var backends []api.Backend
	if path != "" {
		models, err := loadLocalModels(path, kind, n)
		if err != nil {
			return nil, err
		}
		backends = api.LocalBackends(models, path)
	}
	for _, addr := range addrs {
		url := addr
		if !strings.Contains(url, "://") {
			url = "http://" + url
		}
		client, err := api.Dial(url, nil, 1)
		if err != nil {
			return nil, fmt.Errorf("backend %s: %w", addr, err)
		}
		backends = append(backends, api.NewRemoteBackend(client))
	}
	return backends, nil
}

// splitBackendList parses the -backend flag value.
func splitBackendList(v string) []string {
	if v == "" {
		return nil
	}
	var out []string
	for _, a := range strings.Split(v, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// normalizeURL turns a host:port flag value into a base URL.
func normalizeURL(addr string) string {
	if strings.Contains(addr, "://") {
		return addr
	}
	return "http://" + addr
}

// advertiseURL derives the base URL a fleet router should dial this worker
// back on: the -advertise override when given, otherwise -addr with an
// empty host (":8080") filled in as loopback — the single-machine default.
func advertiseURL(addr, advertise string) string {
	if advertise != "" {
		return normalizeURL(advertise)
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return normalizeURL(addr)
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("plmserve: ")

	var (
		modelPath  = flag.String("model", "", "model file saved by plmtrain (required unless -backend or -fleet is set)")
		modelType  = flag.String("type", "plnn", fmt.Sprintf("model family: one of %v", modelio.Kinds()))
		addr       = flag.String("addr", ":8080", "listen address")
		name       = flag.String("name", "", "advertised model name (default: file path or backend list)")
		replicas   = flag.Int("replicas", 1, "local model replicas served behind the shard router")
		backendsFl = flag.String("backend", "", "comma list of remote plmserve addresses to route to as shard backends")
		fleet      = flag.Bool("fleet", false, "mount the registry protocol so workers can -join this instance at runtime")
		expire     = flag.Duration("expire", 5*time.Second, "fleet heartbeat TTL: a worker silent this long is dropped")
		hedge      = flag.Bool("hedge", false, "speculatively re-dispatch slow chunks to another backend (tail-latency insurance)")
		joinFl     = flag.String("join", "", "fleet router address to register this instance with as a worker")
		advertise  = flag.String("advertise", "", "base URL the router should dial this worker back on (default: from -addr)")
		atlasPath  = flag.String("atlas", "", "persistent region atlas file: closed-form regions survive restarts and are served to joining workers")
		cacheN     = flag.Int("cache", 0, "LRU response cache entries in front of the model (0: off)")
		jobsN      = flag.Int("jobs", 0, "async job store capacity enabling POST /jobs (0: off)")
		jobWorkers = flag.Int("job-workers", runtime.NumCPU(), "async job pool workers")
		latency    = flag.Duration("latency", 0, "artificial per-request latency")
		logStats   = flag.Duration("log-stats", 0, "periodically log served queries and round trips (0: off)")
	)
	flag.Parse()
	backendAddrs := splitBackendList(*backendsFl)
	if *modelPath == "" && len(backendAddrs) == 0 && !*fleet {
		log.Fatal("-model is required (or -backend / -fleet for a pure router)")
	}
	if *name == "" {
		switch {
		case *modelPath != "":
			*name = *modelPath
		case len(backendAddrs) > 0:
			*name = "router(" + strings.Join(backendAddrs, ",") + ")"
		default:
			*name = "fleet-router"
		}
	}
	if *replicas < 1 {
		log.Fatalf("-replicas %d: need at least 1", *replicas)
	}
	if *expire <= 0 {
		log.Fatalf("-expire %v: need > 0", *expire)
	}

	shardCfg := api.ShardConfig{Hedge: *hedge}
	// A shard router is needed when the backend set is heterogeneous,
	// dynamic, or replicated; a plain single model otherwise.
	var model plm.Model
	var shard *api.Shard
	switch {
	case *fleet || len(backendAddrs) > 0:
		backends, err := buildBackends(*modelPath, *modelType, *replicas, backendAddrs)
		if err != nil {
			log.Fatal(err)
		}
		sh := api.NewDynamicShard(shardCfg)
		for _, b := range backends {
			if err := sh.AddBackend(b); err != nil {
				log.Fatal(err)
			}
		}
		shard, model = sh, sh
	default:
		m, err := loadReplicas(*modelPath, *modelType, *replicas, shardCfg)
		if err != nil {
			log.Fatal(err)
		}
		model = m
		if sh, ok := m.(*api.Shard); ok {
			shard = sh
		}
	}
	if *cacheN > 0 {
		// The cache fronts the whole shard: a repeated probe is answered
		// before any backend sees it, and /stats reports hits and misses.
		cached, err := api.NewResponseCache(model, *cacheN)
		if err != nil {
			log.Fatal(err)
		}
		model = cached
	} else if *cacheN < 0 {
		log.Fatalf("-cache %d: need >= 0", *cacheN)
	}

	var store *atlas.Atlas
	if *atlasPath != "" {
		a, err := atlas.Open(*atlasPath)
		if err != nil {
			log.Fatal(err)
		}
		defer a.Close()
		if n := a.Len(); n > 0 {
			log.Printf("atlas %s: %d region(s) recovered", *atlasPath, n)
		}
		store = a
	}

	srv := api.NewServer(model, *name)
	srv.Latency = *latency
	endpoints := "GET /meta, POST /predict, POST /batch, GET /stats"
	if *fleet {
		// The registry must control the raw shard, not the cache wrapper:
		// membership changes route around the cache either way, and the
		// cache keeps serving hits while the fleet churns underneath it.
		reg := api.NewRegistry(shard, api.RegistryConfig{TTL: *expire})
		reg.Mount(srv)
		reg.Start()
		defer reg.Stop()
		endpoints += ", POST /register, POST /heartbeat, POST /leave"
	}
	var runner *jobs.Runner
	var reporter openbox.StoreReporter
	if *jobsN > 0 {
		// Interpret jobs extract from a dedicated white-box copy, so the
		// closed-form compositions never contend with the serving replicas
		// (models are pure functions; the copy is cheap). Loaded only when
		// jobs are on — it would otherwise be dead weight.
		var white plm.RegionModel
		if *modelPath != "" {
			w, err := modelio.Load(*modelPath, *modelType)
			if err != nil {
				log.Fatal(err)
			}
			white = w
			if store != nil {
				// Every region the white box composes — interpret harvests
				// and census sweeps alike — lands in the durable atlas, with
				// a RAM LRU in front for the hot set. After a restart the
				// store answers without recomposing a single GEMM chain.
				white = openbox.CacheRegionModelOpts(w, openbox.StoreOptions{
					Capacity: atlasFrontEntries,
					Backing:  store,
				})
				reporter, _ = white.(openbox.StoreReporter)
			}
		}
		r, err := jobs.NewRunner(model, white, *jobsN, *jobWorkers)
		if err != nil {
			log.Fatal(err)
		}
		runner = r
		runner.Mount(srv)
		endpoints += ", POST /jobs, GET /jobs/{id}"
	} else if *jobsN < 0 {
		log.Fatalf("-jobs %d: need >= 0", *jobsN)
	}
	if store != nil {
		mountAtlas(srv, store, reporter, runner)
		endpoints += ", GET /regions/{key}, GET /atlas/snapshot"
	}
	fmt.Printf("serving %s (%d features, %d classes, %d local replica(s), %d remote backend(s)) on %s\n",
		*name, model.Dim(), model.Classes(), *replicas, len(backendAddrs), *addr)
	fmt.Println("endpoints: " + endpoints)

	if *logStats > 0 {
		// The queries/round-trips ratio shows how well clients batch: an
		// interpreter ships each d+k sample set as one /batch, which drives
		// it far above 1.
		go func() {
			for range time.Tick(*logStats) {
				q, rt := srv.Queries(), srv.Requests()
				ratio := float64(q)
				if rt > 0 {
					ratio = float64(q) / float64(rt)
				}
				log.Printf("served %d queries over %d round trips (%.1f queries/trip)", q, rt, ratio)
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var sessDone chan struct{}
	if *joinFl != "" {
		// Worker half of the fleet protocol: register with the router,
		// heartbeat, re-register on a lost lease, and leave on shutdown.
		sess := &api.FleetSession{
			Router:    normalizeURL(*joinFl),
			Advertise: advertiseURL(*addr, *advertise),
			Logf:      log.Printf,
		}
		if store != nil {
			// Routers that keep an atlas advertise it in the register ack;
			// pull their committed log so this worker starts warm instead of
			// recomposing regions the fleet has already paid for.
			router := sess.Router
			sess.OnAtlas = func(ctx context.Context) {
				added, err := pullAtlasSnapshot(ctx, router, store)
				if err != nil {
					log.Printf("atlas snapshot pull: %v", err)
					return
				}
				log.Printf("atlas: ingested %d region(s) from router snapshot", added)
			}
		}
		sessDone = make(chan struct{})
		go func() {
			defer close(sessDone)
			_ = sess.Run(ctx)
		}()
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
		// Graceful exit: say goodbye to the router (so our chunks drain to
		// the survivors immediately instead of after the TTL), then stop
		// accepting traffic.
		if sessDone != nil {
			<-sessDone
		}
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = httpSrv.Shutdown(shutCtx)
		cancel()
	}
}

// mountAtlas wires a region atlas into srv: GET /regions/{key}, GET
// /atlas/snapshot, the store's own numbers under /stats caches.regions, and
// the /stats atlas section with what caches.regions lacks (quarantined
// records, compositions, census progress). reporter and runner may be nil.
func mountAtlas(srv *api.Server, store *atlas.Atlas, reporter openbox.StoreReporter, runner *jobs.Runner) {
	srv.SetRegionSource(store.Lookup)
	srv.AddStoreStats("regions", store.Stats)
	srv.Handle("GET /atlas/snapshot", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		if _, err := store.WriteSnapshot(w); err != nil {
			log.Printf("atlas snapshot: %v", err)
		}
	})
	srv.SetAtlasStatus(func() api.AtlasStatus {
		as := api.AtlasStatus{Quarantined: store.Quarantined()}
		if reporter != nil {
			as.Compositions = reporter.RegionCompositions()
		}
		if runner != nil {
			done, total := runner.CensusProgress()
			as.CensusDone, as.CensusTotal = done, total
			if total > 0 {
				as.CensusProgress = float64(done) / float64(total)
			}
		}
		return as
	})
}
