package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/nn"
	"repro/internal/openbox"
	"repro/internal/plm"
)

// modelSeed fixes the served network. Workload seeds vary only the inputs,
// so every run of every seed measures the same program.
const modelSeed = 1

// nWorkers is the worker count behind the router; each closed-loop batch
// client has one worker's worth of CPU on a 2-vCPU machine.
const nWorkers = 2

// hidden are the paper's image-architecture hidden widths; the input width
// is the workload's d and the head has C=10 classes.
var hidden = []int{256, 128, 100}

// layerSizes are the network's widths from input to the C=10 head.
func layerSizes(d int) []int { return append(append([]int{d}, hidden...), 10) }

// newNetwork builds the seeded, untrained d-256-128-100-10 PLNN. Every call
// returns an independent copy with identical parameters, the way each
// `plmserve -model` process loads its own copy of one model file.
func newNetwork(d int) *nn.Network {
	return nn.New(rand.New(rand.NewSource(modelSeed)), layerSizes(d)...)
}

// stack is one in-process serving deployment: two workers assembled like
// `plmserve -model`, a router assembled like `plmserve -backend w1,w2`
// (api.NewDynamicShard over remote backends), and the benchmark's clients
// dialed at the router. Everything talks over loopback TCP with the
// program's defaults: no response cache, no hedging, binary codec
// negotiated through /meta.
type stack struct {
	workers  []*api.Server
	router   *api.Server
	routeURL string
	servers  []*http.Server
	tr       *tracer // nil when the run is untraced
}

// newStack starts the workers and the router. With a tracer, each server
// gets the handler middleware, the router's shard and the workers' models
// get span decorators, and every HTTP client (the router's backend clients
// included) sends through the tracing RoundTripper.
func newStack(d int, tr *tracer) (*stack, error) {
	s := &stack{tr: tr}
	var backends []api.Backend
	for i := 0; i < nWorkers; i++ {
		var model plm.Model = &openbox.PLNN{Net: newNetwork(d)}
		if tr != nil {
			m, err := tr.wrapModel(model, spanForward, nil, nil)
			if err != nil {
				s.close()
				return nil, err
			}
			model = m
		}
		srv := api.NewServer(model, fmt.Sprintf("worker%d", i+1))
		url, err := s.serve(srv, spanWorker)
		if err != nil {
			s.close()
			return nil, err
		}
		s.workers = append(s.workers, srv)
		client, err := api.Dial(url, s.httpClient(nil), 1)
		if err != nil {
			s.close()
			return nil, err
		}
		backends = append(backends, api.NewRemoteBackend(client))
	}
	shard := api.NewDynamicShard(api.ShardConfig{})
	for _, b := range backends {
		if err := shard.AddBackend(b); err != nil {
			s.close()
			return nil, err
		}
	}
	var routed plm.Model = shard
	if tr != nil {
		m, err := tr.wrapModel(shard, spanShard, nil, nil)
		if err != nil {
			s.close()
			return nil, err
		}
		routed = m
	}
	s.router = api.NewServer(routed, "router(worker1,worker2)")
	url, err := s.serve(s.router, spanRouter)
	if err != nil {
		s.close()
		return nil, err
	}
	s.routeURL = url
	return s, nil
}

// serve listens on a loopback port and serves srv there, behind the
// tracing middleware when the stack is traced.
func (s *stack) serve(srv *api.Server, span string) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	var h http.Handler = srv
	if s.tr != nil {
		h = s.tr.middleware(span, h)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.servers = append(s.servers, hs)
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), nil
}

// httpClient returns nil (api.Dial's own default client) on an untraced
// stack, and a client with the tracing RoundTripper on a traced one. site
// names the caller whose current span parents requests that carry no span
// in their context.
func (s *stack) httpClient(site *site) *http.Client {
	if s.tr == nil {
		return nil
	}
	return s.tr.httpClient(site)
}

// dial connects one benchmark client to the router; retries matches the
// openapi CLI.
func (s *stack) dial(site *site) (*api.Client, error) {
	return api.Dial(s.routeURL, s.httpClient(site), 2)
}

// close stops every server and waits for their handlers to return.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(s.servers) - 1; i >= 0; i-- {
		s.servers[i].Shutdown(ctx)
	}
	s.servers = nil
}

// workerQueries returns how many predictions each worker served.
func (s *stack) workerQueries() []int64 {
	out := make([]int64, len(s.workers))
	for i, w := range s.workers {
		out[i] = w.Queries()
	}
	return out
}
