package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"bespoke/internal/asm"
	"bespoke/internal/core"
)

// maxBodyBytes caps a request body; a larger one is rejected with 400.
const maxBodyBytes = 8 << 20

// Config tunes a Server.
type Config struct {
	// Cache serves hits and memoizes cold runs. nil builds a default
	// bounded in-memory cache (no disk layer).
	Cache *core.TailorCache
	// Workers is the cold-tailor pool width (<= 0 means GOMAXPROCS).
	Workers int
	// QueueDepth caps cold tailors in flight (queued + running); a
	// request that would exceed it is rejected with 429 and a
	// Retry-After estimate. <= 0 means 4x Workers.
	QueueDepth int
	// DefaultTimeout bounds a request's flow when the request does not
	// set timeout_ms (<= 0 means 2 minutes).
	DefaultTimeout time.Duration
	// MaxTimeout clamps requested timeouts (<= 0 means 10 minutes).
	MaxTimeout time.Duration
	// Logf, when set, receives one line per served request (method,
	// path, status, source, latency). nil disables logging.
	Logf func(format string, args ...any)
}

// Stats is a point-in-time snapshot of the server counters.
type Stats struct {
	// Requests counts POST /v1/tailor requests accepted for processing
	// (malformed requests included; stats/health endpoints excluded).
	Requests int64 `json:"requests"`
	// Memory/Disk/Cold/Coalesced tally how successful tailor responses
	// were served.
	Memory    int64 `json:"memory"`
	Disk      int64 `json:"disk"`
	Cold      int64 `json:"cold"`
	Coalesced int64 `json:"coalesced"`
	// BadRequests counts 400s, Rejected 429s, Deadline 504s, Cancelled
	// client-gone 499s, FlowErrors 422/500s.
	BadRequests int64 `json:"bad_requests"`
	Rejected    int64 `json:"rejected"`
	Deadline    int64 `json:"deadline"`
	Cancelled   int64 `json:"cancelled"`
	FlowErrors  int64 `json:"flow_errors"`
	// QueuedCold and ActiveCold are gauges over the worker pool: cold
	// requests admitted but waiting for a worker, and flows running.
	QueuedCold int64 `json:"queued_cold"`
	ActiveCold int64 `json:"active_cold"`
	// ColdMsEWMA is an exponentially weighted moving average of cold
	// flow latency, the basis of the Retry-After estimate.
	ColdMsEWMA float64 `json:"cold_ms_ewma"`
	// Cache is the underlying TailorCache snapshot.
	Cache core.CacheStats `json:"cache"`
}

// Server is the tailoring service. Create with New; its ServeHTTP
// serves the endpoints documented in the package comment.
type Server struct {
	cfg     Config
	cache   *core.TailorCache
	flights *flightGroup
	slots   chan struct{}
	mux     *http.ServeMux

	requests    atomic.Int64
	srcMemory   atomic.Int64
	srcDisk     atomic.Int64
	srcCold     atomic.Int64
	srcCoalesce atomic.Int64
	badRequests atomic.Int64
	rejected    atomic.Int64
	deadline    atomic.Int64
	cancelled   atomic.Int64
	flowErrors  atomic.Int64
	queuedCold  atomic.Int64
	activeCold  atomic.Int64
	coldMsEWMA  atomic.Uint64 // float64 bits
}

// New builds a Server from cfg, applying defaults for unset fields.
func New(cfg Config) *Server {
	if cfg.Cache == nil {
		cfg.Cache = core.NewTailorCache()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 2 * time.Minute
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 10 * time.Minute
	}
	s := &Server{
		cfg:     cfg,
		cache:   cfg.Cache,
		flights: newFlightGroup(),
		slots:   make(chan struct{}, cfg.Workers),
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /v1/tailor", s.handleTailor)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:    s.requests.Load(),
		Memory:      s.srcMemory.Load(),
		Disk:        s.srcDisk.Load(),
		Cold:        s.srcCold.Load(),
		Coalesced:   s.srcCoalesce.Load(),
		BadRequests: s.badRequests.Load(),
		Rejected:    s.rejected.Load(),
		Deadline:    s.deadline.Load(),
		Cancelled:   s.cancelled.Load(),
		FlowErrors:  s.flowErrors.Load(),
		QueuedCold:  s.queuedCold.Load(),
		ActiveCold:  s.activeCold.Load(),
		ColdMsEWMA:  ewmaFloat(&s.coldMsEWMA),
		Cache:       s.cache.Stats(),
	}
}

// Tailor serves one parsed request under ctx: probe the cache layers,
// then coalesce with identical in-flight requests, then run the flow on
// the bounded pool. It returns the result, the serving source
// ("memory", "disk", "cold" or "coalesced"), and the flow error if any.
// It is the transport-independent core of the HTTP handler, exported so
// embedders (and tests) can serve without a socket.
func (s *Server) Tailor(ctx context.Context, progs []*asm.Program, ws []*core.Workload, opts core.Options) (*core.Result, string, error) {
	if res, src, ok, err := s.cache.Probe(ctx, progs, ws, opts); ok || err != nil {
		return res, src.String(), err
	}
	key, err := s.cache.Key(progs, ws, opts)
	if err != nil {
		return nil, "", err
	}
	res, joined, err := s.flights.do(ctx, key, func(fctx context.Context) (*core.Result, error) {
		return s.runCold(fctx, progs, ws, opts)
	})
	src := "cold"
	if joined {
		src = "coalesced"
	}
	return res, src, err
}

// runCold admits the flow into the bounded pool and runs it. The
// admission controller counts queued plus running cold tailors; beyond
// QueueDepth the request is rejected immediately (the handler turns
// that into 429 + Retry-After).
func (s *Server) runCold(ctx context.Context, progs []*asm.Program, ws []*core.Workload, opts core.Options) (*core.Result, error) {
	if n := s.queuedCold.Add(1); n > int64(s.cfg.QueueDepth) {
		s.queuedCold.Add(-1)
		return nil, errQueueFull
	}
	defer s.queuedCold.Add(-1)
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-s.slots }()
	s.activeCold.Add(1)
	defer s.activeCold.Add(-1)

	t0 := time.Now()
	res, _, err := s.cache.TailorTraced(ctx, progs, ws, opts)
	if err == nil {
		updateEWMA(&s.coldMsEWMA, float64(time.Since(t0).Milliseconds()))
	}
	return res, err
}

func (s *Server) handleTailor(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	s.requests.Add(1)

	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.badRequests.Add(1)
		s.writeError(w, r, badRequest("decoding request body: %v", err), t0)
		return
	}
	progs, ws, opts, err := req.compile()
	if err != nil {
		s.badRequests.Add(1)
		s.writeError(w, r, badRequest("%v", err), t0)
		return
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	res, src, err := s.Tailor(ctx, progs, ws, opts)
	if err != nil {
		_, detail := classify(err, r.Context())
		switch detail.Kind {
		case "queue-full":
			s.rejected.Add(1)
			retry := s.retryAfter()
			detail.RetryAfterMs = retry.Milliseconds()
			w.Header().Set("Retry-After", strconv.Itoa(int(retry.Seconds()+1)))
		case "client-gone":
			s.cancelled.Add(1)
		case "deadline":
			s.deadline.Add(1)
		default:
			s.flowErrors.Add(1)
		}
		s.writeError(w, r, detail, t0)
		return
	}

	switch src {
	case "memory":
		s.srcMemory.Add(1)
	case "disk":
		s.srcDisk.Add(1)
	case "cold":
		s.srcCold.Add(1)
	case "coalesced":
		s.srcCoalesce.Add(1)
	}
	key, _ := s.cache.Key(progs, ws, opts)
	body := buildResponse(res, key, src, msSince(t0), req.IncludeNetlist)
	s.writeJSON(w, http.StatusOK, body)
	s.logf(r, http.StatusOK, src, t0)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Stats())
}

// handleHealthz reports liveness and readiness in one probe: 200 while
// the server can admit a cold tailor, 503 with status "degraded" once
// the cold-flow queue is at the admission-control cap (every further
// cold request would be rejected with 429), so load balancers can shed
// traffic before clients see rejections.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type health struct {
		Status string `json:"status"`
	}
	if s.queuedCold.Load() >= int64(s.cfg.QueueDepth) {
		s.writeJSON(w, http.StatusServiceUnavailable, health{Status: "degraded"})
		return
	}
	s.writeJSON(w, http.StatusOK, health{Status: "ok"})
}

// retryAfter estimates when a slot should free up: the queue's worth of
// cold flows at the observed cold latency, spread over the pool.
func (s *Server) retryAfter() time.Duration {
	cold := ewmaFloat(&s.coldMsEWMA)
	if cold <= 0 {
		cold = 1000
	}
	depth := float64(s.queuedCold.Load())
	est := time.Duration(depth*cold/float64(s.cfg.Workers)) * time.Millisecond
	if est < time.Second {
		est = time.Second
	}
	if est > time.Minute {
		est = time.Minute
	}
	return est
}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, d ErrorDetail, t0 time.Time) {
	s.writeJSON(w, d.Status, ErrorBody{Error: d})
	s.logf(r, d.Status, d.Kind, t0)
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func (s *Server) logf(r *http.Request, status int, note string, t0 time.Time) {
	if s.cfg.Logf != nil {
		s.cfg.Logf("%s %s %d %s %.1fms", r.Method, r.URL.Path, status, note, msSince(t0))
	}
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// updateEWMA folds one sample into the float64-bits atomic (alpha 0.2).
func updateEWMA(a *atomic.Uint64, sample float64) {
	for {
		old := a.Load()
		cur := floatFromBits(old)
		next := sample
		if cur > 0 {
			next = 0.8*cur + 0.2*sample
		}
		if a.CompareAndSwap(old, bitsFromFloat(next)) {
			return
		}
	}
}

func ewmaFloat(a *atomic.Uint64) float64 { return floatFromBits(a.Load()) }

func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
func bitsFromFloat(f float64) uint64 { return math.Float64bits(f) }
