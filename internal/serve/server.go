// Package serve is the HTTP front door of the repository: a model-serving
// daemon that turns the batch experiment substrate — mean-field solvers,
// the finite-n simulator, and the global scheduler pool — into network
// endpoints suitable for heavy interactive traffic.
//
// The serving strategy follows the cost structure of the paper's two
// tiers. Mean-field fixed points and ODE trajectories are cheap
// deterministic functions of the request parameters, so they are served
// through an LRU result cache keyed by a canonical request hash; repeats
// are O(1). Finite-n simulations are the expensive tier: they run on the
// shared sched.Pool behind admission control (a bounded number of
// concurrently admitted requests, 429 + Retry-After beyond it) with
// per-request deadlines, and their results — deterministic given the seed
// — are cached too. Concurrent identical requests of either tier coalesce
// onto one computation via a singleflight group whose compute context dies
// when the last interested caller disconnects, which the scheduler turns
// into skipped replications.
//
// Endpoints:
//
// With a cluster.Node attached (Config.Cluster), the daemon becomes one
// replica of a peer group: cached requests are routed to their
// consistent-hash owner (so N replicas share one logical cache), in-flight
// simulate computations are offered to idle peers for work stealing, and
// the cluster RPC endpoints are mounted behind the same route barrier as
// everything else. Every cluster path degrades to the local computation —
// a partitioned or solitary replica serves exactly as PR 4's daemon did.
//
//	POST /v1/fixedpoint       mean-field fixed point (wsfixed -json, byte-identical)
//	POST /v1/ode              integrated trajectory (wsode -json, byte-identical)
//	POST /v1/simulate         finite-n replication set on the scheduler pool
//	GET  /v1/stream/ode       NDJSON stream of trajectory points
//	GET  /v1/cluster/load     peer gossip: stealable work on this replica
//	POST /v1/cluster/steal    peer RPC: lease a batch of queued replications
//	POST /v1/cluster/complete peer RPC: deliver stolen results
//	GET  /healthz             liveness
//	GET  /readyz              readiness (503 while draining; cluster status line)
//	GET  /metrics             Prometheus text exposition
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/breaker"
	"repro/internal/chaos"
	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/meanfield"
	"repro/internal/metrics"
	"repro/internal/numeric"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/solver"
)

// Chaos injection sites owned by this package. SiteSimulate is the HTTP
// seam (delay, injected 500, or handler panic on /v1/simulate only — the
// cached endpoints and the control plane are never injected, which is what
// lets the chaos harness assert they stay 200 during a storm).
// SiteFixedPoint is the numeric seam: the fixed-point solver's iterate hook.
const (
	SiteSimulate   = "serve.simulate"
	SiteFixedPoint = "numeric.fixedpoint"
)

// Config tunes a Server. The zero value serves with sensible defaults.
type Config struct {
	// Pool is the scheduler pool simulations run on. When nil the server
	// creates its own with Workers workers and owns its lifecycle.
	Pool *sched.Pool
	// Workers sizes the server-owned pool (0 = GOMAXPROCS); ignored when
	// Pool is set.
	Workers int
	// CacheEntries bounds the result cache (default 512).
	CacheEntries int
	// QueueDepth is the number of simulate requests admitted concurrently
	// (in flight on the pool or waiting for it); beyond it requests are
	// rejected with 429 (default 16).
	QueueDepth int
	// SimDeadline caps the end-to-end compute time of one simulate request
	// (default 60s). A request may shorten it with "deadline_sec".
	SimDeadline time.Duration
	// StreamWriteTimeout bounds each write of a streaming response (default
	// 10s). Unlike http.Server.WriteTimeout it is re-armed per write, so a
	// long stream to a live client survives while a stalled client is cut.
	StreamWriteTimeout time.Duration
	// Chaos, when non-nil, injects faults at the server's seams: the
	// /v1/simulate handler chain (SiteSimulate), the fixed-point solver's
	// iterate hook (SiteFixedPoint), and — via Pool.SetChaos — the
	// scheduler's replication path. An inert injector (zero probabilities)
	// costs one nil/probability check per seam. Leave nil in production.
	Chaos *chaos.Injector
	// Breaker tunes the /v1/simulate circuit breaker; zero fields take the
	// breaker.Config defaults.
	BreakerWindow     int
	BreakerThreshold  float64
	BreakerMinSamples int
	BreakerCooldown   time.Duration
	// Logger receives one structured line per request; nil discards.
	Logger *slog.Logger
	// Cluster, when non-nil, attaches this server to a peer group: its RPC
	// endpoints are mounted, cached requests are routed to their
	// consistent-hash owner, and simulate computations become stealable.
	// The caller owns the node's lifecycle (Start after the listener is up,
	// Close before the pool).
	Cluster *cluster.Node
}

// Server is the serving daemon. Create with New, expose via Handler, and
// Close when done (after draining HTTP traffic).
type Server struct {
	cfg      Config
	pool     *sched.Pool
	ownPool  bool
	cache    *lruCache
	flight   *flightGroup
	admit    chan struct{}
	met      meters
	mux      *http.ServeMux
	log      *slog.Logger
	chaos    *chaos.Injector
	brk      *breaker.Breaker
	cluster  *cluster.Node
	draining atomic.Bool
}

// WithDefaults returns c with its zero settings, and a QueueDepth below
// one, replaced by their defaults. The Breaker fields stay as they are:
// breaker.New defaults them.
func (c Config) WithDefaults() Config {
	if c.CacheEntries == 0 {
		c.CacheEntries = 512
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.SimDeadline == 0 {
		c.SimDeadline = 60 * time.Second
	}
	if c.StreamWriteTimeout == 0 {
		c.StreamWriteTimeout = 10 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.WithDefaults()
	s := &Server{
		cfg:     cfg,
		pool:    cfg.Pool,
		cache:   newLRUCache(cfg.CacheEntries),
		flight:  newFlightGroup(),
		admit:   make(chan struct{}, cfg.QueueDepth),
		met:     newMeters(),
		mux:     http.NewServeMux(),
		log:     cfg.Logger,
		chaos:   cfg.Chaos,
		cluster: cfg.Cluster,
	}
	s.brk = breaker.New(breaker.Config{
		Window:     cfg.BreakerWindow,
		Threshold:  cfg.BreakerThreshold,
		MinSamples: cfg.BreakerMinSamples,
		Cooldown:   cfg.BreakerCooldown,
		OnTransition: func(from, to breaker.State) {
			s.met.breakerTransitions.With(from.String(), to.String()).Add(1)
			s.log.Warn("breaker transition", "route", "/v1/simulate",
				"from", from.String(), "to", to.String())
		},
	})
	if s.pool == nil {
		s.pool = sched.New(cfg.Workers)
		s.ownPool = true
	}
	if s.chaos != nil {
		s.pool.SetChaos(s.chaos)
	}
	s.mux.HandleFunc("POST /v1/fixedpoint", s.route("/v1/fixedpoint", s.handleFixedPoint))
	s.mux.HandleFunc("POST /v1/ode", s.route("/v1/ode", s.handleODE))
	s.mux.HandleFunc("POST /v1/simulate",
		s.route("/v1/simulate", s.withBreaker(s.withChaos(SiteSimulate, s.handleSimulate))))
	s.mux.HandleFunc("GET /v1/stream/ode", s.route("/v1/stream/ode", s.handleStreamODE))
	s.mux.HandleFunc("GET /healthz", s.route("/healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.route("/readyz", s.handleReadyz))
	s.mux.HandleFunc("GET /metrics", s.route("/metrics", s.handleMetrics))
	if s.cluster != nil {
		// Cluster RPCs ride behind the same route barrier as client traffic:
		// panic containment, request accounting, and structured logging.
		for pattern, h := range s.cluster.Endpoints() {
			name := pattern
			if i := strings.IndexByte(pattern, ' '); i >= 0 {
				name = pattern[i+1:]
			}
			s.mux.HandleFunc(pattern, s.route(name, h))
		}
	}
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// SetDraining flips the readiness endpoint: a draining server answers
// /readyz with 503 so load balancers stop routing to it, while in-flight
// and even new requests still complete. Call before http.Server.Shutdown.
// With a cluster attached, peers are told too — a draining replica grants
// no steal leases and steals nothing for itself.
func (s *Server) SetDraining(d bool) {
	s.draining.Store(d)
	if s.cluster != nil {
		s.cluster.SetDraining(d)
	}
}

// Close releases the server-owned scheduler pool (a no-op for a shared
// pool). Call only after HTTP traffic has drained.
func (s *Server) Close() {
	if s.ownPool {
		s.pool.Close()
	}
}

// CacheStats reports lifetime cache hits and misses (used by tests and the
// example load generator).
func (s *Server) CacheStats() (hits, misses int64) {
	return s.met.cacheHits.Get(), s.met.cacheMisses.Get()
}

// statusWriter captures the status code and body size for logging/metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// Flush forwards to the underlying flusher so streaming handlers work
// through the wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController, which is
// how streaming handlers re-arm per-write deadlines through the wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// route wraps a handler with per-request accounting, structured logging,
// and the panic barrier: a panicking handler (an engine bug, or a chaos
// injection) is converted into a 500 instead of killing the daemon's
// connection goroutine silently or crashing a test harness. The panic is
// still counted (ws_serve_panics_total) and logged with its value. When the
// handler had already written a partial body, no coherent 500 can be sent;
// the request is aborted with http.ErrAbortHandler so the client sees a
// truncated response rather than a silently complete-looking one.
func (s *Server) route(name string, h http.HandlerFunc) http.HandlerFunc {
	// The route label is fixed per handler: its latency series and its 200
	// counter are resolved on first use, not looked up per request.
	latency := sync.OnceValue(func() *metrics.Histogram { return s.met.latency.With(name) })
	ok := sync.OnceValue(func() *metrics.Value { return s.met.requests.With(name, "200") })
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		s.met.inFlight.Add(1)
		defer func() {
			v := recover()
			if v != nil {
				s.met.servePanics.Add(1)
				s.log.Error("handler panic", "route", name, "panic", fmt.Sprint(v))
				if sw.status == 0 {
					s.writeError(sw, &httpError{
						status: http.StatusInternalServerError,
						code:   "panic",
						msg:    fmt.Sprintf("internal panic: %v", v),
					})
				}
			}
			if sw.status == 0 {
				sw.status = http.StatusOK
			}
			s.met.inFlight.Add(-1)
			elapsed := time.Since(start)
			if sw.status == http.StatusOK {
				ok().Add(1)
			} else {
				s.met.requests.With(name, strconv.Itoa(sw.status)).Add(1)
			}
			latency().Observe(elapsed.Seconds())
			s.log.Info("request",
				"method", r.Method,
				"route", name,
				"status", sw.status,
				"bytes", sw.bytes,
				"duration_ms", float64(elapsed.Microseconds())/1000,
				"remote", r.RemoteAddr,
			)
			if v != nil && sw.bytes > 0 && sw.status != http.StatusInternalServerError {
				panic(http.ErrAbortHandler)
			}
		}()
		h(sw, r)
	}
}

// withBreaker gates a handler behind the simulate circuit breaker: an open
// breaker answers 503 + Retry-After without running the handler, and every
// admitted request reports its outcome (failure = 5xx or panic) back to the
// breaker's sliding window.
func (s *Server) withBreaker(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ok, gen, retry := s.brk.Allow()
		if !ok {
			s.met.breakerShortCircs.Add(1)
			secs := int(math.Ceil(retry.Seconds()))
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			s.writeError(w, &httpError{
				status: http.StatusServiceUnavailable,
				code:   "breaker_open",
				msg:    "simulate circuit breaker open; retry later",
			})
			return
		}
		defer func() {
			status := 0
			if sw, isSW := w.(*statusWriter); isSW {
				status = sw.status
			}
			if v := recover(); v != nil {
				s.brk.Record(gen, true)
				panic(v) // the route barrier renders the 500
			}
			s.brk.Record(gen, status >= http.StatusInternalServerError)
		}()
		h(w, r)
	}
}

// withChaos is the HTTP injection seam: before the real handler runs, the
// site may draw a latency fault (sleep), an error fault (injected 500), or
// a panic fault (contained by the route barrier). With a nil or inert
// injector the middleware is three cheap no-op probes.
func (s *Server) withChaos(site string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.chaos.Sleep(site)
		if err := s.chaos.Err(site); err != nil {
			s.writeError(w, err)
			return
		}
		s.chaos.MaybePanic(site)
		h(w, r)
	}
}

// errOverloaded marks an admission-control rejection.
var errOverloaded = errors.New("serve: admission queue full")

// writeError renders an error response as JSON with a human-readable
// "error" message and a machine-readable "code". httpError carries its own
// status and code; well-known sentinels are mapped here: overload → 429
// with a Retry-After hint, numeric failures → 422 (a diverged or
// unconverged solve is the request's fault, not the server's), replication
// panics and injected faults → 500, context expirations → 504 (deadline)
// or 499-style client-closed.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	var he *httpError
	status := http.StatusInternalServerError
	code := "internal"
	switch {
	case errors.As(err, &he):
		status = he.status
		code = he.code
		if code == "" {
			code = "error"
		}
	case errors.Is(err, errOverloaded):
		w.Header().Set("Retry-After", "1")
		status = http.StatusTooManyRequests
		code = "overloaded"
	case errors.Is(err, numeric.ErrDiverged):
		status = http.StatusUnprocessableEntity
		code = "diverged"
	case errors.Is(err, solver.ErrNotConverged):
		status = http.StatusUnprocessableEntity
		code = "not_converged"
	case errors.Is(err, sched.ErrReplicationPanic):
		status = http.StatusInternalServerError
		code = "replication_panic"
	case errors.Is(err, chaos.ErrInjected):
		status = http.StatusInternalServerError
		code = "injected"
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
		code = "deadline"
	case errors.Is(err, context.Canceled):
		// Client went away; nothing useful to send.
		status = 499
		code = "client_closed"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\n  \"error\": %q,\n  \"code\": %q\n}\n", err.Error(), code)
}

// writeBody serves pre-rendered JSON bytes.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// renderJSON renders v exactly as the CLIs' -json mode does (indented, with
// a trailing newline), so cached bodies are byte-identical to CLI output.
func renderJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := cliutil.WriteJSON(&buf, v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// serveCached implements the shared read path: it writes key's body from
// the result cache on a hit; on a miss, unless relay (when non-nil) has
// written the response, it computes the body, coalesced with concurrent
// identical requests, with timeout bounding the compute context (0 =
// none). The computation fills the cache itself, so its result is kept
// even when the caller that started it has left.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key string, timeout time.Duration,
	relay func() bool, compute func(ctx context.Context) ([]byte, error)) {

	if body, ok := s.cache.Get(key); ok {
		s.met.cacheHits.Add(1)
		writeBody(w, body)
		return
	}
	if relay != nil && relay() {
		return // a relayed request is neither a hit nor a miss
	}
	s.met.cacheMisses.Add(1)
	body, err, shared := s.flight.Do(r.Context(), key, timeout, func(ctx context.Context) ([]byte, error) {
		body, err := compute(ctx)
		if err == nil {
			s.cache.Add(key, body)
		}
		return body, err
	})
	if shared {
		s.met.coalesced.Add(1)
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeBody(w, body)
}

// solveError classifies a solve failure: typed numeric failures keep their
// identity so writeError can map them to 422 with a machine-readable code;
// anything else (a model the spec layer rejected) is a bad request.
func solveError(err error) error {
	if errors.Is(err, solver.ErrNotConverged) || errors.Is(err, numeric.ErrDiverged) {
		return err
	}
	return errBadRequest("%v", err)
}

// simSpecError classifies a simulate-spec failure: engine-capability
// problems (an unknown engine name, Tracked out of range, or a variant the
// selected engine cannot run) and workload-model problems (an unknown
// service distribution, fit parameters outside the model's domain, an
// arrival spec beyond the serving caps) are unprocessable — the request is
// well-formed but names a computation no engine or workload model provides
// — while plain parameter errors stay bad requests.
func simSpecError(err error) error {
	var code string
	switch {
	case errors.Is(err, experiments.ErrEngineSpec):
		code = "bad_engine"
	case errors.Is(err, experiments.ErrWorkloadSpec):
		code = "bad_workload"
	default:
		return errBadRequest("%v", err)
	}
	return &httpError{status: http.StatusUnprocessableEntity, code: code, msg: err.Error()}
}

// relayToOwner implements cluster request routing for the cached
// endpoints: called on a local cache miss, it proxies a request whose
// consistent-hash owner is a healthy peer there (so N replicas share one
// logical cache instead of computing everything N times), and a 200 fills
// the local cache on the way through. Returns true when the response has
// been written. False — no cluster, already-forwarded request (loop
// prevention), self-owned key, or any forwarding failure — means "serve
// locally", which is always safe: forwarding is an optimization, never a
// dependency.
func (s *Server) relayToOwner(w http.ResponseWriter, r *http.Request, route, key string, rawBody []byte) bool {
	if s.cluster == nil {
		return false
	}
	if r.Header.Get(cluster.ForwardedHeader) != "" {
		s.cluster.NoteForwardedIn()
		return false
	}
	res, ok := s.cluster.Forward(r.Context(), route, key, rawBody)
	if !ok {
		return false
	}
	if res.Status == http.StatusOK {
		s.cache.Add(key, res.Body) // repeats of this key are now local hits
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(res.Status)
	w.Write(res.Body)
	return true
}

// readRaw buffers a request body so it can be both decoded locally and
// forwarded verbatim to a peer. The limit matches decodeStrict's.
func readRaw(r io.Reader) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(r, maxBodyBytes))
	if err != nil {
		return nil, errBadRequest("reading request body: %v", err)
	}
	return b, nil
}

// handleFixedPoint serves POST /v1/fixedpoint.
func (s *Server) handleFixedPoint(w http.ResponseWriter, r *http.Request) {
	var spec experiments.FixedPointSpec
	s.serveModel(w, r, "/v1/fixedpoint", "fp", &spec, func() (any, error) {
		// The numeric chaos seam rides in through the solver's iterate
		// hook; PerturbFunc is nil (no hook at all) unless perturbation
		// injection is configured.
		rep, _, err := spec.SolveWith(meanfield.SolveOptions{
			Perturb: s.chaos.PerturbFunc(SiteFixedPoint),
		})
		return rep, err
	})
}

// handleODE serves POST /v1/ode.
func (s *Server) handleODE(w http.ResponseWriter, r *http.Request) {
	var spec experiments.ODESpec
	s.serveModel(w, r, "/v1/ode", "ode", &spec, func() (any, error) { return spec.Integrate() })
}

// serveModel is the shared body of the cached mean-field endpoints: read,
// strictly decode and validate spec, then serve from the result cache, or
// relay to the key's cluster owner, or run solve (which builds the model)
// and render its report as the CLI's -json does.
func (s *Server) serveModel(w http.ResponseWriter, r *http.Request, route, keyPrefix string,
	spec modelSpec, solve func() (any, error)) {

	raw, err := readRaw(r.Body)
	if err != nil {
		s.writeError(w, err)
		return
	}
	key, err := modelKey(raw, keyPrefix, spec)
	if err != nil {
		s.writeError(w, err)
		return
	}
	relay := func() bool { return s.relayToOwner(w, r, route, key, raw) }
	s.serveCached(w, r, key, 0, relay, func(context.Context) ([]byte, error) {
		rep, err := solve()
		if err != nil {
			return nil, solveError(err)
		}
		return renderJSON(rep)
	})
}

// SimulateRequest is the body of POST /v1/simulate: a simulation spec plus
// serving-only knobs that do not participate in the cache key.
type SimulateRequest struct {
	experiments.SimSpec
	// DeadlineSec, when positive, shortens the server's simulate deadline
	// for this request. It cannot extend it.
	DeadlineSec float64 `json:"deadline_sec,omitempty"`
}

// handleSimulate serves POST /v1/simulate.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		s.writeError(w, err)
		return
	}
	opts, err := req.SimSpec.Options()
	if err != nil {
		s.writeError(w, simSpecError(err))
		return
	}
	key, err := canonicalKey("sim", &req.SimSpec)
	if err != nil {
		s.writeError(w, err)
		return
	}
	timeout := s.cfg.SimDeadline
	if req.DeadlineSec > 0 {
		if d := time.Duration(req.DeadlineSec * float64(time.Second)); d < timeout {
			timeout = d
		}
	}
	spec := req.SimSpec // normalized by Options
	s.serveCached(w, r, key, timeout, nil, func(ctx context.Context) ([]byte, error) {
		return s.computeSim(ctx, key, &spec, opts)
	})
}

// computeSim is the admission-controlled slow path of one simulate
// computation: acquire a queue slot (or reject), dispatch the replication
// set onto the pool, and wait under the compute context. Replications left
// queued when the context dies are skipped by the scheduler, not run. With
// a cluster attached, the in-flight cell is offered to idle peers — a
// stolen replication is byte-identical to the local run it displaces, so
// the rendered report is the same either way.
func (s *Server) computeSim(ctx context.Context, key string, spec *experiments.SimSpec, opts sim.Options) ([]byte, error) {
	select {
	case s.admit <- struct{}{}:
	default:
		s.met.simRejected.Add(1)
		return nil, errOverloaded
	}
	s.met.simQueueDepth.Add(1)
	defer func() {
		<-s.admit
		s.met.simQueueDepth.Add(-1)
	}()

	cell, err := s.pool.Sim(opts, spec.Reps)
	if err != nil {
		return nil, simSpecError(err)
	}
	if s.cluster != nil {
		release := s.cluster.Offer(key, *spec, cell)
		defer release()
	}
	agg, aggErr := cell.AggregateCtx(ctx)
	ran := cell.Ran()
	stolen := cell.Stolen() // peer-computed replications are neither local runs nor skips
	s.met.simRuns.Add(ran)
	s.met.simCancelled.Add(int64(spec.Reps) - ran - stolen)
	if aggErr != nil {
		if errors.Is(aggErr, sched.ErrReplicationPanic) {
			s.met.replicationPanics.Add(1)
		}
		return nil, aggErr
	}
	for _, res := range agg.Results {
		res.Metrics.Counters.Each(func(kind string, v int64) { s.met.simEvents[kind].Add(v) })
	}
	return renderJSON(experiments.BuildSimReport(spec, agg))
}

// handleHealthz serves GET /healthz: process liveness, nothing more.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz serves GET /readyz: 200 while accepting traffic, 503 once
// draining.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	} else {
		fmt.Fprintln(w, "ready")
	}
	// A standalone replica is still ready — it serves everything locally.
	// The status line makes the degradation observable to operators.
	if s.cluster != nil {
		fmt.Fprintln(w, s.cluster.ClusterStatus())
	}
}

// handleMetrics serves GET /metrics in Prometheus text format: the daemon's
// registry, then the cluster node's. State owned elsewhere (the cache, the
// breaker, the chaos injector) is copied into its series just before
// writing.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.met.cacheEntries.Set(int64(s.cache.Len()))
	s.met.breakerState.Set(int64(s.brk.Current()))
	s.chaos.Each(func(site, kind string, n uint64) {
		s.met.chaosInjections.With(site, kind).Set(int64(n))
	})
	p := metrics.NewPromWriter()
	s.met.reg.Write(p)
	if s.cluster != nil {
		s.cluster.EmitProm(p)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p.WriteTo(w)
}
