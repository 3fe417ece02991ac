package serve

import "repro/internal/metrics"

// latencyBounds are the request-latency histogram bucket upper bounds in
// seconds, exponential from 1ms to ~65s — wide enough for both cached
// fixed-point hits and long finite-n simulations.
var latencyBounds = []float64{0.001, 0.004, 0.016, 0.064, 0.256, 1.024, 4.096, 16.384, 65.536}

// meters are the daemon's metric families and resolved series, all held by
// one metrics.Registry: request counts and latencies by route and status,
// cache and coalescer accounting, admission queue state, breaker and chaos
// state, and the lifetime simulator counters of every replication served.
type meters struct {
	reg *metrics.Registry

	requests *metrics.Family[metrics.Value]     // {route, code}
	latency  *metrics.Family[metrics.Histogram] // {route}

	cacheHits, cacheMisses, cacheEntries, coalesced *metrics.Value

	simQueueDepth, simRejected, simRuns, simCancelled *metrics.Value

	inFlight, servePanics, replicationPanics *metrics.Value

	breakerState, breakerShortCircs *metrics.Value
	breakerTransitions              *metrics.Family[metrics.Value] // {from, to}
	chaosInjections                 *metrics.Family[metrics.Value] // {site, kind}, mirrored at scrape time

	simEvents map[string]*metrics.Value // metrics.CounterNames → lifetime total
}

func newMeters() meters {
	r := metrics.NewRegistry()
	m := meters{
		reg:          r,
		requests:     r.Counter("wsserved_requests_total", "HTTP requests by route and status code.", "route", "code"),
		latency:      r.Histogram("wsserved_request_seconds", "HTTP request latency by route.", latencyBounds, "route"),
		cacheHits:    r.Counter("wsserved_cache_hits_total", "Result-cache hits.").With(),
		cacheMisses:  r.Counter("wsserved_cache_misses_total", "Result-cache misses.").With(),
		cacheEntries: r.Gauge("wsserved_cache_entries", "Result-cache resident entries.").With(),
		coalesced: r.Counter("wsserved_coalesced_total",
			"Requests served by riding another request's in-flight computation.").With(),
		simQueueDepth: r.Gauge("wsserved_sim_queue_depth",
			"Admission slots currently held by simulate requests.").With(),
		simRejected: r.Counter("wsserved_sim_rejected_total",
			"Simulate requests rejected with 429 by admission control.").With(),
		simRuns: r.Counter("wsserved_sim_runs_total",
			"Simulation replications executed by the scheduler pool.").With(),
		simCancelled: r.Counter("wsserved_sim_cancelled_total",
			"Simulation replications skipped because their request was abandoned.").With(),
		inFlight: r.Gauge("wsserved_in_flight_requests", "HTTP requests currently being handled.").With(),
		servePanics: r.Counter("ws_serve_panics_total",
			"Handler panics contained by the route barrier (each served as a 500).").With(),
		replicationPanics: r.Counter("wsserved_sim_replication_panics_total",
			"Simulate requests failed by a panicked replication.").With(),
		breakerState: r.Gauge("wsserved_breaker_state",
			"Circuit breaker state of /v1/simulate: 0 closed, 1 half-open, 2 open.").With(),
		breakerShortCircs: r.Counter("wsserved_breaker_short_circuits_total",
			"Requests answered 503 by the open breaker without running.").With(),
		breakerTransitions: r.Counter("wsserved_breaker_transitions_total",
			"Circuit breaker state transitions.", "from", "to"),
		chaosInjections: r.Counter("wsserved_chaos_injections_total",
			"Faults injected by the chaos layer, by site and kind.", "site", "kind"),
		simEvents: make(map[string]*metrics.Value, len(metrics.CounterNames)),
	}
	events := r.Counter("wsserved_sim_events_total",
		"Lifetime simulator event counts by kind, summed over every replication served.", "kind")
	for _, kind := range metrics.CounterNames {
		m.simEvents[kind] = events.With(kind)
	}
	return m
}
