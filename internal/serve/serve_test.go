package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/sim"
)

// newTestServer returns a Server with test-sized limits and its httptest
// front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// post sends body to path and returns the response and its body bytes.
func post(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", path, err)
	}
	return resp, b
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp, b
}

// TestFixedPointMatchesCLIBytes pins the acceptance criterion that a
// /v1/fixedpoint response is byte-identical to `wsfixed -json` for the same
// configuration: both render the same experiments.FixedPointReport through
// the same cliutil encoder (the CLI side of the equivalence is pinned in
// the repository-root cli_test.go against a live daemon).
func TestFixedPointMatchesCLIBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := post(t, ts, "/v1/fixedpoint", `{"model":"simple","lambda":0.9,"tails":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}

	spec := experiments.FixedPointSpec{Model: "simple", Lambda: 0.9, Tails: 4}
	rep, _, err := spec.Solve()
	if err != nil {
		t.Fatal(err)
	}
	want, err := renderJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("response differs from wsfixed -json rendering:\ngot:\n%s\nwant:\n%s", body, want)
	}
}

// TestFixedPointCacheHit asserts the repeated-request acceptance criterion:
// the second identical request is served from cache (visible in /metrics)
// and is byte-identical to the first.
func TestFixedPointCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	req := `{"lambda":0.9,"model":"simple","tails":4}` // field order shuffled on purpose
	_, first := post(t, ts, "/v1/fixedpoint", `{"model":"simple","lambda":0.9,"tails":4}`)
	_, second := post(t, ts, "/v1/fixedpoint", req)
	if !bytes.Equal(first, second) {
		t.Errorf("cache hit not byte-identical:\n%s\nvs\n%s", first, second)
	}
	_, metricsBody := get(t, ts, "/metrics")
	if !strings.Contains(string(metricsBody), "wsserved_cache_hits_total 1") {
		t.Errorf("expected one cache hit in /metrics:\n%s", metricsBody)
	}
	if !strings.Contains(string(metricsBody), "wsserved_cache_misses_total 1") {
		t.Errorf("expected one cache miss in /metrics:\n%s", metricsBody)
	}
}

// TestODEEndpointMatchesIntegration checks /v1/ode against a direct
// integration of the same spec.
func TestODEEndpointMatchesIntegration(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := post(t, ts, "/v1/ode", `{"model":"simple","lambda":0.8,"span":40,"dt":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	spec := experiments.ODESpec{Model: "simple", Lambda: 0.8, Span: 40, Dt: 4}
	rep, err := spec.Integrate()
	if err != nil {
		t.Fatal(err)
	}
	want, err := renderJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("/v1/ode differs from direct integration:\ngot:\n%s\nwant:\n%s", body, want)
	}
}

// simBody is a small but real simulate request used across tests.
const simBody = `{"n":16,"lambda":0.8,"horizon":1200,"warmup":100,"reps":2,"seed":7}`

// TestSimulateCorrectAndDeterministic checks /v1/simulate against running
// the identical replication set directly.
func TestSimulateCorrectAndDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, body := post(t, ts, "/v1/simulate", simBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got experiments.SimReport
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}

	spec := experiments.SimSpec{N: 16, Lambda: 0.8, Horizon: 1200, Warmup: 100, Reps: 2, Seed: 7}
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	agg, err := sim.Replication{Reps: spec.Reps}.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := experiments.BuildSimReport(&spec, agg)
	if got.Sojourn.Mean != want.Sojourn.Mean || got.Load.Mean != want.Load.Mean {
		t.Errorf("simulate result differs: got sojourn %v load %v, want %v %v",
			got.Sojourn.Mean, got.Load.Mean, want.Sojourn.Mean, want.Load.Mean)
	}
	if got.Reps != 2 || got.N != 16 {
		t.Errorf("report echoes wrong spec: %+v", got)
	}
}

// TestSimulateCoalescing is the acceptance criterion for request
// coalescing: 64 concurrent identical simulate requests cause at most Reps
// engine runs in total (one shared computation), and every response is
// byte-identical.
func TestSimulateCoalescing(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 4})
	const clients = 64
	var wg sync.WaitGroup
	bodies := make([][]byte, clients)
	codes := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(simBody))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()

	for i := range codes {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d: body differs from request 0", i)
		}
	}
	runs := s.met.simRuns.Get()
	if runs > 2 { // spec has reps = 2
		t.Errorf("64 identical requests executed %d engine runs, want <= 2", runs)
	}
}

// TestAbandonedLeaderFillsCache checks that a coalesced result reaches the
// cache when the request that started the computation leaves before it
// ends: the follower still gets the body, and the next identical request
// is a hit.
func TestAbandonedLeaderFillsCache(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	// Long enough (about a second) that the leader leaves mid-computation.
	const body = `{"n":64,"lambda":0.9,"horizon":20000,"warmup":100,"reps":2,"seed":3}`
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leaderDone := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/simulate", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		leaderDone <- err
	}()
	waiters := func() int {
		s.flight.mu.Lock()
		defer s.flight.mu.Unlock()
		for _, c := range s.flight.m {
			return c.waiters
		}
		return 0
	}
	waitFor(t, func() bool { return waiters() == 1 })

	followerDone := make(chan []byte, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(body))
		if err != nil {
			followerDone <- nil
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			b = nil
		}
		followerDone <- b
	}()
	waitFor(t, func() bool { return waiters() == 2 })
	cancel()
	if err := <-leaderDone; err == nil {
		t.Fatal("the leader finished before it was cancelled; lengthen the simulation")
	}
	got := <-followerDone
	if got == nil {
		t.Fatal("the follower got no 200 after the leader left")
	}

	hits, misses := s.CacheStats()
	resp, b := post(t, ts, "/v1/simulate", body)
	if h, m := s.CacheStats(); h != hits+1 || m != misses {
		t.Fatalf("third request: hits %d→%d, misses %d→%d; want a hit", hits, h, misses, m)
	}
	if resp.StatusCode != http.StatusOK || !bytes.Equal(b, got) {
		t.Errorf("third request: status %d, want 200 and the follower's body", resp.StatusCode)
	}
}

// TestSimulateOverload is the admission-control acceptance criterion:
// saturating the queue yields 429 with a Retry-After header, and goroutines
// do not pile up behind it.
func TestSimulateOverload(t *testing.T) {
	// A private pool whose single worker is parked keeps admitted requests
	// pinned in the queue while the test saturates it.
	pool := sched.New(1)
	defer pool.Close()
	release := make(chan struct{})
	parked := make(chan struct{})
	pool.Go(func(r *sim.Runner) { close(parked); <-release })
	<-parked

	s, ts := newTestServer(t, Config{Pool: pool, QueueDepth: 1})
	baseline := runtime.NumGoroutine()

	// First request occupies the only admission slot (distinct specs so
	// coalescing does not merge them).
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		resp, err := ts.Client().Post(ts.URL+"/v1/simulate", "application/json",
			strings.NewReader(`{"n":8,"lambda":0.5,"horizon":300,"reps":1,"seed":1}`))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitFor(t, func() bool {
		return s.met.simQueueDepth.Get() == 1
	})

	// Everything beyond the slot must be rejected immediately.
	for i := 0; i < 8; i++ {
		resp, body := post(t, ts, "/v1/simulate",
			fmt.Sprintf(`{"n":8,"lambda":0.5,"horizon":300,"reps":1,"seed":%d}`, 100+i))
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("overflow request %d: status %d, want 429: %s", i, resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("429 without Retry-After header")
		}
	}

	close(release)
	<-firstDone
	waitFor(t, func() bool {
		return s.met.simQueueDepth.Get() == 0
	})
	// Rejections must not leak goroutines (429s return synchronously).
	ts.Client().CloseIdleConnections()
	waitFor(t, func() bool { return runtime.NumGoroutine() <= baseline+15 })

	_, metricsBody := get(t, ts, "/metrics")
	if !strings.Contains(string(metricsBody), "wsserved_sim_rejected_total 8") {
		t.Errorf("rejections not visible in /metrics:\n%s", metricsBody)
	}
}

// TestSimulateDeadline: a request whose deadline expires while the pool is
// busy gets 504 and its replications never run.
func TestSimulateDeadline(t *testing.T) {
	pool := sched.New(1)
	defer pool.Close()
	release := make(chan struct{})
	parked := make(chan struct{})
	pool.Go(func(r *sim.Runner) { close(parked); <-release })
	<-parked
	defer close(release)

	s, ts := newTestServer(t, Config{Pool: pool})
	resp, body := post(t, ts, "/v1/simulate",
		`{"n":8,"lambda":0.5,"horizon":300,"reps":2,"seed":3,"deadline_sec":0.05}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	ran, cancelled := s.met.simRuns.Get(), s.met.simCancelled.Get()
	if ran != 0 || cancelled != 2 {
		t.Errorf("deadline-expired request ran %d replications (cancelled %d), want 0 (2)", ran, cancelled)
	}
}

// TestBadRequests: malformed bodies, unknown fields, NaN, and out-of-range
// parameters all produce 400s, never 500s or crashes.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct{ path, body string }{
		{"/v1/fixedpoint", `{`},
		{"/v1/fixedpoint", `{"model":"bogus","lambda":0.9}`},
		{"/v1/fixedpoint", `{"model":"simple","lambda":NaN}`},
		{"/v1/fixedpoint", `{"model":"simple","lambda":-0.5}`},
		{"/v1/fixedpoint", `{"model":"simple","lambda":1.5}`},
		{"/v1/fixedpoint", `{"model":"simple","lambda":0.9,"surprise":1}`},
		{"/v1/fixedpoint", `{"model":"multisteal","lambda":0.9,"t":2,"k":5}`},
		{"/v1/ode", `{"model":"transfer","lambda":0.9}`},
		{"/v1/ode", `{"model":"simple","lambda":0.9,"span":1e9,"dt":1e-9}`},
		{"/v1/simulate", `{"n":8,"lambda":-1,"horizon":100,"reps":1}`},
		{"/v1/simulate", `{"n":100000,"lambda":0.5,"horizon":100,"reps":1}`},
		{"/v1/simulate", `{"n":8,"lambda":0.5,"horizon":100,"reps":1000}`},
		{"/v1/simulate", simBody + "garbage"},
	}
	for _, c := range cases {
		resp, body := post(t, ts, c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %s: status %d, want 400: %s", c.path, c.body, resp.StatusCode, body)
		}
	}
}

// TestStreamODE checks the NDJSON stream parses and agrees with the batch
// endpoint's trajectory.
func TestStreamODE(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := get(t, ts, "/v1/stream/ode?model=simple&lambda=0.8&span=40&dt=4")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	var points []experiments.ODEPoint
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		var p experiments.ODEPoint
		if err := json.Unmarshal([]byte(line), &p); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		points = append(points, p)
	}
	spec := experiments.ODESpec{Model: "simple", Lambda: 0.8, Span: 40, Dt: 4}
	rep, err := spec.Integrate()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(rep.Times) {
		t.Fatalf("stream has %d points, batch %d", len(points), len(rep.Times))
	}
	for i := range points {
		if points[i].T != rep.Times[i] || points[i].Load != rep.Loads[i] {
			t.Fatalf("stream point %d = %+v, batch (%v, %v)", i, points[i], rep.Times[i], rep.Loads[i])
		}
	}

	if resp, body := get(t, ts, "/v1/stream/ode?model=simple&lambda=abc"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad lambda: status %d: %s", resp.StatusCode, body)
	}
}

// TestHealthAndReadiness covers the probe endpoints and the draining flip.
func TestHealthAndReadiness(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	if resp, body := get(t, ts, "/healthz"); resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz: %d %s", resp.StatusCode, body)
	}
	if resp, _ := get(t, ts, "/readyz"); resp.StatusCode != http.StatusOK {
		t.Errorf("readyz while serving: %d", resp.StatusCode)
	}
	s.SetDraining(true)
	if resp, _ := get(t, ts, "/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: %d", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz must stay 200 while draining: %d", resp.StatusCode)
	}
}

// TestGracefulShutdownDrains is the drain acceptance criterion at the
// package level (the SIGTERM path is exercised end to end by
// scripts/smoke_serve.sh): Shutdown waits for an in-flight simulate to
// complete with 200 rather than killing it.
func TestGracefulShutdownDrains(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)

	type result struct {
		code int
		body []byte
		err  error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/simulate", "application/json",
			strings.NewReader(`{"n":16,"lambda":0.9,"horizon":3000,"reps":2,"seed":5}`))
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		resc <- result{code: resp.StatusCode, body: b}
	}()
	waitFor(t, func() bool {
		return s.met.inFlight.Get() >= 1
	})

	s.SetDraining(true)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	r := <-resc
	if r.err != nil {
		t.Fatalf("in-flight request killed by shutdown: %v", r.err)
	}
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request got %d during drain: %s", r.code, r.body)
	}
}

// TestMetricsExposition sanity-checks the Prometheus payload shape.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	post(t, ts, "/v1/simulate", simBody)
	_, body := get(t, ts, "/metrics")
	text := string(body)
	for _, want := range []string{
		"# TYPE wsserved_requests_total counter",
		"# TYPE wsserved_request_seconds histogram",
		`wsserved_requests_total{code="200",route="/v1/simulate"} 1`,
		"wsserved_sim_runs_total 2",
		`wsserved_sim_events_total{kind="arrivals"}`,
		"wsserved_sim_queue_depth 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in /metrics:\n%s", want, text)
		}
	}
}

// waitFor polls cond until it holds or the test times out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
