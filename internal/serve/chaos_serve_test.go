package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/sched"
)

// currentInFlight reads the in-flight request gauge (in-package test hook).
func currentInFlight(s *Server) int64 {
	return s.met.inFlight.Get()
}

// TestHandlerPanicContained pins the panic barrier: a panic injected into
// the /v1/simulate handler chain becomes a 500 with code "panic", the
// daemon keeps serving, and the panic is visible in /metrics.
func TestHandlerPanicContained(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 3, PPanic: 1})
	_, ts := newTestServer(t, Config{Workers: 1, Chaos: inj, BreakerMinSamples: 1000})

	resp, body := post(t, ts, "/v1/simulate", simBody)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"code": "panic"`) {
		t.Fatalf("body lacks machine-readable panic code: %s", body)
	}

	// The daemon survived and still serves everything else.
	if resp, _ := get(t, ts, "/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic = %d, want 200", resp.StatusCode)
	}
	_, mbody := get(t, ts, "/metrics")
	for _, want := range []string{
		"ws_serve_panics_total 1",
		`wsserved_chaos_injections_total{kind="panic",site="serve.simulate"} 1`,
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("missing %q in /metrics", want)
		}
	}
}

// TestInjectedErrorReturns500 pins the HTTP error seam: an injected fault
// is served as a 500 with code "injected" and counted, with no crash.
func TestInjectedErrorReturns500(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 4, PError: 1})
	_, ts := newTestServer(t, Config{Workers: 1, Chaos: inj, BreakerMinSamples: 1000})
	resp, body := post(t, ts, "/v1/simulate", simBody)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"code": "injected"`) {
		t.Fatalf("body lacks injected code: %s", body)
	}
	if got := inj.Count(SiteSimulate, chaos.KindError); got != 1 {
		t.Fatalf("injector counted %d errors, want 1", got)
	}
}

// TestReplicationPanicReturns500 injects panics only at the scheduler's
// replication site (the HTTP seam stays clean) and pins the full path:
// replication panic → contained by the cell → typed error from AggregateCtx
// → 500 with code "replication_panic" → counter in /metrics.
func TestReplicationPanicReturns500(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 5, PPanic: 1})
	pool := sched.New(2)
	pool.SetChaos(inj)
	t.Cleanup(pool.Close)
	_, ts := newTestServer(t, Config{Pool: pool, BreakerMinSamples: 1000})

	resp, body := post(t, ts, "/v1/simulate", simBody)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"code": "replication_panic"`) {
		t.Fatalf("body lacks replication_panic code: %s", body)
	}
	_, mbody := get(t, ts, "/metrics")
	if !strings.Contains(string(mbody), "wsserved_sim_replication_panics_total 1") {
		t.Errorf("missing replication panic counter in /metrics:\n%s", mbody)
	}
}

// TestNumericErrorsMapTo422 pins the typed-error surface: a request whose
// solve cannot converge within its own budget gets 422 + "not_converged",
// and a chaos-poisoned solve gets 422 + "diverged" — never a 200 with a
// garbage table, and never a 500 (the request, not the server, is at
// fault).
func TestNumericErrorsMapTo422(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// "choices" has no closed-form warm start, so one Anderson iteration
	// cannot reach the 1e-11 tolerance at this load.
	resp, body := post(t, ts, "/v1/fixedpoint",
		`{"model":"choices","lambda":0.99,"max_iter":1}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422; body: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"code": "not_converged"`) {
		t.Fatalf("body lacks not_converged code: %s", body)
	}

	// The numeric chaos seam: every solver iterate is poisoned to NaN, so
	// the divergence guard must fire and surface as 422/diverged.
	inj := chaos.New(chaos.Config{Seed: 6, PPerturb: 1})
	_, ts2 := newTestServer(t, Config{Workers: 1, Chaos: inj})
	resp, body = post(t, ts2, "/v1/fixedpoint", `{"model":"simple","lambda":0.9}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("poisoned solve status = %d, want 422; body: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"code": "diverged"`) {
		t.Fatalf("body lacks diverged code: %s", body)
	}
	if got := inj.Count(SiteFixedPoint, chaos.KindPerturb); got == 0 {
		t.Fatal("perturbation seam never fired")
	}
	_, mbody := get(t, ts2, "/metrics")
	if !strings.Contains(string(mbody), `wsserved_chaos_injections_total{kind="perturb",site="numeric.fixedpoint"}`) {
		t.Errorf("missing numeric chaos counter in /metrics:\n%s", mbody)
	}
}

// TestBreakerOpensAndRecoversE2E drives the breaker through its full cycle
// over HTTP: injected failures open it (503 + Retry-After while cached
// endpoints keep serving), then with the fault removed a half-open probe
// closes it again.
func TestBreakerOpensAndRecoversE2E(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 7, PError: 1})
	_, ts := newTestServer(t, Config{
		Workers: 1, Chaos: inj,
		BreakerWindow: 10, BreakerThreshold: 0.5, BreakerMinSamples: 4,
		BreakerCooldown: 50 * time.Millisecond,
	})

	// Every admitted request fails; after MinSamples the breaker opens.
	var opened bool
	var resp *http.Response
	var body []byte
	for i := 0; i < 20; i++ {
		resp, body = post(t, ts, "/v1/simulate", simBody)
		if resp.StatusCode == http.StatusServiceUnavailable {
			opened = true
			break
		}
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("request %d: status = %d, want 500 or 503; body: %s", i, resp.StatusCode, body)
		}
	}
	if !opened {
		t.Fatal("breaker never opened under a 100% failure rate")
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After header")
	}
	if !strings.Contains(string(body), `"code": "breaker_open"`) {
		t.Errorf("503 body lacks breaker_open code: %s", body)
	}

	// Graceful degradation: the cached tier is not behind the breaker.
	if resp, b := post(t, ts, "/v1/fixedpoint", `{"model":"simple","lambda":0.9}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("fixedpoint while breaker open = %d, want 200; body: %s", resp.StatusCode, b)
	}
	if resp, b := post(t, ts, "/v1/ode", `{"model":"simple","lambda":0.9,"span":20}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("ode while breaker open = %d, want 200; body: %s", resp.StatusCode, b)
	}

	// Recovery drill: remove the fault, wait out the cooldown, and let the
	// half-open probe close the breaker.
	inj.SetDisabled(true)
	waitFor(t, func() bool {
		time.Sleep(20 * time.Millisecond)
		resp, _ := post(t, ts, "/v1/simulate", simBody)
		return resp.StatusCode == http.StatusOK
	})
	// Closed for good: the next request is served directly.
	if resp, b := post(t, ts, "/v1/simulate", simBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery simulate = %d, want 200; body: %s", resp.StatusCode, b)
	}

	_, mbody := get(t, ts, "/metrics")
	for _, want := range []string{
		`wsserved_breaker_transitions_total{from="closed",to="open"}`,
		`wsserved_breaker_transitions_total{from="open",to="half_open"}`,
		`wsserved_breaker_transitions_total{from="half_open",to="closed"}`,
		"wsserved_breaker_state 0",
		"wsserved_breaker_short_circuits_total",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("missing %q in /metrics", want)
		}
	}
}

// TestChaosStormSurvives is the acceptance storm: with the issue's fault
// mix (panic p=0.05, error p=0.1, latency p=0.2) the daemon serves ≥200
// requests with zero crashes, the breaker cycles, the cached endpoints
// return 200 the entire time, and every injected fault kind is visible in
// /metrics. Runs with -race in CI.
func TestChaosStormSurvives(t *testing.T) {
	inj := chaos.New(chaos.Config{
		Seed: 1, PPanic: 0.05, PError: 0.10, PLatency: 0.20,
		Latency: time.Millisecond,
	})
	_, ts := newTestServer(t, Config{
		Workers: 2, Chaos: inj,
		BreakerWindow: 20, BreakerThreshold: 0.10, BreakerMinSamples: 10,
		BreakerCooldown: 25 * time.Millisecond,
	})

	statuses := map[int]int{}
	allKindsSeen := func() bool {
		return inj.Count(SiteSimulate, chaos.KindLatency) > 0 &&
			inj.Count(SiteSimulate, chaos.KindError) > 0 &&
			inj.Count(SiteSimulate, chaos.KindPanic) > 0
	}
	// At least 200 requests; keep going (bounded) until every fault kind
	// has fired at least once, so the /metrics assertions below are not at
	// the mercy of one seed's tail probabilities.
	for i := 0; i < 1000 && (i < 200 || !allKindsSeen()); i++ {
		body := fmt.Sprintf(
			`{"n":4,"lambda":0.7,"horizon":60,"warmup":10,"reps":1,"seed":%d}`, i)
		resp, rbody := post(t, ts, "/v1/simulate", body)
		statuses[resp.StatusCode]++
		switch resp.StatusCode {
		case http.StatusOK, http.StatusInternalServerError,
			http.StatusTooManyRequests:
		case http.StatusServiceUnavailable:
			// Breaker open: back off briefly like a polite client, so the
			// cooldown can elapse and half-open probes actually happen.
			time.Sleep(5 * time.Millisecond)
		default:
			t.Fatalf("storm request %d: unexpected status %d: %s", i, resp.StatusCode, rbody)
		}
		// The cached tier must be bulletproof throughout the storm.
		if i%10 == 0 {
			if resp, b := post(t, ts, "/v1/fixedpoint", `{"model":"simple","lambda":0.9}`); resp.StatusCode != http.StatusOK {
				t.Fatalf("fixedpoint during storm (i=%d) = %d, want 200; body: %s", i, resp.StatusCode, b)
			}
			if resp, b := post(t, ts, "/v1/ode", `{"model":"simple","lambda":0.9,"span":20}`); resp.StatusCode != http.StatusOK {
				t.Fatalf("ode during storm (i=%d) = %d, want 200; body: %s", i, resp.StatusCode, b)
			}
		}
	}
	if resp, _ := get(t, ts, "/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon dead after storm: healthz = %d", resp.StatusCode)
	}
	if statuses[http.StatusOK] == 0 {
		t.Fatalf("storm produced zero successes: %v", statuses)
	}
	if statuses[http.StatusServiceUnavailable] == 0 {
		t.Fatalf("breaker never opened during the storm: %v", statuses)
	}

	_, mbody := get(t, ts, "/metrics")
	for _, want := range []string{
		`wsserved_chaos_injections_total{kind="latency",site="serve.simulate"}`,
		`wsserved_chaos_injections_total{kind="error",site="serve.simulate"}`,
		`wsserved_chaos_injections_total{kind="panic",site="serve.simulate"}`,
		`wsserved_breaker_transitions_total{from="closed",to="open"}`,
		"ws_serve_panics_total",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("missing %q in /metrics after storm", want)
		}
	}

	// Recovery: with injection off the breaker must close and stay closed.
	inj.SetDisabled(true)
	waitFor(t, func() bool {
		time.Sleep(10 * time.Millisecond)
		resp, _ := post(t, ts, "/v1/simulate", simBody)
		return resp.StatusCode == http.StatusOK
	})
	t.Logf("storm outcome by status: %v", statuses)
}

// TestStreamClientDisconnect pins the mid-stream disconnect contract: when
// the client goes away, the handler notices (write error or context), stops
// integrating, and leaks no goroutine.
func TestStreamClientDisconnect(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// 180k points at h=0.05 — far more than any connection buffer holds, so
	// the handler must outlive our read unless it reacts to the disconnect.
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		ts.URL+"/v1/stream/ode?model=simple&lambda=0.9&span=9000&dt=0.05", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil || !strings.Contains(line, `"t"`) {
		t.Fatalf("first stream line = %q, err %v", line, err)
	}
	// Abandon the stream mid-flight.
	cancel()
	resp.Body.Close()

	waitFor(t, func() bool { return currentInFlight(s) == 0 })
	// The handler goroutine (and anything it spawned) must be gone; allow a
	// little slack for httptest's own connection bookkeeping.
	waitFor(t, func() bool { return runtime.NumGoroutine() <= baseline+3 })

	// The server remains fully functional for the next client.
	if resp, b := get(t, ts, "/v1/stream/ode?model=simple&lambda=0.9&span=5&dt=1"); resp.StatusCode != http.StatusOK || len(b) == 0 {
		t.Fatalf("follow-up stream = %d (%d bytes), want 200 with data", resp.StatusCode, len(b))
	}
}

// TestChaosDisabledIsByteIdentical pins the inertness contract at the HTTP
// surface: a server with a zero-probability injector produces responses
// byte-identical to a server with no injector at all.
func TestChaosDisabledIsByteIdentical(t *testing.T) {
	_, plain := newTestServer(t, Config{Workers: 1})
	inert := chaos.New(chaos.Config{Seed: 99})
	_, chaotic := newTestServer(t, Config{Workers: 1, Chaos: inert})

	// Simulate reports carry wall-clock throughput fields (including a
	// nested events_per_sec summary) that differ run to run; scrub them
	// structurally before comparing.
	var scrub func(v any) any
	scrub = func(v any) any {
		switch x := v.(type) {
		case map[string]any:
			for k, vv := range x {
				if k == "wall_seconds" || k == "events_per_sec" {
					x[k] = nil
				} else {
					x[k] = scrub(vv)
				}
			}
			return x
		case []any:
			for i := range x {
				x[i] = scrub(x[i])
			}
			return x
		}
		return v
	}
	normalize := func(b []byte) string {
		var v any
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatalf("unmarshal response: %v", err)
		}
		out, err := json.Marshal(scrub(v))
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	for _, req := range []struct{ path, body string }{
		{"/v1/fixedpoint", `{"model":"simple","lambda":0.9}`},
		{"/v1/ode", `{"model":"threshold","lambda":0.8,"t":3,"span":30}`},
		{"/v1/simulate", simBody},
	} {
		_, a := post(t, plain, req.path, req.body)
		_, b := post(t, chaotic, req.path, req.body)
		if normalize(a) != normalize(b) {
			t.Errorf("%s: inert injector changed the response\nplain:   %s\nchaotic: %s",
				req.path, a, b)
		}
	}
	if inert.Total() != 0 {
		t.Fatalf("inert injector recorded %d injections", inert.Total())
	}
}
