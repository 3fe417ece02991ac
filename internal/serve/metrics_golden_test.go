package serve

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sched"
)

var updateMetricsGolden = flag.Bool("update", false, "rewrite the /metrics exposition golden under testdata/")

// scrubExposition makes one /metrics body comparable across runs: the
// values that depend on wall-clock timing (the request-latency histogram
// and the in-flight gauge) are replaced by a placeholder, and the lines are
// sorted so the comparison does not depend on series order.
func scrubExposition(body string) string {
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	for i, ln := range lines {
		if strings.HasPrefix(ln, "wsserved_request_seconds_") || strings.HasPrefix(ln, "wsserved_in_flight_requests") {
			if j := strings.LastIndexByte(ln, ' '); j >= 0 {
				lines[i] = ln[:j] + " <timing>"
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestMetricsExpositionGolden pins the daemon's /metrics exposition — every
// HELP/TYPE line, every series with its label set, and every value that
// does not depend on timing — before and after a scripted request mix
// against a server with an attached, unstarted cluster node. Regenerate
// only for an intentional exposition change with
// `go test ./internal/serve -run TestMetricsExpositionGolden -update`.
func TestMetricsExpositionGolden(t *testing.T) {
	pool := sched.New(1)
	defer pool.Close()
	node, err := cluster.New(cluster.Config{
		Self:  "http://self.invalid",
		Peers: []string{"http://peer.invalid"}, // never gossiped, so never healthy
		Pool:  pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	_, ts := newTestServer(t, Config{Pool: pool, Cluster: node})

	_, before := get(t, ts, "/metrics")

	fp := `{"model":"simple","lambda":0.9,"tails":4}`
	for i, step := range []struct {
		path, body string
		status     int
	}{
		{"/v1/fixedpoint", fp, http.StatusOK}, // miss
		{"/v1/fixedpoint", fp, http.StatusOK}, // hit
		{"/v1/ode", `{"model":"simple","lambda":0.8,"span":40,"dt":4}`, http.StatusOK},
		{"/v1/simulate", `{"n":8,"lambda":0.5,"horizon":300,"warmup":30,"reps":2,"seed":7}`, http.StatusOK},
		{"/v1/fixedpoint", `{"model":"simple","lambda":2}`, http.StatusBadRequest},
	} {
		if resp, body := post(t, ts, step.path, step.body); resp.StatusCode != step.status {
			t.Fatalf("step %d %s: status %d, want %d: %s", i, step.path, resp.StatusCode, step.status, body)
		}
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/fixedpoint",
		strings.NewReader(`{"model":"threshold","lambda":0.8,"t":3}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.ForwardedHeader, "1")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded request: status %d", resp.StatusCode)
	}

	_, after := get(t, ts, "/metrics")

	got := "== before ==\n" + scrubExposition(string(before)) +
		"== after ==\n" + scrubExposition(string(after))
	path := filepath.Join("testdata", "metrics.golden.txt")
	if *updateMetricsGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("/metrics exposition differs from %s:\ngot:\n%s", path, got)
	}
}

// TestMetricsScrapesDeterministic pins the registry's series order: after a
// mix that creates several labelled series, two renderings of an idle
// server's exposition are byte-identical.
func TestMetricsScrapesDeterministic(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	for _, path := range []string{"/v1/fixedpoint", "/v1/ode"} {
		post(t, ts, path, `{"model":"simple","lambda":0.8}`)
		post(t, ts, path, `{"model":"bogus"}`)
	}
	get(t, ts, "/healthz")
	get(t, ts, "/readyz")
	scrape := func() string {
		rec := httptest.NewRecorder()
		s.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		return rec.Body.String()
	}
	first, second := scrape(), scrape()
	if !strings.Contains(first, `wsserved_requests_total{code="400",route="/v1/ode"} 1`) {
		t.Fatalf("request mix missing from exposition:\n%s", first)
	}
	if first != second {
		t.Errorf("idle scrapes differ:\nfirst:\n%s\nsecond:\n%s", first, second)
	}
}
