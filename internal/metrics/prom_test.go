package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestPromWriterFamilies(t *testing.T) {
	p := NewPromWriter()
	p.Counter("app_requests_total", "Requests.", 3, "route", "/v1/x", "code", "200")
	p.Counter("app_requests_total", "Requests.", 1, "route", "/v1/y", "code", "429")
	p.Gauge("app_queue_depth", "Depth.", 2)
	out := p.String()

	if got := strings.Count(out, "# HELP app_requests_total"); got != 1 {
		t.Errorf("HELP emitted %d times, want once:\n%s", got, out)
	}
	if !strings.Contains(out, "# TYPE app_requests_total counter") {
		t.Errorf("missing TYPE line:\n%s", out)
	}
	// Labels must render in sorted key order regardless of call order.
	if !strings.Contains(out, `app_requests_total{code="200",route="/v1/x"} 3`) {
		t.Errorf("counter sample malformed:\n%s", out)
	}
	if !strings.Contains(out, "app_queue_depth 2\n") {
		t.Errorf("label-less gauge malformed:\n%s", out)
	}
}

func TestPromWriterHistogram(t *testing.T) {
	p := NewPromWriter()
	bounds := []float64{0.1, 1, 10}
	counts := []uint64{2, 3, 0, 1} // final element is the overflow bucket
	p.Histogram("app_latency_seconds", "Latency.", bounds, counts, 4.2, "route", "/v1/x")
	out := p.String()
	for _, want := range []string{
		`app_latency_seconds_bucket{le="0.1",route="/v1/x"} 2`,
		`app_latency_seconds_bucket{le="1",route="/v1/x"} 5`,
		`app_latency_seconds_bucket{le="10",route="/v1/x"} 5`,
		`app_latency_seconds_bucket{le="+Inf",route="/v1/x"} 6`,
		`app_latency_seconds_sum{route="/v1/x"} 4.2`,
		`app_latency_seconds_count{route="/v1/x"} 6`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestPromFloatInf(t *testing.T) {
	if got := promFloat(math.Inf(1)); got != "+Inf" {
		t.Errorf("promFloat(+inf) = %q", got)
	}
}

// TestCountersEachCoversEveryName pins Each and CounterNames to each other:
// every listed name is visited exactly once and with the right field.
func TestCountersEachCoversEveryName(t *testing.T) {
	c := Counters{
		Arrivals: 1, Spawns: 2, Departures: 3,
		StealAttempts: 4, StealSuccesses: 5, StealFailEmpty: 6, StealFailThreshold: 7,
		Retries: 8, RetriesStale: 9,
		TransfersStarted: 10, TransfersCompleted: 11,
		Rebalances: 12, RebalanceMoves: 13, Events: 14,
	}
	seen := map[string]int64{}
	order := []string{}
	c.Each(func(name string, v int64) {
		seen[name] = v
		order = append(order, name)
	})
	if len(seen) != len(CounterNames) {
		t.Fatalf("Each visited %d names, CounterNames has %d", len(seen), len(CounterNames))
	}
	for i, name := range CounterNames {
		if order[i] != name {
			t.Fatalf("Each order[%d] = %q, CounterNames[%d] = %q", i, order[i], i, name)
		}
	}
	if seen["arrivals"] != 1 || seen["events"] != 14 || seen["rebalance_moves"] != 13 {
		t.Errorf("Each mapped wrong fields: %v", seen)
	}
}
