package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// This file implements the Prometheus text exposition format (version
// 0.0.4) with the stdlib only, for the serving layer's /metrics endpoint.
// A PromWriter renders counters, gauges, and cumulative histograms, taking
// care of the format's bookkeeping: one HELP/TYPE header per metric family,
// escaped label values, and +Inf buckets.

// PromWriter accumulates metric families and renders them in the
// Prometheus text exposition format. The zero value is not ready; use
// NewPromWriter. Not safe for concurrent use.
type PromWriter struct {
	buf    strings.Builder
	headed map[string]bool
}

// NewPromWriter returns an empty writer.
func NewPromWriter() *PromWriter {
	return &PromWriter{headed: make(map[string]bool)}
}

// head emits the HELP/TYPE header for a family the first time it appears.
func (p *PromWriter) head(name, help, typ string) {
	if p.headed[name] {
		return
	}
	p.headed[name] = true
	fmt.Fprintf(&p.buf, "# HELP %s %s\n", name, help)
	fmt.Fprintf(&p.buf, "# TYPE %s %s\n", name, typ)
}

// promLabels renders a label set in sorted key order; labels is a flat
// k1, v1, k2, v2, ... list.
func promLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		kvs = append(kvs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		v := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`).Replace(e.v)
		fmt.Fprintf(&b, "%s=%q", e.k, v)
	}
	b.WriteByte('}')
	return b.String()
}

// promFloat renders a sample value (Prometheus spells infinities +Inf/-Inf).
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return fmt.Sprintf("%g", v)
	}
}

// Counter emits one counter sample. labels is a flat k, v, k, v list.
func (p *PromWriter) Counter(name, help string, value float64, labels ...string) {
	p.head(name, help, "counter")
	fmt.Fprintf(&p.buf, "%s%s %s\n", name, promLabels(labels), promFloat(value))
}

// Gauge emits one gauge sample.
func (p *PromWriter) Gauge(name, help string, value float64, labels ...string) {
	p.head(name, help, "gauge")
	fmt.Fprintf(&p.buf, "%s%s %s\n", name, promLabels(labels), promFloat(value))
}

// Histogram emits one cumulative histogram: counts[i] observations fell at
// or below bounds[i], and counts[len(bounds)] (one extra element) fell
// above every bound. sum is the total of all observations.
func (p *PromWriter) Histogram(name, help string, bounds []float64, counts []uint64, sum float64, labels ...string) {
	p.head(name, help, "histogram")
	var cum uint64
	for i, b := range bounds {
		cum += counts[i]
		lb := append(append([]string{}, labels...), "le", promFloat(b))
		fmt.Fprintf(&p.buf, "%s_bucket%s %d\n", name, promLabels(lb), cum)
	}
	if len(counts) > len(bounds) {
		cum += counts[len(bounds)]
	}
	lb := append(append([]string{}, labels...), "le", "+Inf")
	fmt.Fprintf(&p.buf, "%s_bucket%s %d\n", name, promLabels(lb), cum)
	fmt.Fprintf(&p.buf, "%s_sum%s %s\n", name, promLabels(labels), promFloat(sum))
	fmt.Fprintf(&p.buf, "%s_count%s %d\n", name, promLabels(labels), cum)
}

// WriteTo writes the accumulated exposition to w.
func (p *PromWriter) WriteTo(w io.Writer) (int64, error) {
	n, err := io.WriteString(w, p.buf.String())
	return int64(n), err
}

// String returns the accumulated exposition.
func (p *PromWriter) String() string { return p.buf.String() }

// CounterNames lists the Counters fields in their canonical exposition
// order, paired by Each.
var CounterNames = []string{
	"arrivals", "spawns", "departures",
	"steal_attempts", "steal_successes", "steal_fail_empty", "steal_fail_threshold",
	"retries", "retries_stale",
	"transfers_started", "transfers_completed",
	"rebalances", "rebalance_moves",
	"bulk_steals", "bulk_stolen_tasks", "events",
}

// Each invokes fn for every counter field in CounterNames order. This is
// the single enumeration point shared by the replication summarizer and
// the serving layer's lifetime wsserved_sim_events_total totals, so a
// counter added to the struct only needs one registration.
func (c *Counters) Each(fn func(name string, v int64)) {
	fn("arrivals", c.Arrivals)
	fn("spawns", c.Spawns)
	fn("departures", c.Departures)
	fn("steal_attempts", c.StealAttempts)
	fn("steal_successes", c.StealSuccesses)
	fn("steal_fail_empty", c.StealFailEmpty)
	fn("steal_fail_threshold", c.StealFailThreshold)
	fn("retries", c.Retries)
	fn("retries_stale", c.RetriesStale)
	fn("transfers_started", c.TransfersStarted)
	fn("transfers_completed", c.TransfersCompleted)
	fn("rebalances", c.Rebalances)
	fn("rebalance_moves", c.RebalanceMoves)
	fn("bulk_steals", c.BulkSteals)
	fn("bulk_stolen_tasks", c.BulkStolenTasks)
	fn("events", c.Events)
}
