package experiments

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/table"
)

// MetricsTable measures the observability layer across the paper's four
// model variants at one arrival rate — M0: no stealing, M1: the simplest
// WS model (T = 2), M2: two victim choices, M3: transfer delays
// (r = 0.25, T = 4) — reporting utilization, steal attempt rate, steal
// success fraction, and event-loop throughput for the largest configured
// processor count. Utilization should sit at λ for every stable variant;
// the steal columns quantify how much probing each discipline needs to
// hold it there.
func MetricsTable(lambda float64, sc Scale) *table.Table {
	n := sc.Ns[len(sc.Ns)-1]
	variants := []struct {
		name string
		spec FixedPointSpec
	}{
		{"M0 no stealing", FixedPointSpec{Model: "nosteal"}},
		{"M1 simple WS (T=2)", FixedPointSpec{Model: "simple"}},
		{"M2 two choices (T=2)", FixedPointSpec{Model: "choices", T: 2, D: 2}},
		{"M3 transfer (r=0.25, T=4)", FixedPointSpec{Model: "transfer", T: 4, R: 0.25}},
	}

	t := table.New(
		fmt.Sprintf("Simulation metrics by model variant (λ = %g, n = %d)", lambda, n),
		"model", "utilization", "steal rate (/proc/t)", "steal success", "E[T]", "Mevents/s",
	)
	p, release := sc.scheduler()
	defer release()
	cells := make([]*sched.Cell, len(variants))
	for i, v := range variants {
		v.spec.Lambda = lambda
		o := v.spec.SimOptions(n)
		o.QueueHistDepth = 8
		cells[i] = submit(p, o, sc)
	}
	for i, v := range variants {
		agg := cells[i].Aggregate()
		m := agg.Metrics
		t.AddRow(
			v.name,
			fmt.Sprintf("%.4f", m.Utilization.Mean),
			fmt.Sprintf("%.4f", m.StealAttemptRate.Mean),
			fmt.Sprintf("%.4f", m.StealSuccessRate.Mean),
			fmt.Sprintf("%.3f", agg.Sojourn.Mean),
			fmt.Sprintf("%.1f", m.EventsPerSec.Mean/1e6),
		)
	}
	return t
}
