package experiments

import (
	"fmt"
	"math"

	"repro/internal/meanfield"
	"repro/internal/numeric"
	"repro/internal/ode"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/table"
)

// The two studies in this file probe the convergence guaranteed by Kurtz's
// theorem (the paper's theoretical foundation, §2.2): the finite-n system
// approaches the deterministic ODE limit both in equilibrium (X10: the bias
// of the mean sojourn time shrinks like 1/n) and along entire transients
// (X11: the simulated mean-load trajectory from the empty state tracks the
// integrated differential equations).

// ConvergenceInN (X10) measures the relative gap between the simulated
// mean sojourn time and the n → ∞ fixed point as n doubles, and reports
// the implied convergence order (the paper's Table 1 shows the gap roughly
// halving per doubling, i.e. an O(1/n) bias).
func ConvergenceInN(lambda float64, ns []int, sc Scale) *table.Table {
	t := table.New(
		fmt.Sprintf("Convergence to the mean-field limit at λ = %g (simple WS)", lambda),
		"n", "Sim E[T]", "gap vs estimate (%)", "gap × n",
	)
	want := meanfield.SolveSimpleWS(lambda).SojournTime()
	p, release := sc.scheduler()
	defer release()
	cells := make([]*sched.Cell, 0, len(ns))
	for _, n := range ns {
		cells = append(cells, submit(p, FixedPointSpec{Model: "simple", Lambda: lambda}.SimOptions(n), sc))
	}
	var fitNs, fitGaps []float64
	for i, n := range ns {
		v := sojourn(cells[i])
		gap := (v - want) / want
		if gap > 0 {
			fitNs = append(fitNs, float64(n))
			fitGaps = append(fitGaps, gap)
		}
		t.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.4f", v),
			fmt.Sprintf("%.3f", 100*gap),
			fmt.Sprintf("%.3f", gap*float64(n)),
		)
	}
	if len(fitNs) >= 3 {
		// Fit gap ≈ c·n^p; Kurtz-type bias predicts p ≈ −1.
		p, _, r2 := numeric.FitPowerLaw(fitNs, fitGaps)
		t.AddRow("fit", "", fmt.Sprintf("order n^%.2f", p), fmt.Sprintf("R²=%.2f", r2))
	}
	return t
}

// TransientResult pairs the simulated and integrated mean-load
// trajectories from the empty start.
type TransientResult struct {
	Times    []float64
	SimLoads []float64
	OdeLoads []float64
	// MaxAbsGap is the largest |sim − ode| over the grid; MeanAbsGap the
	// average (the max is dominated by per-sample fluctuation ~1/√(n·reps),
	// the mean by the systematic bias).
	MaxAbsGap  float64
	MeanAbsGap float64
}

// Transient (X11) runs the simple WS system from empty for `span` time
// units at n processors and integrates the ODEs on the same grid.
func Transient(lambda float64, n int, span, every float64, reps int, seed uint64) TransientResult {
	o := FixedPointSpec{Model: "simple", Lambda: lambda}.SimOptions(n)
	o.Horizon, o.SeriesEvery, o.Seed = span, every, seed
	agg, err := sim.Replication{Reps: reps}.Run(o)
	if err != nil {
		panic(err)
	}
	times, loads := sim.AverageSeries(agg.Results)

	m := meanfield.NewSimpleWS(lambda)
	x := m.Initial()
	res := TransientResult{Times: times, SimLoads: loads}
	res.OdeLoads = make([]float64, len(times))
	idx := 0
	h := math.Min(every, 0.05)
	ode.SolveObserved(m.Derivs, x, span, h, func(tm float64, y []float64) bool {
		for idx < len(times) && times[idx] <= tm+1e-9 {
			res.OdeLoads[idx] = m.MeanTasks(y)
			idx++
		}
		return idx < len(times)
	})
	var total float64
	for i := range times {
		g := math.Abs(res.SimLoads[i] - res.OdeLoads[i])
		if g > res.MaxAbsGap {
			res.MaxAbsGap = g
		}
		total += g
	}
	if len(times) > 0 {
		res.MeanAbsGap = total / float64(len(times))
	}
	return res
}

// TransientTable renders a Transient run in table form (every k-th row).
func TransientTable(lambda float64, n int, span, every float64, reps int, seed uint64) *table.Table {
	res := Transient(lambda, n, span, every, reps, seed)
	t := table.New(
		fmt.Sprintf("Transient from empty at λ = %g, n = %d: sim vs ODE (max gap %.4f)", lambda, n, res.MaxAbsGap),
		"t", "sim mean load", "ODE mean load",
	)
	step := len(res.Times) / 12
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(res.Times); i += step {
		t.AddNumericRow(4, res.Times[i], res.SimLoads[i], res.OdeLoads[i])
	}
	return t
}

// EmpiricalTails (X12) measures the time-averaged empirical tail densities
// s_i in a finite simulation of the simple WS model and tabulates them
// against the closed-form fixed point π_i — a pointwise comparison of the
// paper's central object, far finer-grained than mean sojourn times.
func EmpiricalTails(lambda float64, depth int, sc Scale) *table.Table {
	n := sc.Ns[len(sc.Ns)-1]
	p, release := sc.scheduler()
	defer release()
	o := FixedPointSpec{Model: "simple", Lambda: lambda}.SimOptions(n)
	o.TailDepth = depth
	agg := submit(p, o, sc).Aggregate()
	cf := meanfield.SolveSimpleWS(lambda)
	t := table.New(
		fmt.Sprintf("Empirical tails at λ = %g, n = %d vs fixed point", lambda, n),
		"i", fmt.Sprintf("sim s_i (n=%d)", n), "π_i (n→∞)",
	)
	for i := 0; i < depth; i++ {
		t.AddRow(
			fmt.Sprintf("%d", i),
			fmt.Sprintf("%.5f", agg.Tails[i]),
			fmt.Sprintf("%.5f", cf.Pi(i)),
		)
	}
	return t
}

// TailLatency (X16) measures sojourn-time quantiles: stealing improves the
// tail of the latency distribution even more than its mean, because it
// specifically attacks the long queues that strand tasks.
func TailLatency(lambda float64, sc Scale) *table.Table {
	n := sc.Ns[len(sc.Ns)-1]
	t := table.New(
		fmt.Sprintf("Sojourn-time quantiles at λ = %g, n = %d", lambda, n),
		"policy", "mean", "P50", "P95", "P99",
	)
	p, release := sc.scheduler()
	defer release()
	cell := func(model string) *sched.Cell {
		o := FixedPointSpec{Model: model, Lambda: lambda}.SimOptions(n)
		o.SojournHistMax = 60 / (1 - lambda)
		return submit(p, o, sc)
	}
	noneCell := cell("nosteal")
	stealCell := cell("simple")
	row := func(name string, c *sched.Cell) {
		agg := c.Aggregate()
		// Average the per-replication quantiles.
		var p50, p95, p99 float64
		for _, r := range agg.Results {
			p50 += r.P50
			p95 += r.P95
			p99 += r.P99
		}
		k := float64(len(agg.Results))
		t.AddRow(name,
			fmt.Sprintf("%.3f", agg.Sojourn.Mean),
			fmt.Sprintf("%.3f", p50/k),
			fmt.Sprintf("%.3f", p95/k),
			fmt.Sprintf("%.3f", p99/k))
	}
	row("no stealing", noneCell)
	row("steal T=2", stealCell)
	return t
}
