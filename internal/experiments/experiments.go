// Package experiments regenerates every table in the paper's evaluation
// (and the extension studies listed in DESIGN.md) by combining the
// mean-field fixed points of package meanfield with the finite-n
// simulations of package sim.
//
// Each Table function returns a rendered table whose rows and columns match
// the paper's layout. The Scale parameter controls fidelity: PaperScale
// reproduces the paper's 10 × 100,000-second simulations, QuickScale keeps
// everything under a few seconds for tests and benches.
package experiments

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/meanfield"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/table"
)

// Scale sets the fidelity of the simulation side of each experiment.
type Scale struct {
	// Reps is the number of independent replications per cell.
	Reps int
	// Horizon and Warmup are the simulated time span and the discarded
	// prefix (the paper uses 100,000 and 10,000 seconds).
	Horizon float64
	Warmup  float64
	// Ns are the processor counts for the simulation columns.
	Ns []int
	// Lambdas overrides the default arrival-rate rows when non-nil.
	Lambdas []float64
	// Seed selects the random streams.
	Seed uint64
	// Pool, when non-nil, is the shared experiment scheduler to run every
	// simulation cell on; its size bounds the parallel simulation workers.
	// Table builders running concurrently on one Pool interleave their
	// replications across its workers instead of each spawning their own
	// goroutines. When nil, each table builder creates a private
	// GOMAXPROCS-wide pool for its own cells.
	Pool *sched.Pool
}

// scheduler returns the pool to run cells on and a release function to call
// once the table is assembled (a no-op for a shared Pool).
func (sc Scale) scheduler() (*sched.Pool, func()) {
	if sc.Pool != nil {
		return sc.Pool, func() {}
	}
	p := sched.New(0)
	return p, p.Close
}

// PaperScale matches the paper: 10 replications of 100,000 seconds each
// with the first 10,000 discarded, for 16–128 processors.
var PaperScale = Scale{
	Reps:    10,
	Horizon: 100_000,
	Warmup:  10_000,
	Ns:      []int{16, 32, 64, 128},
	Seed:    1998,
}

// QuickScale runs the same structure at a fraction of the cost, for tests,
// benches, and interactive use. Statistical error is a few percent.
var QuickScale = Scale{
	Reps:    4,
	Horizon: 8_000,
	Warmup:  800,
	Ns:      []int{16, 64},
	Lambdas: []float64{0.50, 0.80, 0.95},
	Seed:    1998,
}

// lambdas returns the row set, defaulting to def when not overridden.
func (sc Scale) lambdas(def []float64) []float64 {
	if sc.Lambdas != nil {
		return sc.Lambdas
	}
	return def
}

// table1Lambdas is the arrival-rate column of Tables 1, 2 and 4.
var table1Lambdas = []float64{0.50, 0.70, 0.80, 0.90, 0.95, 0.99}

// table3Lambdas is the arrival-rate column of Table 3.
var table3Lambdas = []float64{0.50, 0.70, 0.80, 0.90, 0.95}

// submit enqueues one cell of opts at the Scale's horizon, warmup, and seed
// on the pool, returning its future. Builders enqueue every cell up front so
// replications from all cells interleave across the workers, then assemble
// rows in order from the futures.
func submit(p *sched.Pool, opts sim.Options, sc Scale) *sched.Cell {
	opts.Horizon = sc.Horizon
	opts.Warmup = sc.Warmup
	opts.Seed = sc.Seed
	return submitRaw(p, opts, sc.Reps)
}

// submitRaw enqueues opts as given (for cells that override the scale's
// time span, e.g. static drains).
func submitRaw(p *sched.Pool, opts sim.Options, reps int) *sched.Cell {
	c, err := p.Sim(opts, reps)
	if err != nil {
		panic(fmt.Sprintf("experiments: simulation failed: %v", err))
	}
	return c
}

// sojourn blocks for a cell and returns its mean sojourn time.
func sojourn(c *sched.Cell) float64 {
	return c.Aggregate().Sojourn.Mean
}

// Table1 reproduces the paper's Table 1: simulations of the simplest WS
// model (steal one task on emptying, victim ≥ 2, exponential service) for
// each processor count, against the fixed-point estimate, with the relative
// error between the largest simulation and the estimate.
func Table1(sc Scale) *table.Table {
	p, release := sc.scheduler()
	defer release()
	lams := sc.lambdas(table1Lambdas)
	headers := []string{"λ"}
	for _, n := range sc.Ns {
		headers = append(headers, fmt.Sprintf("Sim(%d)", n))
	}
	headers = append(headers, "Estimate", "Rel Error (%)")
	t := table.New("Table 1: simplest WS model — simulations vs fixed-point estimate", headers...)

	cells := make([]*sched.Cell, 0, len(lams)*len(sc.Ns))
	for _, lam := range lams {
		for _, n := range sc.Ns {
			cells = append(cells, submit(p, FixedPointSpec{Model: "simple", Lambda: lam}.SimOptions(n), sc))
		}
	}
	for li, lam := range lams {
		row := []float64{lam}
		var last float64
		for ni := range sc.Ns {
			v := sojourn(cells[li*len(sc.Ns)+ni])
			row = append(row, v)
			last = v
		}
		est := meanfield.SolveSimpleWS(lam).SojournTime()
		relErr := 100 * (last - est) / est
		if relErr < 0 {
			relErr = -relErr
		}
		row = append(row, est, relErr)
		t.AddNumericRow(3, row...)
	}
	return t
}

// Table2 reproduces Table 2: constant service times (T = 2). Simulations
// use Deterministic(1) service; estimates use the Erlang stage model with
// c = 10 and c = 20 stages.
func Table2(sc Scale) *table.Table {
	p, release := sc.scheduler()
	defer release()
	lams := sc.lambdas(table1Lambdas)
	headers := []string{"λ"}
	for _, n := range sc.Ns {
		headers = append(headers, fmt.Sprintf("Sim(%d)", n))
	}
	headers = append(headers, "c = 10", "c = 20")
	t := table.New("Table 2: constant service times (T = 2) — simulations vs stage estimates", headers...)

	cells := make([]*sched.Cell, 0, len(lams)*len(sc.Ns))
	for _, lam := range lams {
		for _, n := range sc.Ns {
			cells = append(cells, submit(p, sim.Options{
				N:       n,
				Lambda:  lam,
				Service: dist.NewDeterministic(1),
				Policy:  sim.PolicySteal,
				T:       2,
			}, sc))
		}
	}
	// Estimates depend only on λ; solve each once while the cells run.
	est := map[int]map[float64]float64{10: {}, 20: {}}
	for _, c := range []int{10, 20} {
		for _, lam := range lams {
			fp := meanfield.MustSolve(meanfield.NewStages(lam, c, 2), meanfield.SolveOptions{})
			est[c][lam] = fp.SojournTime()
		}
	}
	for li, lam := range lams {
		row := []float64{lam}
		for ni := range sc.Ns {
			row = append(row, sojourn(cells[li*len(sc.Ns)+ni]))
		}
		row = append(row, est[10][lam], est[20][lam])
		t.AddNumericRow(3, row...)
	}
	return t
}

// Table3 reproduces Table 3: transfer times with r = 0.25. For each
// threshold T in {3,4,5,6} the table shows the largest-n simulation and the
// fixed-point estimate; the best threshold is ~1/r at small arrival rates
// and larger at high ones.
func Table3(sc Scale) *table.Table {
	p, release := sc.scheduler()
	defer release()
	const r = 0.25
	lams := sc.lambdas(table3Lambdas)
	n := sc.Ns[len(sc.Ns)-1] // the paper reports only its largest system
	ts := []int{3, 4, 5, 6}
	headers := []string{"λ"}
	for _, T := range ts {
		headers = append(headers, fmt.Sprintf("T=%d Sim(%d)", T, n), fmt.Sprintf("T=%d Est.", T))
	}
	t := table.New("Table 3: transfer times (r = 0.25) — simulations vs estimates", headers...)

	cells := make([]*sched.Cell, 0, len(lams)*len(ts))
	for _, lam := range lams {
		for _, T := range ts {
			cells = append(cells, submit(p, FixedPointSpec{Model: "transfer", Lambda: lam, T: T, R: r}.SimOptions(n), sc))
		}
	}
	for li, lam := range lams {
		row := []float64{lam}
		for ti, T := range ts {
			v := sojourn(cells[li*len(ts)+ti])
			fp := meanfield.MustSolve(meanfield.NewTransfer(lam, T, r), meanfield.SolveOptions{})
			row = append(row, v, fp.SojournTime())
		}
		t.AddNumericRow(3, row...)
	}
	return t
}

// Table4 reproduces Table 4: one victim choice versus two (T = 2), with the
// two-choices fixed-point estimate.
func Table4(sc Scale) *table.Table {
	lams := sc.lambdas(table1Lambdas)
	n := sc.Ns[len(sc.Ns)-1]
	t := table.New(
		"Table 4: one choice vs two choices (T = 2)",
		"λ",
		fmt.Sprintf("Sim(%d) 1 choice", n),
		fmt.Sprintf("Sim(%d) 2 choices", n),
		"Estimate 2 choices",
	)
	p, release := sc.scheduler()
	defer release()
	oneCells := make([]*sched.Cell, 0, len(lams))
	twoCells := make([]*sched.Cell, 0, len(lams))
	for _, lam := range lams {
		oneCells = append(oneCells, submit(p, FixedPointSpec{Model: "simple", Lambda: lam}.SimOptions(n), sc))
		twoCells = append(twoCells, submit(p, FixedPointSpec{Model: "choices", Lambda: lam, T: 2, D: 2}.SimOptions(n), sc))
	}
	for li, lam := range lams {
		est := meanfield.MustSolve(meanfield.NewChoices(lam, 2, 2), meanfield.SolveOptions{}).SojournTime()
		t.AddNumericRow(3, lam, sojourn(oneCells[li]), sojourn(twoCells[li]), est)
	}
	return t
}
