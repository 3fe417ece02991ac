// Package validate is the statistical cross-validation engine behind
// cmd/wscheck: for every model variant in the experiments registry it
// checks the paper's closed forms, the fixed-point solver, the ODE
// long-run limit, and finite-n simulations against each other.
//
// Deterministic quantities are compared at near-machine tolerances;
// simulation results are compared with TOST equivalence tests over
// replication means, so the suite is deterministic at a fixed seed and a
// pass carries statistical meaning (the 90% confidence interval of the
// difference lies inside the documented margin). See DESIGN.md §12.
package validate

import (
	"fmt"
	"sort"

	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Config scales a validation run. The zero value of any field selects the
// default; Default() is the configuration the acceptance criteria are
// stated against.
type Config struct {
	// Seed is the base random seed; replication i of every cell runs on
	// the derived stream (Seed, i), so a run is fully reproducible.
	Seed uint64
	// Ns is the ascending grid of simulated system sizes. The largest n
	// backs the statistical checks; the smallest anchors the Kurtz
	// CI-shrinkage check.
	Ns []int
	// Reps is the number of replications per (variant, n) cell.
	Reps int
	// Horizon and Warmup are the simulated time span and the discarded
	// prefix of each replication.
	Horizon, Warmup float64
	// RelMargin is the TOST equivalence margin for E[T], relative to the
	// mean-field prediction. It must absorb the O(1/n) Kurtz bias at the
	// largest n, not just replication noise.
	RelMargin float64
	// RateMargin is the absolute TOST margin for throughput and busy
	// fraction (both are rates in [0, 1]).
	RateMargin float64
	// ContainReps and ContainWidth size the second-stage containment cell
	// (Stein's procedure): ContainReps replications over a span chosen so
	// the 95% CI half-width is ContainWidth·E[T]. The width must exceed
	// the O(1/n) Kurtz bias at the largest n (≈2% for the worst variant
	// at n=128) for containment to be achievable at all.
	ContainReps  int
	ContainWidth float64
	// Lambdas is the ascending arrival-rate ladder for the E[T]
	// monotonicity check.
	Lambdas []float64
	// Workers sizes the run's private worker pool (0 = GOMAXPROCS),
	// closed before Run returns.
	Workers int
}

// Default returns the canonical configuration: the n-grid of the paper's
// simulation section, 5 replications over a long horizon, and the margins
// documented in README's tolerance table.
func Default() Config {
	// Horizon and Reps balance two opposing needs: replication CIs tight
	// enough to be meaningful, yet wide enough that sampling noise
	// dominates the O(1/n) Kurtz bias at n=128 (≈1% of E[T] for the worst
	// variant) — otherwise the ci-contains check would reject the
	// mean-field prediction for being measured too precisely.
	return Config{
		Seed:         1998, // SPAA '98
		Ns:           []int{16, 32, 64, 128},
		Reps:         6,
		Horizon:      1500,
		Warmup:       250,
		RelMargin:    0.05,
		RateMargin:   0.02,
		ContainReps:  4,
		ContainWidth: 0.04,
		Lambdas:      []float64{0.6, 0.75, 0.9},
	}
}

// Quick returns a configuration around 20× cheaper than Default for smoke
// tests and CI: a short two-point n-grid with margins loosened to match
// the larger finite-n bias and noise.
func Quick() Config {
	return Config{
		Seed:         1998,
		Ns:           []int{16, 64},
		Reps:         4,
		Horizon:      600,
		Warmup:       100,
		RelMargin:    0.15,
		RateMargin:   0.05,
		ContainReps:  4,
		ContainWidth: 0.08,
		Lambdas:      []float64{0.6, 0.85},
	}
}

// withDefaults fills zero fields from Default.
func (cfg Config) withDefaults() Config {
	d := Default()
	if cfg.Seed == 0 {
		cfg.Seed = d.Seed
	}
	if len(cfg.Ns) == 0 {
		cfg.Ns = d.Ns
	}
	if cfg.Reps == 0 {
		cfg.Reps = d.Reps
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = d.Horizon
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = d.Warmup
	}
	if cfg.RelMargin == 0 {
		cfg.RelMargin = d.RelMargin
	}
	if cfg.RateMargin == 0 {
		cfg.RateMargin = d.RateMargin
	}
	if cfg.ContainReps == 0 {
		cfg.ContainReps = d.ContainReps
	}
	if cfg.ContainWidth == 0 {
		cfg.ContainWidth = d.ContainWidth
	}
	if len(cfg.Lambdas) == 0 {
		cfg.Lambdas = d.Lambdas
	}
	return cfg
}

// validate rejects configurations the checks cannot interpret.
func (cfg Config) validate() error {
	if len(cfg.Ns) < 2 {
		return fmt.Errorf("validate: need at least 2 system sizes, got %v", cfg.Ns)
	}
	if !sort.IntsAreSorted(cfg.Ns) || cfg.Ns[0] < 2 {
		return fmt.Errorf("validate: Ns must be ascending and ≥ 2, got %v", cfg.Ns)
	}
	if cfg.Reps < 2 {
		return fmt.Errorf("validate: need Reps ≥ 2 for confidence intervals, got %d", cfg.Reps)
	}
	if cfg.ContainReps < 2 {
		return fmt.Errorf("validate: need ContainReps ≥ 2, got %d", cfg.ContainReps)
	}
	if cfg.ContainWidth <= 0 || cfg.ContainWidth >= 1 {
		return fmt.Errorf("validate: ContainWidth %g outside (0, 1)", cfg.ContainWidth)
	}
	if cfg.Warmup >= cfg.Horizon {
		return fmt.Errorf("validate: warmup %g must be below horizon %g", cfg.Warmup, cfg.Horizon)
	}
	if !sort.Float64sAreSorted(cfg.Lambdas) || len(cfg.Lambdas) < 2 {
		return fmt.Errorf("validate: Lambdas must be an ascending ladder, got %v", cfg.Lambdas)
	}
	for _, lam := range cfg.Lambdas {
		if lam <= 0 || lam >= 1 {
			return fmt.Errorf("validate: ladder rate %g outside (0, 1)", lam)
		}
	}
	return nil
}

// Run validates every given variant and check family under cfg and
// returns the report. The error covers configuration problems only; check
// failures are reported through Report.OK and the per-check records.
func Run(cfg Config, variants []experiments.Variant, families ...Family) (Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return Report{}, err
	}
	if len(variants) == 0 && len(families) == 0 {
		return Report{}, fmt.Errorf("validate: no variants to check")
	}
	pool := sched.New(cfg.Workers)
	defer pool.Close()

	// Enqueue every (variant, n) cell before the first analytic check, so
	// the pool drains simulations while fixed points and ODE trajectories
	// are computed on this goroutine.
	type pending struct {
		cell *sched.Cell
		err  error
	}
	cells := make([][]pending, len(variants))
	nMax := cfg.Ns[len(cfg.Ns)-1]
	for vi, v := range variants {
		cells[vi] = make([]pending, len(cfg.Ns))
		for ni, n := range cfg.Ns {
			o := v.Sim(n)
			o.Horizon, o.Warmup, o.Seed = cfg.Horizon, cfg.Warmup, cfg.Seed
			if n == nMax {
				o.TailDepth = tailDepth
			}
			c, err := pool.Sim(o, cfg.Reps)
			cells[vi][ni] = pending{cell: c, err: err}
		}
	}
	// The hybrid twins (and the tracked-shrink pair) join the same queue so
	// the pool drains DES and hybrid cells together.
	hyb := enqueueHybrid(cfg, variants, pool)
	// Check families enqueue last: their cells drain alongside the grid and
	// their collectors run after pass 2.
	collectors := make([]func(*VariantReport), len(families))
	for fi, f := range families {
		collectors[fi] = f.enqueue(cfg, pool)
	}

	rep := Report{
		Seed: cfg.Seed, Ns: cfg.Ns, Reps: cfg.Reps,
		Horizon: cfg.Horizon, Warmup: cfg.Warmup, Lambdas: cfg.Lambdas,
	}

	// Pass 1: analytic checks and the precision cells. The precision cell
	// at the largest n doubles as the Stein pilot that sizes the variant's
	// second-stage containment cell, which is enqueued here and collected
	// in pass 2 so the pool keeps draining while later variants are
	// analyzed.
	type second struct {
		cell *sched.Cell
		plan containPlan
		et   float64
	}
	seconds := make([]*second, len(variants))
	for vi, v := range variants {
		vr := VariantReport{Variant: v.Name, Lambda: v.Lambda}
		fp, tStar := analytic(&vr, v, cfg.Lambdas)

		aggs := make([]sim.Aggregate, 0, len(cfg.Ns))
		bad := false
		for ni, p := range cells[vi] {
			if p.err != nil {
				vr.add(Check{Name: "sim-options", Status: Fail,
					Detail: fmt.Sprintf("n=%d: %v", cfg.Ns[ni], p.err)})
				bad = true
				continue
			}
			aggs = append(aggs, p.cell.Aggregate())
		}
		if !bad && fp.Model != nil {
			simulation(&vr, v, fp, cfg, aggs)

			et := fp.SojournTime()
			pilot := aggs[len(aggs)-1].Sojourn
			plan := planContainment(cfg, et, pilot, cfg.Horizon-cfg.Warmup, tStar)
			o := v.Sim(nMax)
			o.Horizon, o.Warmup, o.Seed = plan.warmup+plan.span, plan.warmup, cfg.Seed+1
			if c, err := pool.Sim(o, cfg.ContainReps); err == nil {
				seconds[vi] = &second{cell: c, plan: plan, et: et}
			} else {
				vr.add(Check{Name: "sim-ci-contains", Status: Fail,
					Detail: fmt.Sprintf("n=%d: %v", nMax, err)})
			}
		} else if !bad {
			simulation(&vr, v, fp, cfg, aggs)
		}
		if !bad {
			hyb.check(&vr, vi, cfg, aggs)
		}
		rep.Variants = append(rep.Variants, vr)
	}

	// Pass 2: collect the containment cells.
	for vi := range variants {
		if s := seconds[vi]; s != nil {
			containment(&rep.Variants[vi], cfg, s.et, s.plan, s.cell.Aggregate())
		}
	}
	// Collect the check families; each reports as one more variant block.
	for fi, f := range families {
		vr := VariantReport{Variant: f.Name, Lambda: f.Lambda}
		collectors[fi](&vr)
		rep.Variants = append(rep.Variants, vr)
	}
	rep.tally()
	return rep, nil
}
