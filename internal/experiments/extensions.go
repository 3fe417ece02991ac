package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/meanfield"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stability"
	"repro/internal/table"
)

// The studies in this file quantify the paper's qualitative claims and
// design discussions (the "X" experiments of DESIGN.md). Each produces a
// table in the same style as the main reproduction tables.

// TailDecay (X1) tabulates the equilibrium tail ratio of each model family
// at one arrival rate against the no-stealing ratio λ, making §2.2's
// headline — geometric decay at the faster rate λ/(1+λ−π₂) — concrete.
func TailDecay(lambda float64) *table.Table {
	t := table.New(
		fmt.Sprintf("Tail decay ratios at λ = %g (no stealing decays at λ itself)", lambda),
		"model", "measured ratio", "predicted", "E[T]",
	)
	add := func(name string, m core.Model, from int, predicted float64) {
		fp := meanfield.MustSolve(m, meanfield.SolveOptions{})
		ratio := core.TailRatio(fp.State, from, 1e-6)
		t.AddRow(name,
			fmt.Sprintf("%.4f", ratio),
			fmt.Sprintf("%.4f", predicted),
			fmt.Sprintf("%.3f", fp.SojournTime()))
	}
	t.AddRow("no stealing", fmt.Sprintf("%.4f", lambda), fmt.Sprintf("%.4f", lambda),
		fmt.Sprintf("%.3f", meanfield.MM1SojournTime(lambda)))

	sw := meanfield.SolveSimpleWS(lambda)
	add("simple WS", meanfield.NewSimpleWS(lambda), 3, sw.Beta)

	th := meanfield.SolveThreshold(lambda, 4)
	add("threshold T=4", meanfield.NewThreshold(lambda, 4), 5, th.Beta)

	preFP := meanfield.MustSolve(meanfield.NewPreemptive(lambda, 1, 4), meanfield.SolveOptions{})
	add("preemptive B=1,T=4", meanfield.NewPreemptive(lambda, 1, 4), 6,
		meanfield.StealTailRatio(lambda, preFP.State[3]))

	repFP := meanfield.MustSolve(meanfield.NewRepeated(lambda, 2, 1), meanfield.SolveOptions{})
	add("repeated r=1,T=2", meanfield.NewRepeated(lambda, 2, 1), 3,
		meanfield.RepeatedTailRatio(lambda, 1, repFP.State[2]))
	return t
}

// ThresholdSweep (X2) shows E[T] against the threshold for instantaneous
// transfers: with no transfer cost, larger thresholds only delay steals.
func ThresholdSweep(lambda float64, ts []int) *table.Table {
	t := table.New(
		fmt.Sprintf("Threshold sweep at λ = %g (instantaneous transfers)", lambda),
		"T", "closed form E[T]", "ODE E[T]",
	)
	for _, T := range ts {
		cf := meanfield.SolveThreshold(lambda, T)
		fp := meanfield.MustSolve(meanfield.NewThreshold(lambda, T), meanfield.SolveOptions{})
		t.AddRow(fmt.Sprintf("%d", T),
			fmt.Sprintf("%.4f", cf.SojournTime()),
			fmt.Sprintf("%.4f", fp.SojournTime()))
	}
	return t
}

// RepeatedSweep (X3) shows π_T and E[T] falling as the retry rate grows
// (§2.5: as r → ∞, π_T → 0).
func RepeatedSweep(lambda float64, T int, rates []float64) *table.Table {
	t := table.New(
		fmt.Sprintf("Repeated steal attempts at λ = %g, T = %d", lambda, T),
		"r", "π_T", "tail ratio", "E[T]",
	)
	for _, r := range rates {
		fp := meanfield.MustSolve(meanfield.NewRepeated(lambda, T, r), meanfield.SolveOptions{})
		t.AddRow(fmt.Sprintf("%g", r),
			fmt.Sprintf("%.5f", fp.State[T]),
			fmt.Sprintf("%.4f", meanfield.RepeatedTailRatio(lambda, r, fp.State[2])),
			fmt.Sprintf("%.4f", fp.SojournTime()))
	}
	return t
}

// MultiStealSweep (X4) shows the benefit of stealing k tasks at once when
// the threshold is high (§3.4).
func MultiStealSweep(lambda float64, T int) *table.Table {
	t := table.New(
		fmt.Sprintf("Multiple steals at λ = %g, T = %d", lambda, T),
		"k", "E[T]",
	)
	for k := 1; 2*k <= T; k++ {
		fp := meanfield.MustSolve(meanfield.NewMultiSteal(lambda, T, k), meanfield.SolveOptions{})
		t.AddRow(fmt.Sprintf("%d", k), fmt.Sprintf("%.4f", fp.SojournTime()))
	}
	// The adaptive alternative: take ⌈j/2⌉ from a load-j victim.
	half := meanfield.MustSolve(meanfield.NewStealHalf(lambda, T), meanfield.SolveOptions{})
	t.AddRow("⌈j/2⌉", fmt.Sprintf("%.4f", half.SojournTime()))
	return t
}

// PreemptiveSweep (X9) varies the steal-begin level B at a fixed offset
// threshold (§2.4).
func PreemptiveSweep(lambda float64, bs []int, T int) *table.Table {
	t := table.New(
		fmt.Sprintf("Preemptive stealing at λ = %g, victim ≥ thief+%d", lambda, T),
		"B", "E[T]",
	)
	for _, b := range bs {
		fp := meanfield.MustSolve(meanfield.NewPreemptive(lambda, b, T), meanfield.SolveOptions{})
		t.AddRow(fmt.Sprintf("%d", b), fmt.Sprintf("%.4f", fp.SojournTime()))
	}
	return t
}

// RebalanceStudy (X5) compares the Rudolph–Slivkin-Allalouf–Upfal pairwise
// rebalancing model against simulation at several rates.
func RebalanceStudy(lambda float64, rates []float64, sc Scale) *table.Table {
	p, release := sc.scheduler()
	defer release()
	n := sc.Ns[len(sc.Ns)-1]
	t := table.New(
		fmt.Sprintf("Pairwise rebalancing at λ = %g", lambda),
		"r", fmt.Sprintf("Sim(%d)", n), "ODE estimate",
	)
	cells := make([]*sched.Cell, 0, len(rates))
	for _, r := range rates {
		cells = append(cells, submit(p, FixedPointSpec{Model: "rebalance", Lambda: lambda, R: r}.SimOptions(n), sc))
	}
	for ri, r := range rates {
		fp := meanfield.MustSolve(meanfield.NewRebalance(lambda, meanfield.ConstRate(r), r), meanfield.SolveOptions{})
		t.AddRow(fmt.Sprintf("%g", r),
			fmt.Sprintf("%.4f", sojourn(cells[ri])),
			fmt.Sprintf("%.4f", fp.SojournTime()))
	}
	return t
}

// HeteroStudy (X6) exercises the fast/slow two-class model of §3.5: the
// slow class alone is overloaded and survives only through stealing.
func HeteroStudy(sc Scale) *table.Table {
	const (
		q, lf, ls, muF, muS, T = 0.5, 0.3, 1.1, 2.0, 1.0, 2
	)
	n := sc.Ns[len(sc.Ns)-1]
	t := table.New(
		fmt.Sprintf("Heterogeneous classes (q=%g, λf=%g, λs=%g, μf=%g, μs=%g)", q, lf, ls, muF, muS),
		"quantity", fmt.Sprintf("Sim(%d)", n), "ODE estimate",
	)
	m := meanfield.NewHetero(q, lf, ls, muF, muS, T)
	fp := meanfield.MustSolve(m, meanfield.SolveOptions{})

	p, release := sc.scheduler()
	defer release()
	agg := submit(p, sim.Options{
		N:       n,
		Service: dist.NewExponential(1),
		Policy:  sim.PolicySteal,
		T:       T,
		Classes: []sim.Class{
			{Frac: q, Lambda: lf, Rate: muF},
			{Frac: 1 - q, Lambda: ls, Rate: muS},
		},
	}, sc).Aggregate()
	t.AddRow("mean tasks/processor",
		fmt.Sprintf("%.4f", agg.Load.Mean),
		fmt.Sprintf("%.4f", fp.MeanTasks()))
	t.AddRow("mean time in system",
		fmt.Sprintf("%.4f", agg.Sojourn.Mean),
		fmt.Sprintf("%.4f", fp.SojournTime()))
	return t
}

// StaticDrain (X7) compares the transient ODE drain time against simulated
// drains for a static system where every processor starts with k tasks.
func StaticDrain(k int, sc Scale) *table.Table {
	n := sc.Ns[len(sc.Ns)-1]
	t := table.New(
		fmt.Sprintf("Static system: drain time from %d tasks/processor", k),
		"policy", fmt.Sprintf("Sim(%d) drain", n), "ODE drain (to 1%% load)",
	)
	p, release := sc.scheduler()
	defer release()
	cell := func(policy sim.PolicyKind, retry float64) *sched.Cell {
		return submitRaw(p, sim.Options{
			N:           n,
			Service:     dist.NewExponential(1),
			Policy:      policy,
			T:           2,
			RetryRate:   retry,
			InitialLoad: k,
			Horizon:     10000,
			Seed:        sc.Seed,
		}, sc.Reps)
	}
	noneCell := cell(sim.PolicyNone, 0)
	stealCell := cell(sim.PolicySteal, 10)

	odeSteal := meanfield.NewStatic(meanfield.UniformInitial(k), 0, 2).DrainTime(0.01, 0.05, 1000)
	odeNone := meanfield.NewStatic(meanfield.UniformInitial(k), 0, k+100).DrainTime(0.01, 0.05, 1000)

	t.AddRow("no stealing", fmt.Sprintf("%.3f", noneCell.Aggregate().Drain.Mean), fmt.Sprintf("%.3f", odeNone.Time))
	t.AddRow("steal, retries r=10", fmt.Sprintf("%.3f", stealCell.Aggregate().Drain.Mean), fmt.Sprintf("%.3f", odeSteal.Time))
	return t
}

// StabilityStudy (X8) verifies Theorems 1 and 2 numerically: for each
// arrival rate it reports π₂, whether the theorem's π₂ < 1/2 hypothesis
// holds, and the worst increase of the L1 distance along random
// trajectories (0 means stable).
func StabilityStudy(lambdas []float64) *table.Table {
	t := table.New(
		"Stability of the simple WS fixed point (Theorem 1: stable when π₂ < 1/2)",
		"λ", "π₂", "π₂ < 1/2", "max D(t) increase", "final distance",
	)
	for _, lam := range lambdas {
		m := meanfield.NewSimpleWS(lam)
		fp := meanfield.MustSolve(m, meanfield.SolveOptions{})
		pi2, ok := stability.Pi2Condition(fp.State)
		rep := stability.Verify(m, fp.State, 5, 42, 300, 1)
		cond := "no"
		if ok {
			cond = "yes"
		}
		t.AddRow(
			fmt.Sprintf("%.2f", lam),
			fmt.Sprintf("%.4f", pi2),
			cond,
			fmt.Sprintf("%.2e", rep.MaxIncrease),
			fmt.Sprintf("%.2e", rep.WorstFinal),
		)
	}
	return t
}

// RelaxationStudy (X13) tabulates the ODE relaxation time (to 1% of the
// initial distance, starting empty) as λ grows — quantifying how the open
// convergence question of §4 hardens near saturation.
func RelaxationStudy(lambdas []float64) *table.Table {
	t := table.New(
		"Relaxation time of the simple WS system (time to shed 99% of initial distance)",
		"λ", "relaxation time", "E[T] at fixed point",
	)
	for _, lam := range lambdas {
		m := meanfield.NewSimpleWS(lam)
		fp := meanfield.MustSolve(m, meanfield.SolveOptions{})
		tau, ok := stability.RelaxationTime(m, fp.State, 0.01, 0.5, 20000)
		cell := fmt.Sprintf("%.1f", tau)
		if !ok {
			cell = "> " + cell
		}
		t.AddRow(fmt.Sprintf("%.2f", lam), cell, fmt.Sprintf("%.3f", fp.SojournTime()))
	}
	return t
}
