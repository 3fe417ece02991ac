package validate

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/meanfield"
	"repro/internal/numeric"
	"repro/internal/ode"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Documented tolerances. Deterministic quantities (solver output against a
// closed form) are held to near-machine precision; trajectory-level
// agreement allows for integration error; statistical checks use the
// Config margins instead.
const (
	// TolResidual bounds the ∞-norm of the model derivative at the solved
	// fixed point.
	TolResidual = 1e-9
	// TolClosedForm bounds the absolute error between solved tail
	// components (and π₂) and their closed-form values.
	TolClosedForm = 1e-8
	// TolSojournRel bounds the relative error between the solved E[T] and
	// a closed-form E[T].
	TolSojournRel = 1e-8
	// TolTailRatio bounds the error of the measured asymptotic tail decay
	// ratio against the closed-form β = λ/(1+λ−π₂); it is looser than
	// TolClosedForm because the ratio divides two truncated tails.
	TolTailRatio = 1e-6
	// TolODE bounds the ∞-distance between the ODE trajectory started at
	// the empty state and the solved fixed point; the trajectory must get
	// this close within odeMaxSpan time units.
	TolODE = 1e-6
	// TolBusy bounds |busy fraction − λ| at the fixed point of a
	// unit-service-rate model (mass conservation: completions match
	// arrivals, and each task occupies one unit-rate server).
	TolBusy = 1e-7
	// TolMonotone is the slack allowed in ordering checks (E[T]
	// monotone in λ, stealing dominating no stealing).
	TolMonotone = 1e-9

	// odeMaxSpan caps the ODE integration horizon. The slowest case is the
	// no-stealing M/M/1, whose relaxation rate is (1−√λ)² ≈ 0.006 at the
	// canonical λ=0.85 — it needs t ≈ 1100 to get within TolODE; the
	// stealing variants converge one to two orders of magnitude sooner and
	// exit early.
	odeMaxSpan = 2000.0
	// tailDepth is how many empirical tail components the largest-n
	// simulation samples for the monotonicity check.
	tailDepth = 8
)

// analytic runs every check that needs no simulation: the fixed-point
// solve, its structural invariants, closed forms where the paper gives
// them, the ODE long-run limit, the λ-ladder monotonicity, and the
// stealing-dominates ordering. It returns the solved fixed point for the
// simulation checks (zero on solve failure).
func analytic(vr *VariantReport, v experiments.Variant, lambdas []float64) (core.FixedPoint, float64) {
	m, err := v.Build(v.Lambda)
	var fp core.FixedPoint
	if err == nil {
		fp, err = meanfield.Solve(m, meanfield.SolveOptions{})
	}
	if err != nil {
		vr.add(Check{Name: "fixedpoint-converged", Status: Fail, Detail: err.Error()})
		return core.FixedPoint{}, 0
	}
	vr.add(scalar("fixedpoint-converged", "solver residual", fp.Residual, 0, TolResidual))

	if v.TailsState {
		c := Check{Name: "fixedpoint-tails", Status: Pass,
			Detail: "1 = s₀ ≥ s₁ ≥ … ≥ 0"}
		if err := core.ValidateTails(fp.State, 1e-9, 1e-6); err != nil {
			c.Status, c.Detail = Fail, err.Error()
		}
		vr.add(c)
	} else {
		vr.add(Check{Name: "fixedpoint-tails", Status: Skip,
			Detail: "state is not a single tail vector"})
	}

	if v.UnitService {
		vr.add(scalar("fixedpoint-busy-lambda", "busy fraction vs λ",
			fp.BusyFraction(), v.Lambda, TolBusy))
	} else {
		vr.add(Check{Name: "fixedpoint-busy-lambda", Status: Skip,
			Detail: "non-unit service rates: busy fraction ≠ λ"})
	}

	closedForm(vr, v, fp)
	tStar := odeLimit(vr, m, fp)
	monotoneLambda(vr, v, lambdas)
	dominates(vr, v, fp)
	return fp, tStar
}

// closedForm checks the solver against the paper's explicit formulas for
// the variants that have them; other variants get no closed-form checks.
func closedForm(vr *VariantReport, v experiments.Variant, fp core.FixedPoint) {
	switch v.Name {
	case "nosteal":
		// M/M/1: π_i = λ^i, E[T] = 1/(1−λ).
		worst, at := 0.0, 0
		for i := 0; i < len(fp.State); i++ {
			want := meanfield.MM1Pi(v.Lambda, i)
			if want < 1e-10 {
				break
			}
			if d := math.Abs(fp.State[i] - want); d > worst {
				worst, at = d, i
			}
		}
		vr.add(scalar("closedform-mm1-tails",
			fmt.Sprintf("max_i |π_i − λ^i| (worst at i=%d)", at), worst, 0, TolClosedForm))
		vr.add(relative("closedform-mm1-sojourn", "E[T] vs 1/(1−λ)",
			fp.SojournTime(), meanfield.MM1SojournTime(v.Lambda), TolSojournRel))
	case "simple":
		cf := meanfield.SolveSimpleWS(v.Lambda)
		vr.add(scalar("closedform-pi2", "π₂ vs ((1+λ)−√(1+2λ−3λ²))/2",
			fp.State[2], cf.Pi2, TolClosedForm))
		vr.add(scalar("closedform-tail-ratio", "tail decay vs β=λ/(1+λ−π₂)",
			core.TailRatio(fp.State, 3, 1e-8), cf.Beta, TolTailRatio))
		vr.add(relative("closedform-sojourn", "E[T] vs closed form",
			fp.SojournTime(), cf.SojournTime(), TolSojournRel))
	case "h2":
		h2ClosedForm(vr, v.Lambda, v.Sim(2).Service)
	case "threshold":
		cf := meanfield.SolveThreshold(v.Lambda, 3)
		worst, at := 0.0, 0
		for i := 0; i <= 12 && i < len(fp.State); i++ {
			if d := math.Abs(fp.State[i] - cf.Pi(i)); d > worst {
				worst, at = d, i
			}
		}
		vr.add(scalar("closedform-threshold-pi",
			fmt.Sprintf("max_{i≤12} |π_i − closed form| (worst at i=%d)", at),
			worst, 0, TolClosedForm))
	}
}

// odeLimit integrates the model's ODE from the canonical empty initial
// state and checks the trajectory converges to the solved fixed point:
// the global-stability claim behind using the fixed point as the long-run
// limit. It returns the time the trajectory took to reach TolODE — the
// measured relaxation time the simulation checks scale their warmups by.
func odeLimit(vr *VariantReport, m core.Model, fp core.FixedPoint) float64 {
	rate := 4.0
	if mr, ok := m.(interface{ MaxRate() float64 }); ok {
		rate = mr.MaxRate()
	}
	x := m.Initial()
	dist := math.Inf(1)
	tStar := ode.SolveObserved(m.Derivs, x, odeMaxSpan, 0.5/rate, func(t float64, x []float64) bool {
		m.Project(x)
		dist = numeric.DistInf(x, fp.State)
		return dist > TolODE
	})
	c := scalar("ode-limit", fmt.Sprintf("‖x(t) − x*‖∞ within t ≤ %g", odeMaxSpan),
		dist, 0, TolODE)
	vr.add(c)
	return tStar
}

// monotoneLambda solves the variant across the λ ladder and checks E[T]
// is strictly increasing: more load can only slow tasks down.
func monotoneLambda(vr *VariantReport, v experiments.Variant, lambdas []float64) {
	c := Check{Name: "monotone-lambda",
		Detail: fmt.Sprintf("E[T] strictly increasing over λ=%v", lambdas)}
	prev := math.Inf(-1)
	minGap := math.Inf(1)
	for _, lam := range lambdas {
		m, err := v.Build(lam)
		var fp core.FixedPoint
		if err == nil {
			fp, err = meanfield.Solve(m, meanfield.SolveOptions{})
		}
		if err != nil {
			c.Status = Fail
			c.Detail = fmt.Sprintf("λ=%g: %v", lam, err)
			vr.add(c)
			return
		}
		et := fp.SojournTime()
		if gap := et - prev; gap < minGap {
			minGap = gap
		}
		prev = et
	}
	c.Got, c.Status = minGap, Pass
	if minGap <= TolMonotone {
		c.Status = Fail
	}
	vr.add(c)
}

// dominates checks the paper's ordering: at unit service rates, stealing
// can only improve on the M/M/1 no-stealing baseline.
func dominates(vr *VariantReport, v experiments.Variant, fp core.FixedPoint) {
	if !v.Dominates {
		why := "ordering argument does not apply"
		switch v.Name {
		case "nosteal":
			why = "is the baseline itself"
		case "hetero":
			why = "non-unit service rates"
		case "h2":
			why = "non-exponential service: the M/M/1 bound does not apply"
		}
		vr.add(Check{Name: "dominates-nosteal", Status: Skip, Detail: why})
		return
	}
	c := scalar("dominates-nosteal", "E[T] ≤ 1/(1−λ)",
		fp.SojournTime(), meanfield.MM1SojournTime(v.Lambda), 0)
	c.Status = Pass
	if c.Got > c.Want+TolMonotone {
		c.Status = Fail
	}
	vr.add(c)
}

// simulation runs the statistical checks of one variant against the
// aggregated finite-n replications. aggs is indexed like cfg.Ns
// (ascending); the largest n carries the empirical tail vector.
func simulation(vr *VariantReport, v experiments.Variant, fp core.FixedPoint,
	cfg Config, aggs []sim.Aggregate) {
	if fp.Model == nil {
		vr.add(Check{Name: "sim-sojourn-tost", Status: Fail,
			Detail: "no fixed point to compare against"})
		return
	}
	last := aggs[len(aggs)-1]
	nMax, nMin := cfg.Ns[len(cfg.Ns)-1], cfg.Ns[0]
	et := fp.SojournTime()

	// TOST equivalence of the mean sojourn time at the largest n against
	// the mean-field prediction, at a relative margin. Kurtz gives an
	// O(1/n) finite-n bias, so the margin is a modelling tolerance, not a
	// pure noise allowance.
	vr.add(tost("sim-sojourn-tost", fmt.Sprintf("E[T] at n=%d vs mean field", nMax),
		last.Sojourn, et, cfg.RelMargin*et))

	// Kurtz: fluctuations around the mean-field limit shrink like 1/√n,
	// so the replication variance at the largest n must not exceed the
	// smallest-n variance. Both variances are estimated from only Reps
	// replications, so the comparison is a one-sided F test: it fails
	// only when the shrinkage hypothesis is refuted at the 5% level, not
	// whenever two noisy estimates land in the wrong order.
	vMin, vMax := aggs[0].Sojourn.Std, last.Sojourn.Std
	sh := Check{Name: "sim-ci-shrinks",
		Detail: fmt.Sprintf("rep variance at n=%d vs n=%d (one-sided F test)", nMax, nMin),
		Got:    vMax * vMax, Want: vMin * vMin,
		Tol: stats.FQuantile95(last.Sojourn.N-1) * vMin * vMin}
	sh.Status = Fail
	if vMin > 0 && sh.Got <= sh.Tol {
		sh.Status = Pass
	}
	vr.add(sh)

	// Empirical tail monotonicity: s_i ≥ s_{i+1} with s_0 = 1. This holds
	// by construction for a correct sampler, so it is a metamorphic guard
	// on the measurement path rather than on the model.
	tm := Check{Name: "sim-tails-monotone",
		Detail: fmt.Sprintf("sampled s₀…s₇ at n=%d non-increasing", nMax), Status: Pass}
	if len(last.Tails) == 0 {
		tm.Status, tm.Detail = Fail, "no tail samples collected"
	}
	for i := 0; i+1 < len(last.Tails); i++ {
		if last.Tails[i+1] > last.Tails[i]+1e-12 {
			tm.Status = Fail
			tm.Detail = fmt.Sprintf("s_%d=%.6g > s_%d=%.6g", i+1, last.Tails[i+1], i, last.Tails[i])
			break
		}
	}
	vr.add(tm)

	// Mass conservation: per-processor departure rate must match the
	// arrival rate λ (tasks are neither created nor destroyed in flight).
	vr.add(tost("sim-throughput", fmt.Sprintf("departures/proc/time at n=%d vs λ", nMax),
		last.Metrics.Throughput, v.Lambda, cfg.RateMargin))

	// Busy-fraction agreement with the mean-field fixed point; unlike the
	// λ comparison this is meaningful for hetero too.
	vr.add(tost("sim-utilization", fmt.Sprintf("busy fraction at n=%d vs fixed point", nMax),
		last.Metrics.Utilization, fp.BusyFraction(), cfg.RateMargin))
}

// containPlan sizes the dedicated containment cell of one variant with
// Stein's two-stage procedure: the precision cell at the largest n acts as
// the pilot whose variance estimate picks the second-stage span so the 95%
// confidence interval has the designed width cfg.ContainWidth·E[T] — wide
// enough by construction to absorb the documented O(1/n) Kurtz bias, yet
// still rejecting gross sim ↔ mean-field disagreement. The warmup is
// scaled to the variant's measured ODE relaxation time so slow-mixing
// models (the no-stealing M/M/1 above all) shed their initial transient
// before measurement starts.
type containPlan struct {
	warmup, span float64
	// half is the Stein fixed-width CI half: the pilot-df t quantile
	// times the projected standard error of the second-stage mean.
	half float64
}

// planContainment derives the second-stage design from the pilot summary.
// pilotSpan is the measured (post-warmup) span behind each pilot
// replication; tStar is the variant's ODE relaxation time.
func planContainment(cfg Config, et float64, pilot stats.Summary, pilotSpan, tStar float64) containPlan {
	// Project the per-replication std dev to other spans assuming the
	// 1/√span scaling of a mixing stationary process.
	sigma1 := pilot.Std * math.Sqrt(pilotSpan)
	target := cfg.ContainWidth * et
	tq := stats.TQuantile975(pilot.N - 1)
	reps := float64(cfg.ContainReps)
	span := 0.0
	if target > 0 && sigma1 > 0 {
		span = (tq * sigma1 / target) * (tq * sigma1 / target) / reps
	}
	// The floor keeps the span well above the sojourn-censoring scale of
	// slow-mixing variants; the cap bounds the suite's runtime.
	span = math.Min(math.Max(span, math.Max(500, tStar/2)), 2500)
	warmup := math.Min(math.Max(0.6*tStar, cfg.Warmup), 1500)
	// When the floor forces more measurement than the target width needs,
	// keep the design width (the extra data only raises coverage); when
	// the cap forces less, the interval must widen to keep 95% coverage.
	half := math.Max(tq*sigma1/math.Sqrt(reps*span), target)
	return containPlan{warmup: warmup, span: span, half: half}
}

// containment runs the acceptance-criterion check: the simulation CI at
// the largest n — the Stein fixed-width interval around the second-stage
// mean — must contain the mean-field E[T].
func containment(vr *VariantReport, cfg Config, et float64, plan containPlan, agg sim.Aggregate) {
	nMax := cfg.Ns[len(cfg.Ns)-1]
	c := Check{Name: "sim-ci-contains",
		Detail: fmt.Sprintf("Stein 95%% CI at n=%d (reps=%d span=%.0f warmup=%.0f) covers E[T]",
			nMax, cfg.ContainReps, plan.span, plan.warmup),
		Got: agg.Sojourn.Mean, Want: et, Tol: plan.half, Status: Fail}
	if math.Abs(agg.Sojourn.Mean-et) <= plan.half {
		c.Status = Pass
	}
	vr.add(c)
}

// scalar builds a |got − want| ≤ tol check.
func scalar(name, detail string, got, want, tol float64) Check {
	c := Check{Name: name, Detail: detail, Got: got, Want: want, Tol: tol, Status: Fail}
	if math.Abs(got-want) <= tol {
		c.Status = Pass
	}
	return c
}

// relative builds a |got − want| ≤ tol·max(1, |want|) check.
func relative(name, detail string, got, want, tol float64) Check {
	return scalar(name, detail, got, want, tol*math.Max(1, math.Abs(want)))
}

// tost builds a statistical equivalence check from replication means.
func tost(name, detail string, s stats.Summary, target, margin float64) Check {
	r := stats.TOST(s, target, margin)
	c := Check{Name: name, Detail: detail, TOST: &r, Status: Fail}
	if r.Equivalent {
		c.Status = Pass
	}
	return c
}
