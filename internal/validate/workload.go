package validate

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/meanfield"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

// This file holds the workload check suites: the deterministic closed-form
// checks behind the h2 registry variant, and the crossover family — the
// stealing-vs-sharing comparison as service variability grows.

// Family is a named check suite that spans several model configurations at
// once and so does not fit the registry's one-model-one-variant ladder.
// cmd/wscheck selects families by name exactly like variants, and its
// report renders as one more variant block.
type Family struct {
	// Name is the selection key (`wscheck -model`).
	Name string
	// Lambda is the arrival rate of the family's cells, reported like a
	// variant's canonical rate.
	Lambda float64
	// enqueue plans the family's simulation cells on the pool and returns
	// the collector that waits for them and renders the checks.
	enqueue func(cfg Config, pool *sched.Pool) func(vr *VariantReport)
}

// Families returns every registered check family.
func Families() []Family {
	return []Family{crossoverFamily(), clusterFamily()}
}

// FamilyNames returns the registered family names in order.
func FamilyNames() []string {
	fs := Families()
	names := make([]string, len(fs))
	for i, f := range fs {
		names[i] = f.Name
	}
	return names
}

// FamilyByName looks a family up by its selection key.
func FamilyByName(name string) (Family, bool) {
	for _, f := range Families() {
		if f.Name == name {
			return f, true
		}
	}
	return Family{}, false
}

// Deterministic tolerances of the h2 closed-form checks.
const (
	// TolMoments bounds the fit error of the two-moment H2 match: the
	// fitted distribution's mean and SCV against the requested values.
	TolMoments = 1e-9
	// TolPK bounds the relative error of the no-steal phase-type mean
	// field against the Pollaczek–Khinchine M/G/1 sojourn time. It is
	// looser than TolSojournRel because the occupancy state is truncated
	// at the spectral tail ratio, which leaks a bounded boundary mass.
	TolPK = 1e-6
)

// h2MomentSCVs is the fit grid of the moment-match check: the exponential
// edge case, the crossover ladder, and one point between.
var h2MomentSCVs = []float64{1, 2, 4, 16}

// h2ClosedForm runs the deterministic workload checks of the h2 variant:
// the two-moment fit must reproduce its targets near machine precision,
// and with stealing disabled the generalized stage mean field must
// collapse to the M/G/1 queue, whose Pollaczek–Khinchine sojourn time is
// an independent closed form the occupancy-space derivation knows nothing
// about.
func h2ClosedForm(vr *VariantReport, lambda float64, svc dist.Distribution) {
	worst, at := 0.0, 0.0
	for _, scv := range h2MomentSCVs {
		ph, err := dist.FitH2(1, scv)
		if err != nil {
			vr.add(Check{Name: "closedform-h2-moments", Status: Fail,
				Detail: fmt.Sprintf("FitH2(1, %g): %v", scv, err)})
			return
		}
		if d := math.Abs(ph.Mean() - 1); d > worst {
			worst, at = d, scv
		}
		if d := math.Abs(dist.SCV(ph) - scv); d > worst {
			worst, at = d, scv
		}
	}
	vr.add(scalar("closedform-h2-moments",
		fmt.Sprintf("max fit error of mean/SCV over SCV=%v (worst at %g)", h2MomentSCVs, at),
		worst, 0, TolMoments))

	ph, ok := dist.AsPhaseType(svc)
	if !ok {
		vr.add(Check{Name: "closedform-ph-pk", Status: Fail,
			Detail: "variant service has no phase-type form"})
		return
	}
	scv := dist.SCV(ph)
	// E[T] = E[S] + λ·E[S²]/(2(1−ρ)) with E[S] = 1, E[S²] = 1 + SCV.
	want := 1 + lambda*(1+scv)/(2*(1-lambda))
	m, err := experiments.TryBuild(func() core.Model { return meanfield.NewPhaseService(lambda, ph, 0, 0) })
	var got float64
	if err == nil {
		var fp interface{ SojournTime() float64 }
		fp, err = meanfield.Solve(m, meanfield.SolveOptions{})
		if err == nil {
			got = fp.SojournTime()
		}
	}
	if err != nil {
		vr.add(Check{Name: "closedform-ph-pk", Status: Fail, Detail: err.Error()})
		return
	}
	vr.add(relative("closedform-ph-pk",
		fmt.Sprintf("no-steal M/PH/1 E[T] vs Pollaczek–Khinchine (SCV=%g)", scv),
		got, want, TolPK))
}

// The crossover family pins the qualitative workload result the subsystem
// exists to expose: which load-redistribution discipline wins depends on
// service variability. Stealing here is the paper's pull policy (an
// emptying processor takes one task from a queue at or above T); sharing
// is the rate-limited pairwise rebalancing policy, its rate chosen so the
// two disciplines move comparable task volume. At SCV 1 the steal policy's
// instant reaction to idleness wins; as the SCV grows, rare long jobs pile
// queues faster than one-task-per-idle-event relief can drain them, while
// a rebalancing sweep moves half the backlog at once — by SCV 16 sharing
// wins decisively. The family asserts both endpoints with one-sided Welch
// tests and the monotone growth of the gap across the ladder.
const (
	// crossoverLambda matches the registry's canonical arrival rate.
	crossoverLambda = 0.85
	// crossoverT is the steal side's victim threshold.
	crossoverT = 2
	// crossoverShareRate is the sharing side's per-processor rebalancing
	// rate. It is the empirically-centered pivot of the comparison: at 0.4
	// sharing already wins at SCV 1, at 0.1 stealing still wins at SCV 4;
	// at 0.2 the crossover lands between SCV 1 and SCV 16 with both
	// endpoint gaps significant at every documented seed and scale.
	crossoverShareRate = 0.2
)

// crossoverSCVs is the service-variability ladder, ascending.
var crossoverSCVs = []float64{1, 4, 16}

func crossoverFamily() Family {
	return Family{
		Name:    "crossover",
		Lambda:  crossoverLambda,
		enqueue: enqueueCrossover,
	}
}

// crossoverService returns the unit-mean service distribution at one SCV.
func crossoverService(scv float64) (dist.Distribution, error) {
	if scv == 1 {
		return dist.NewExponential(1), nil
	}
	return dist.FitH2(1, scv)
}

// enqueueCrossover plans a steal/share cell pair per SCV at the grid's
// largest system size and returns the collector that renders the checks.
func enqueueCrossover(cfg Config, pool *sched.Pool) func(vr *VariantReport) {
	n := cfg.Ns[len(cfg.Ns)-1]
	type pair struct {
		steal, share *sched.Cell
		err          error
	}
	cells := make([]pair, len(crossoverSCVs))
	for i, scv := range crossoverSCVs {
		svc, err := crossoverService(scv)
		if err != nil {
			cells[i].err = err
			continue
		}
		o := sim.Options{N: n, Lambda: crossoverLambda, Service: svc,
			Horizon: cfg.Horizon, Warmup: cfg.Warmup, Seed: cfg.Seed}
		steal, share := o, o
		steal.Policy, steal.T = sim.PolicySteal, crossoverT
		share.Policy, share.RebalanceRate = sim.PolicyRebalance, crossoverShareRate
		if cells[i].steal, err = pool.Sim(steal, cfg.Reps); err != nil {
			cells[i].err = err
			continue
		}
		if cells[i].share, err = pool.Sim(share, cfg.Reps); err != nil {
			cells[i].err = err
		}
	}

	return func(vr *VariantReport) {
		gaps := make([]float64, len(crossoverSCVs))
		sums := make([][2]stats.Summary, len(crossoverSCVs))
		for i, scv := range crossoverSCVs {
			if cells[i].err != nil {
				vr.add(Check{Name: "crossover-cells", Status: Fail,
					Detail: fmt.Sprintf("SCV=%g: %v", scv, cells[i].err)})
				return
			}
			st := cells[i].steal.Aggregate().Sojourn
			sh := cells[i].share.Aggregate().Sojourn
			sums[i] = [2]stats.Summary{st, sh}
			gaps[i] = st.Mean - sh.Mean
		}

		welch := func(name, detail string, a, b stats.Summary) {
			w := stats.Welch(a, b)
			se := 0.0 // recover the standard error for the rendered margin
			if w.T != 0 {
				se = math.Abs(w.Diff / w.T)
			}
			c := Check{Name: name,
				Detail: fmt.Sprintf("%s: t=%.2f df=%d (one-sided Welch 5%%)", detail, w.T, w.Df),
				Got:    a.Mean, Want: b.Mean,
				Tol:    stats.TQuantile95(w.Df) * se,
				Status: Fail}
			if w.Less {
				c.Status = Pass
			}
			vr.add(c)
		}
		lo, hi := 0, len(crossoverSCVs)-1
		welch("crossover-steal-wins-low",
			fmt.Sprintf("steal E[T] below sharing at SCV=%g, n=%d", crossoverSCVs[lo], n),
			sums[lo][0], sums[lo][1])
		welch("crossover-sharing-wins-high",
			fmt.Sprintf("sharing E[T] below steal at SCV=%g, n=%d", crossoverSCVs[hi], n),
			sums[hi][1], sums[hi][0])

		mono := Check{Name: "crossover-gap-monotone", Status: Pass,
			Detail: fmt.Sprintf("steal−sharing E[T] gap %s increasing over SCV=%v",
				fmtGaps(gaps), crossoverSCVs)}
		for i := 0; i+1 < len(gaps); i++ {
			if gaps[i+1] <= gaps[i] {
				mono.Status = Fail
				break
			}
		}
		vr.add(mono)
	}
}

// fmtGaps renders the gap ladder compactly for check details.
func fmtGaps(gaps []float64) string {
	s := ""
	for i, g := range gaps {
		if i > 0 {
			s += " < "
		}
		s += fmt.Sprintf("%+.3g", g)
	}
	return s
}
