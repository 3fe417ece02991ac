package sim

// The fluid backend replaces event-by-event simulation with the paper's
// mean-field differential equations: it integrates ds/dt = f(s) from the
// empty state over [0, Horizon] and reads the Result off the trajectory.
// By Kurtz's theorem this is the n → ∞ limit of the DES engine, so the
// backend is deterministic (Seed is ignored), costs O(Horizon · dim)
// regardless of N, and reports means — MeanLoad and Tails as time averages
// over [Warmup, Horizon], MeanSojourn through Little's law, and no
// per-processor or quantile measurements (those need the hybrid engine's
// tracked sample).

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/meanfield"
	"repro/internal/metrics"
	"repro/internal/ode"
	"repro/internal/rng"
)

// fluidStep is the fixed RK4 step of the fluid integration. The model
// right-hand sides are Lipschitz with rates of order MaxRate ≤ 4 + r, so a
// step of 0.02 keeps the RK4 error orders of magnitude below the
// statistical margins anything downstream compares against.
const fluidStep = 0.02

// fluidModel maps Options onto the mean-field model it is the finite-n
// version of. Unsupported combinations — anything without a mean-field
// counterpart in internal/meanfield — get a descriptive error naming the
// engine.
func fluidModel(o *Options) (core.Model, error) {
	bad := func(format string, args ...any) (core.Model, error) {
		return nil, fmt.Errorf("sim: %s engine: %s", o.Engine, fmt.Sprintf(format, args...))
	}
	if o.Classes != nil {
		return bad("heterogeneous classes are not supported")
	}
	if o.LambdaInt != 0 {
		return bad("internal spawning is not supported")
	}
	if o.InitialLoad != 0 {
		return bad("static (initial-load) runs are not supported")
	}
	if o.Arrivals != nil {
		return bad("custom arrival processes (%s) are DES-only: the fluid limit needs Poisson arrivals", o.Arrivals.Name())
	}
	if o.Lambda <= 0 || o.Lambda >= 1 {
		return bad("need arrival rate in (0, 1), got %g", o.Lambda)
	}
	if e, ok := o.Service.(dist.Exponential); !ok || e.Rate != 1 {
		return phaseFluidModel(o)
	}
	lam := o.Lambda
	switch o.Policy {
	case PolicyNone:
		return meanfield.NewNoSteal(lam), nil
	case PolicyRebalance:
		return bad("pairwise rebalancing is not supported")
	case PolicySteal:
	}
	if o.TransferRate > 0 {
		// Validate already pins K = 1 and !Half here.
		if o.B != 0 || o.D != 1 {
			return bad("transfer delays combine only with B = 0, D = 1")
		}
		return meanfield.NewRepeatedTransfer(lam, o.T, o.RetryRate, o.TransferRate), nil
	}
	if o.B > 0 {
		if o.D != 1 || o.K != 1 || o.Half || o.RetryRate > 0 {
			return bad("preemptive stealing (B > 0) combines only with D = 1, K = 1 single steals")
		}
		return meanfield.NewPreemptive(lam, o.B, o.T), nil
	}
	if o.D > 1 {
		if o.K != 1 || o.Half || o.RetryRate > 0 {
			return bad("victim choices (D > 1) combine only with K = 1 single steals")
		}
		return meanfield.NewChoices(lam, o.T, o.D), nil
	}
	if o.K > 1 {
		if o.RetryRate > 0 {
			return bad("multi-steal (K > 1) does not combine with retries")
		}
		return meanfield.NewMultiSteal(lam, o.T, o.K), nil
	}
	if o.Half {
		if o.RetryRate > 0 {
			return bad("steal-half does not combine with retries")
		}
		return meanfield.NewStealHalf(lam, o.T), nil
	}
	return meanfield.NewRepeated(lam, o.T, o.RetryRate), nil
}

// phaseFluidModel maps non-exponential service onto the generalized
// phase-type mean-field model. Its state is occupancy by (task count, head
// phase) rather than a tail vector; downstream consumers read tails
// through core.StealCoupler. The phase-service ODEs
// cover no stealing and basic threshold stealing (B = 0, D = 1, K = 1,
// instantaneous transfer, optional retries); richer variants have no
// phase-type mean-field counterpart yet.
func phaseFluidModel(o *Options) (core.Model, error) {
	bad := func(format string, args ...any) (core.Model, error) {
		return nil, fmt.Errorf("sim: %s engine: %s", o.Engine, fmt.Sprintf(format, args...))
	}
	ph, ok := dist.AsPhaseType(o.Service)
	if !ok {
		return bad("service %v has no phase-type form (use exponential, Erlang, hyperexponential, or a fitted Pareto)", o.Service)
	}
	if rho := o.Lambda * ph.Mean(); rho >= 1 {
		return bad("offered load λ·E[S] = %g is not below 1", rho)
	}
	switch o.Policy {
	case PolicyRebalance:
		return bad("pairwise rebalancing is not supported")
	case PolicyNone:
		return meanfield.NewPhaseService(o.Lambda, ph, 0, 0), nil
	}
	if o.TransferRate > 0 || o.B != 0 || o.D != 1 || o.K != 1 || o.Half {
		return bad("non-exponential service combines only with basic threshold stealing (B = 0, D = 1, K = 1, no transfer delays)")
	}
	return meanfield.NewPhaseService(o.Lambda, ph, o.T, o.RetryRate), nil
}

// fluidEngine integrates the mean-field ODEs (backend interface).
type fluidEngine struct {
	o   Options
	res Result
}

// init prepares a fresh fluid run. The stream is ignored: the fluid limit
// is deterministic.
func (f *fluidEngine) init(o Options, _ *rng.Source) {
	f.o = o
	f.res = Result{DrainTime: -1}
	f.res.P50, f.res.P95, f.res.P99 = math.NaN(), math.NaN(), math.NaN()
}

func (f *fluidEngine) result() Result { return f.res }

// run integrates the trajectory and accumulates the windowed averages.
func (f *fluidEngine) run() {
	o := &f.o
	m, err := fluidModel(o)
	if err != nil {
		// Options.Validate runs fluidModel before a backend is built, so
		// an error here means a caller bypassed validation.
		panic(err)
	}
	x := m.Initial()
	scratch := ode.NewRK4Scratch(m.Dim())
	sys := ode.System(m.Derivs)

	coupler, hasCoupler := m.(core.StealCoupler)
	tailDepth := o.TailDepth
	if !hasCoupler {
		tailDepth = 0 // the state does not imply a task-indexed tail vector
	}
	var (
		loadInt, busyInt, span float64
		tailInt, tailBuf       []float64
		seriesT, seriesL       []float64
		nextSeries             float64
	)
	if tailDepth > 0 {
		tailInt = make([]float64, tailDepth)
	}

	steps := int(math.Ceil(o.Horizon / fluidStep))
	t := 0.0
	for step := 0; step <= steps; step++ {
		if o.SeriesEvery > 0 && t >= nextSeries-1e-12 {
			seriesT = append(seriesT, nextSeries)
			seriesL = append(seriesL, m.MeanTasks(x))
			nextSeries += o.SeriesEvery
		}
		if step == steps {
			break
		}
		h := fluidStep
		if t+h > o.Horizon {
			h = o.Horizon - t
		}
		// Left-endpoint accumulation of the post-warmup window; the O(h)
		// quadrature error is far below fluid-vs-sample noise.
		if w := math.Min(t+h, o.Horizon) - math.Max(t, o.Warmup); w > 0 {
			span += w
			loadInt += m.MeanTasks(x) * w
			busyInt += core.BusyFraction(m, x) * w
			if tailInt != nil {
				tailBuf = coupler.TaskTails(x, tailBuf)
				for i := range tailInt {
					if i < len(tailBuf) {
						tailInt[i] += tailBuf[i] * w
					}
				}
			}
		}
		ode.RK4(sys, x, h, scratch)
		m.Project(x)
		t += h
	}

	f.res.End = o.Horizon
	if span > 0 {
		f.res.MeanLoad = loadInt / span
		if tailInt != nil {
			f.res.Tails = tailInt
			for i := range f.res.Tails {
				f.res.Tails[i] /= span
			}
		}
	}
	lam := m.ArrivalRate()
	// Little's law over the measurement window: E[T] = E[L] / λ. In the
	// fluid limit the measured-task count is the deterministic flow
	// λ · N · span.
	f.res.MeanSojourn = f.res.MeanLoad / lam
	f.res.Measured = int64(math.Round(lam * float64(o.N) * span))
	f.res.SeriesTimes = seriesT
	f.res.SeriesLoads = seriesL

	// Flow-balance counters: arrivals over [0, End] minus the fluid mass
	// still in the system at the end equals departures.
	met := metrics.Metrics{Duration: o.Horizon, Span: span}
	met.Arrivals = int64(math.Round(lam * float64(o.N) * o.Horizon))
	inSystem := m.MeanTasks(x) * float64(o.N)
	met.Departures = met.Arrivals - int64(math.Round(inSystem))
	if met.Departures < 0 {
		met.Departures = 0
	}
	if span > 0 {
		met.Utilization = busyInt / span
	}
	f.res.Metrics = met
}
