package meanfield

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/numeric"
	"repro/internal/ode"
)

// Static is the static-system model of §3.5: setting the external arrival
// rate to zero (and optionally letting running tasks spawn new tasks at an
// internal rate λint, which only applies while a processor is busy), the
// system starts from some initial load distribution and runs until all
// queues are empty. For large n the transient solution of the ODEs gives a
// good approximation of the drain time. Stealing follows the threshold
// rule with victim load ≥ T.
//
// The equations are the threshold kernel's (Repeated) with arrival rates
// λ₁ = 0 into level 1 and λ_b = λint into the busy levels: an idle
// processor spawns nothing. Static adds the configured starting state and
// DrainTime.
//
// ArrivalRate returns the internal spawn rate λint (external arrivals are
// zero). Little's law does not apply to a draining system, so SojournTime
// is not meaningful here; use DrainTime instead.
type Static struct {
	Repeated
	initial []float64
}

// NewStatic constructs a static (draining) system from an initial tail
// vector, an internal spawn rate λint in [0, 1), and threshold T ≥ 2.
// The initial vector is copied; its first entry must be 1.
func NewStatic(initial []float64, lint float64, t int) *Static {
	if len(initial) == 0 || initial[0] != 1 {
		panic("meanfield: Static needs an initial tail vector with s[0] = 1")
	}
	if lint < 0 || lint >= 1 {
		panic("meanfield: Static needs 0 <= λint < 1")
	}
	if t < 2 {
		panic("meanfield: Static needs T >= 2")
	}
	dim := len(initial) + 8
	init := make([]float64, dim)
	copy(init, initial)
	core.ProjectTails(init)
	name := fmt.Sprintf("static(λint=%g,T=%d)", lint, t)
	// λ₁ = 0: an idle processor spawns nothing.
	return &Static{Repeated{tails: tails{base{name, lint, dim}, t, nil}, lamBusy: lint}, init}
}

// UniformInitial builds an initial tail vector where every processor starts
// with exactly k tasks.
func UniformInitial(k int) []float64 {
	s := make([]float64, k+1)
	for i := range s {
		s[i] = 1
	}
	return s
}

// Initial returns the configured starting state.
func (m *Static) Initial() []float64 { return append([]float64(nil), m.initial...) }

// DrainResult reports a drain-time computation.
type DrainResult struct {
	Time      float64   // first time mean load fell below eps
	Reached   bool      // false if maxTime elapsed first
	MeanLoads []float64 // mean load sampled at each dt step (index 0 = t0)
	Dt        float64   // sampling interval
}

// DrainTime integrates the draining system from its initial state and
// returns the first time the mean load per processor falls below eps.
func (m *Static) DrainTime(eps, dt, maxTime float64) DrainResult {
	if eps <= 0 || dt <= 0 || maxTime <= 0 {
		panic("meanfield: DrainTime needs positive eps, dt, maxTime")
	}
	x := m.Initial()
	res := DrainResult{Dt: dt}
	// RK4 inner steps sized for stability (total rate ≤ 4).
	h := numeric.Clamp(dt, 1e-3, 0.1)
	res.MeanLoads = append(res.MeanLoads, m.MeanTasks(x))
	for t := 0.0; t < maxTime; {
		ode.Integrate(m.Derivs, x, dt, h)
		t += dt
		load := m.MeanTasks(x)
		res.MeanLoads = append(res.MeanLoads, load)
		if load < eps {
			res.Time = t
			res.Reached = true
			return res
		}
	}
	res.Time = maxTime
	return res
}

var _ core.Model = (*Static)(nil)
