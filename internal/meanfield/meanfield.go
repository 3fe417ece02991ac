// Package meanfield implements every mean-field work-stealing model in the
// paper as a system of differential equations over tail densities, together
// with fixed-point solvers and the closed forms the paper derives.
//
// Models (paper section in parentheses), by constructor:
//
//	NewNoSteal          (§2.2)  no stealing baseline; fixed point π_i = λ^i (M/M/1)
//	NewSimpleWS         (§2.2)  steal one task on emptying from a victim with ≥ 2
//	NewThreshold        (§2.3)  steal on emptying from a victim with ≥ T
//	NewPreemptive       (§2.4)  begin stealing at ≤ B tasks, victim ≥ thief + T
//	NewRepeated         (§2.5)  empty processors retry steals at rate r
//	NewStages           (§3.1)  constant service times via Erlang's method of stages
//	NewTransfer         (§3.2)  stolen tasks take Exp(mean 1/r) to arrive
//	NewChoices          (§3.3)  d victims sampled, steal from the most loaded
//	NewMultiSteal       (§3.4)  steal k ≤ T/2 tasks at once
//	NewStealHalf        (§3.4)  steal ⌈j/2⌉ of a victim's j ≥ T tasks
//	NewRebalance        (§3.4)  pairwise load balancing at rate r (Rudolph et al.)
//	NewHetero           (§3.5)  fast/slow processor classes
//	NewSpawning         (§3.5)  running tasks spawn work at an internal rate
//	NewStatic           (§3.5)  no external arrivals; drain from an initial state
//	NewRepeatedTransfer (§3)    retries at rate ra combined with transfer times
//	NewPhaseService     (§3.1)  phase-type service, the general form of Stages
//
// Special cases share one kernel, as they share one ODE family in the
// paper. Simple WS is threshold stealing at T = 2, threshold stealing is
// repeated stealing at r = 0, and no stealing is threshold stealing with a
// threshold no level reaches. Spawning and the static drain are threshold
// stealing whose arrival rate into level 1 (an empty processor) differs
// from the rate into the busy levels. So NewNoSteal, NewSimpleWS,
// NewThreshold, NewRepeated and NewSpawning all build a Repeated, and
// Static wraps one around its initial state; NewTransfer and
// NewRepeatedTransfer both build a RepeatedTransfer (retry rate ra = 0 for
// the former). The constructors differ only in the model name, the
// parameters and the warm start. Every model whose state is one
// task-indexed tail vector embeds tails, which supplies the truncation,
// initial state, projection, mean load and warm start; Hetero and
// RepeatedTransfer, whose state is two such vectors, embed pair, which
// supplies the split, the observers and the level sum. Both bases check
// the victim threshold, and every kernel reads s_i = 0 past the
// truncation through at.
//
// Every model implements core.Model; Solve finds its fixed point with the
// Anderson-accelerated solver, and the closed forms in closedform.go provide
// independent cross-checks for the models the paper solves analytically.
package meanfield

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/numeric"
	"repro/internal/solver"
)

// TruncTol is the tail mass at which state vectors are truncated. Chosen so
// truncation error is far below both simulation noise and the 4-significant-
// digit precision of the paper's tables.
const TruncTol = 1e-13

// maxDim caps state dimensions so that λ → 1 cannot demand unbounded
// vectors. At the cap the discarded mass is still < 1e-6 of a single
// processor for λ = 0.995.
const maxDim = 8192

// taskDim picks the truncation for a task-indexed tail vector at arrival
// rate λ and victim threshold t: without stealing tails decay like λ^i, and
// stealing only makes them decay faster, so λ is a safe worst-case ratio.
// The vector keeps at least t + 8 entries, so the threshold and the levels
// just above it are always represented.
func taskDim(lambda float64, t int) int {
	return max(core.TruncationDim(lambda, TruncTol, 32, maxDim), t+8)
}

// base carries the fields shared by every model.
type base struct {
	name   string
	lambda float64
	dim    int
}

func (b base) Name() string         { return b.name }
func (b base) ArrivalRate() float64 { return b.lambda }
func (b base) Dim() int             { return b.dim }

// at reads s_i with the boundary condition every kernel shares: s_i = 0
// for i at or past the truncation.
func at(x []float64, i int) float64 {
	if i >= len(x) {
		return 0
	}
	return x[i]
}

// checkThreshold panics unless the victim threshold T is at least 2: a
// victim must keep a task after losing one.
func checkThreshold(t int) {
	if t < 2 {
		panic(fmt.Sprintf("meanfield: threshold T = %d must be at least 2", t))
	}
}

// tails is the base of every model whose state is one task-indexed tail
// vector, s_i the fraction of processors holding at least i tasks.
type tails struct {
	base
	t     int                   // victim threshold; 0 when the model has none
	start func(tails) []float64 // Solve's starting point; nil starts empty
}

// newTails checks λ and the threshold (0 for none, otherwise at least 2)
// and sizes the tail vector with taskDim.
func newTails(name string, lambda float64, t int, start func(tails) []float64) tails {
	if t != 0 {
		checkThreshold(t)
	}
	checkLambda(lambda)
	return tails{base{name, lambda, taskDim(lambda, t)}, t, start}
}

// Initial returns the empty system.
func (m tails) Initial() []float64 { return core.EmptyTails(m.dim) }

// Project restores tail feasibility.
func (m tails) Project(x []float64) { core.ProjectTails(x) }

// MeanTasks returns the expected tasks per processor at state x.
func (m tails) MeanTasks(x []float64) float64 { return core.MeanFromTails(x) }

// WarmStart returns the model's starting point for Solve, or nil for the
// empty system.
func (m tails) WarmStart() []float64 {
	if m.start == nil {
		return nil
	}
	return m.start(m)
}

// TaskTails copies the state, which already is the tail vector
// (core.StealCoupler).
func (m tails) TaskTails(x, out []float64) []float64 { return append(out[:0], x...) }

// EmptyingRate returns s₁ − s₂, the rate of unit-rate exponential
// completions that leave a queue empty (core.StealCoupler). It is the raw
// difference: the hybrid engine clamps the attempt rate once, itself.
func (m tails) EmptyingRate(x []float64) float64 {
	var s1, s2 float64
	if len(x) > 1 {
		s1 = x[1]
	}
	if len(x) > 2 {
		s2 = x[2]
	}
	return s1 - s2
}

// EmptyingRateBound returns 1, the unit service rate (core.StealCoupler).
func (m tails) EmptyingRateBound() float64 { return 1 }

// pair is the base of every model whose state is two task-indexed tail
// vectors of l levels each, a and b stacked as a[0:l] ++ b[0:l] (the two
// processor classes of Hetero, the populations not awaiting and awaiting
// a stolen task of RepeatedTransfer). Both count absolute fractions, so
// busy processors, successful steals and tasks are sums over the two.
type pair struct {
	base
	t int // victim threshold
	l int // per-vector length
}

// newPair checks the threshold and sizes the state at two vectors of l
// levels.
func newPair(name string, lambda float64, t, l int) pair {
	checkThreshold(t)
	return pair{base{name, lambda, 2 * l}, t, l}
}

// Split returns the two vectors' views of a state.
func (m pair) Split(x []float64) (a, b []float64) {
	return x[:m.l], x[m.l : 2*m.l]
}

// BusyFraction reports a₁ + b₁, busy processors in either vector
// (core.Observer).
func (m pair) BusyFraction(x []float64) float64 {
	a, b := m.Split(x)
	return a[1] + b[1]
}

// StealSuccessProb reports a_T + b_T, the chance that a victim drawn from
// all processors holds at least T tasks (core.Observer).
func (m pair) StealSuccessProb(x []float64) (float64, bool) {
	if m.t >= m.l {
		return 0, false
	}
	a, b := m.Split(x)
	return a[m.t] + b[m.t], true
}

// levelSum accumulates Σ_{i≥1}(a_i + b_i), the tasks queued in both
// vectors, adding both values of a level in turn.
func (m pair) levelSum(x []float64) numeric.KahanSum {
	a, b := m.Split(x)
	var sum numeric.KahanSum
	for i := 1; i < m.l; i++ {
		sum.Add(a[i])
		sum.Add(b[i])
	}
	return sum
}

// geometricStart is the no-stealing equilibrium π_i = λ^i, an upper bound
// on every stealing equilibrium.
func geometricStart(m tails) []float64 { return core.GeometricTails(m.lambda, m.dim) }

// simpleWSStart is the simple-WS closed form, so the numeric solver only
// has to confirm it (and correct the tiny truncation boundary effect).
func simpleWSStart(m tails) []float64 { return closedFormTails(SolveSimpleWS(m.lambda), m.dim) }

// thresholdStart is the threshold-T closed form: exact for threshold
// stealing and the right tail shape for its extensions.
func thresholdStart(m tails) []float64 {
	return closedFormTails(SolveThreshold(m.lambda, m.t), m.dim)
}

// closedFormTails evaluates a closed-form equilibrium on dim levels.
func closedFormTails(cf interface{ Pi(int) float64 }, dim int) []float64 {
	x := make([]float64, dim)
	for i := range x {
		x[i] = cf.Pi(i)
	}
	return x
}

// checkLambda panics unless 0 < λ < 1, the stability region of every model.
func checkLambda(lambda float64) {
	if lambda <= 0 || lambda >= 1 {
		panic(fmt.Sprintf("meanfield: arrival rate λ = %v outside (0, 1)", lambda))
	}
}

// SolveOptions tunes Solve. The zero value requests defaults appropriate to
// the model.
type SolveOptions struct {
	// MaxIter bounds outer Anderson iterations; 0 defaults to 800.
	MaxIter int
	// Perturb, when non-nil, is forwarded to the solver's fault-injection
	// seam (solver.Options.Perturb): it may corrupt iterates to exercise
	// the divergence guard. Production solves leave it nil; see
	// internal/chaos.
	Perturb func(x []float64)
}

// warmStarter is implemented by models that can supply a better starting
// point than their initial state (typically a closed-form or no-stealing
// equilibrium); a nil WarmStart falls back to Initial.
type warmStarter interface {
	WarmStart() []float64
}

// maxRater is implemented by models whose per-component transition rates
// exceed the default λ + steal + service ≤ 4 bound (the Erlang-stage model
// scales rates by c). Solve uses it to pick a stable RK4 step.
type maxRater interface {
	MaxRate() float64
}

// relaxRater is implemented by models whose slowest relaxation mode is not
// governed by 1 − λ (the default): the phase-type model mixes at
// (1 − ρ)·μ_min when a slow branch dominates. Solve stretches the Picard
// horizon to cover the advertised rate so each application contracts the
// slow modes enough for Anderson mixing to stay out of limit cycles.
type relaxRater interface {
	RelaxRate() float64
}

// Solve finds the fixed point of model m using Anderson-accelerated Picard
// iteration on the RK4 flow, starting from the model's warm start (or its
// initial state), and validates the result.
func Solve(m core.Model, opt SolveOptions) (core.FixedPoint, error) {
	if opt.MaxIter == 0 {
		opt.MaxIter = 800
	}
	var x0 []float64
	if ws, ok := m.(warmStarter); ok {
		x0 = ws.WarmStart()
	}
	if x0 == nil {
		x0 = m.Initial()
	}
	rate := 4.0
	if mr, ok := m.(maxRater); ok {
		rate = mr.MaxRate()
	}
	step := 0.5 / rate
	// The slowest relaxation mode decays like exp(−(1−λ)²·t/const), so give
	// one Picard application a horizon that grows as λ → 1; Anderson mixing
	// then needs only tens of applications. Models with slower modes than
	// 1 − λ (slow service phases) advertise them via relaxRater.
	relax := 1 - m.ArrivalRate()
	if rr, ok := m.(relaxRater); ok {
		relax = rr.RelaxRate()
	}
	horizon := numeric.Clamp(1.5/relax, 40*step, 120)
	res, err := solver.FixedPoint(m.Derivs, x0, solver.Options{
		Tol:     1e-11, // the residual tolerance
		Horizon: horizon,
		Step:    step,
		Memory:  6,
		MaxIter: opt.MaxIter,
		Project: m.Project,
		Perturb: opt.Perturb,
	})
	fp := core.FixedPoint{Model: m, State: res.X, Residual: res.Residual}
	if err != nil {
		return fp, fmt.Errorf("meanfield: solving %s: %w", m.Name(), err)
	}
	return fp, nil
}

// MustSolve is Solve but panics on failure; used by examples and benches
// where a solver failure is a programming error.
func MustSolve(m core.Model, opt SolveOptions) core.FixedPoint {
	fp, err := Solve(m, opt)
	if err != nil {
		panic(err)
	}
	return fp
}
