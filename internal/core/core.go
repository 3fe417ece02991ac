// Package core defines the paper's central abstraction: density dependent
// jump Markov processes represented in the limit n → ∞ by families of
// differential equations over tail densities.
//
// The state of a work-stealing system with indistinguishable processors is
// summarized by the vector s = (s₀, s₁, s₂, ...) where s_i is the fraction
// of processors holding at least i tasks. A valid tail vector satisfies
//
//	s₀ = 1,  s_i ≥ s_{i+1},  s_i ∈ [0, 1],  s_i → 0.
//
// Kurtz's theorem says that when the transition rates of the finite-n Markov
// chain depend only on these densities, the rescaled chain converges to the
// deterministic solution of ds/dt = f(s); fixed points of f predict
// steady-state behavior. Package meanfield provides the concrete f for
// every model in the paper; this package provides the shared vocabulary:
// the Model interface, tail-vector validation and projection, and the
// metrics (mean load and, through Little's law, expected time in system)
// read off a fixed point.
package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/numeric"
)

// Model is a mean-field model given by an autonomous system of differential
// equations over a truncated state vector. Implementations decide the
// interpretation of the state (tails over tasks, tails over Erlang stages,
// paired vectors, ...) but must provide the common operations below.
type Model interface {
	// Name identifies the model in tables and logs.
	Name() string
	// Dim returns the truncated state dimension.
	Dim() int
	// Initial returns the canonical starting state (an empty system).
	Initial() []float64
	// Derivs writes f(x) into dx. It must not retain x or dx.
	Derivs(x, dx []float64)
	// Project restores feasibility of a state in place (clamping to [0,1],
	// re-imposing monotonicity, pinning conserved components).
	Project(x []float64)
	// MeanTasks returns the expected number of tasks per processor implied
	// by state x, counting tasks in transit where applicable.
	MeanTasks(x []float64) float64
	// ArrivalRate returns the per-processor task arrival rate λ.
	ArrivalRate() float64
}

// SojournTime converts a state's mean task count into the expected time a
// task spends in the system using Little's law: E[T] = E[L] / λ.
func SojournTime(m Model, x []float64) float64 {
	return m.MeanTasks(x) / m.ArrivalRate()
}

// FixedPoint is an equilibrium of a Model's differential equations.
type FixedPoint struct {
	Model    Model
	State    []float64 // the equilibrium tail vector(s)
	Residual float64   // ∞-norm of the derivative at State
}

// MeanTasks returns the expected tasks per processor at the fixed point.
func (fp FixedPoint) MeanTasks() float64 { return fp.Model.MeanTasks(fp.State) }

// SojournTime returns the expected time in system at the fixed point.
func (fp FixedPoint) SojournTime() float64 { return SojournTime(fp.Model, fp.State) }

// Observer is an optional Model interface for models whose State is not a
// single tails vector (split populations, stage space). It reports the
// observable quantities the simulator's metrics layer measures, in task
// space, so CLI readouts stay correct for every state layout.
type Observer interface {
	// BusyFraction returns the fraction of processors serving a task at
	// state x.
	BusyFraction(x []float64) float64
	// StealSuccessProb returns the probability that a steal attempt finds
	// a victim at or above the model's threshold at state x; ok is false
	// when the model defines no such quantity.
	StealSuccessProb(x []float64) (p float64, ok bool)
}

// StealCoupler is an optional Model interface for models whose state the
// hybrid engine can couple a tracked DES sample against, and whose task
// tails the fluid engine reports. It is the one answer to "what tail vector
// does this state imply": the identity for a tail-vector state, a
// suffix-sum for the phase-type service model, whose state is occupancy by
// task count and service phase. It exposes the three quantities the Kurtz
// coupling reads off the fluid bulk: the task tails s_i (steal success
// probability and bulk victim-load sampling), the queue-emptying completion
// rate (the bulk steal-attempt rate), and a constant bound on it (the probe
// process's thinning bound).
//
// Every model whose state is one task-indexed tail vector implements it
// through package meanfield's shared tails base; other state layouts
// implement it themselves.
type StealCoupler interface {
	// TaskTails appends the task-indexed tail vector implied by state x to
	// out[:0] and returns it: result[i] = fraction of processors with at
	// least i tasks.
	TaskTails(x, out []float64) []float64
	// EmptyingRate returns the per-processor rate of service completions
	// that leave the completing processor's queue empty at state x — the
	// rate at which bulk processors become steal-attempting thieves.
	EmptyingRate(x []float64) float64
	// EmptyingRateBound returns a constant upper bound on EmptyingRate over
	// all feasible states.
	EmptyingRateBound() float64
}

// BusyFraction returns the fraction of busy processors at state x of m:
// the model's own accounting when it implements Observer, s₁ otherwise.
func BusyFraction(m Model, x []float64) float64 {
	if o, ok := m.(Observer); ok {
		return o.BusyFraction(x)
	}
	if len(x) > 1 {
		return x[1]
	}
	return 0
}

// BusyFraction returns the busy fraction at the fixed point. At a stable
// fixed point this equals λ.
func (fp FixedPoint) BusyFraction() float64 { return BusyFraction(fp.Model, fp.State) }

// StealSuccessProb returns the steal success probability at the fixed
// point for victim threshold t (the tail s_t for tail-vector models),
// deferring to Observer models that track it differently; ok is false
// when the quantity is undefined (t out of range, or a model without it).
func (fp FixedPoint) StealSuccessProb(t int) (float64, bool) {
	if o, ok := fp.Model.(Observer); ok {
		return o.StealSuccessProb(fp.State)
	}
	if t >= 0 && t < len(fp.State) {
		return fp.State[t], true
	}
	return 0, false
}

// ValidateTails checks that s is a feasible tail vector: s[0] == 1 (within
// tol), entries in [−tol, 1+tol], non-increasing within tol, and a final
// entry below tailTol (so the truncation lost negligible mass). It returns
// a descriptive error on the first violation.
func ValidateTails(s []float64, tol, tailTol float64) error {
	if len(s) == 0 {
		return fmt.Errorf("core: empty tail vector")
	}
	if math.Abs(s[0]-1) > tol {
		return fmt.Errorf("core: s[0] = %v, want 1", s[0])
	}
	for i, v := range s {
		if v < -tol || v > 1+tol {
			return fmt.Errorf("core: s[%d] = %v outside [0,1]", i, v)
		}
		if i > 0 && v > s[i-1]+tol {
			return fmt.Errorf("core: tails increase at %d: s[%d]=%v > s[%d]=%v", i, i, v, i-1, s[i-1])
		}
	}
	if last := s[len(s)-1]; last > tailTol {
		return fmt.Errorf("core: truncation too short: s[%d] = %v > %v", len(s)-1, last, tailTol)
	}
	return nil
}

// ProjectTails restores feasibility of a tail vector in place: pins s[0]=1,
// clamps every entry to [0, 1], and enforces monotone non-increase by a
// running minimum. It is the projection used by the Anderson solver for
// single-vector models.
func ProjectTails(s []float64) { ProjectTailsBelow(s, 1) }

// ProjectTailsBelow is ProjectTails for a tail vector whose head is head
// rather than 1 (one class or population of a split state): it pins
// s[0] = head, clamps every other entry to [0, 1] and takes the running
// minimum from head down.
func ProjectTailsBelow(s []float64, head float64) {
	if len(s) == 0 {
		return
	}
	s[0] = head
	prev := head
	for i := 1; i < len(s); i++ {
		v := numeric.Clamp(s[i], 0, 1)
		if v > prev {
			v = prev
		}
		s[i] = v
		prev = v
	}
}

// TailsToPMF appends to dst the probability mass function of the tail
// vector s, p_i = s_i − s_{i+1} (fraction of processors with exactly i
// tasks), and returns the extended slice. The mass of the final index
// absorbs the truncated tail. Passing a reused buffer's dst[:0] makes the
// conversion allocation-free once the buffer has grown to len(s).
func TailsToPMF(dst, s []float64) []float64 {
	k := len(dst)
	dst = slices.Grow(dst, len(s))[:k+len(s)]
	p := dst[k:]
	for i := 0; i < len(s)-1; i++ {
		p[i] = s[i] - s[i+1]
	}
	p[len(s)-1] = s[len(s)-1]
	return dst
}

// PMFToTails converts a mass function p into tails s_i = Σ_{j≥i} p_j.
// The result has the same length as p and s[0] equals the total mass.
func PMFToTails(p []float64) []float64 {
	s := make([]float64, len(p))
	var acc numeric.KahanSum
	for i := len(p) - 1; i >= 0; i-- {
		acc.Add(p[i])
		s[i] = acc.Sum()
	}
	return s
}

// MeanFromTails returns Σ_{i≥1} s_i, the expected number of tasks per
// processor for a task-indexed tail vector.
func MeanFromTails(s []float64) float64 {
	var k numeric.KahanSum
	for i := 1; i < len(s); i++ {
		k.Add(s[i])
	}
	return k.Sum()
}

// TruncationDim picks a state dimension for a model whose tails decay
// geometrically with ratio at most r: large enough that the discarded mass
// r^L is below tol, clamped to [minDim, maxDim]. Models pass their known
// worst-case ratio (λ without stealing).
func TruncationDim(r, tol float64, minDim, maxDim int) int {
	k := numeric.GeomTailCount(r, tol, maxDim)
	if k < minDim {
		k = minDim
	}
	return k + 2 // slack so the boundary condition s_L = 0 is harmless
}

// EmptyTails returns the tail vector of an empty system: s₀ = 1, all other
// entries 0.
func EmptyTails(dim int) []float64 {
	s := make([]float64, dim)
	s[0] = 1
	return s
}

// GeometricTails returns the tail vector s_i = ratio^i truncated to dim,
// the M/M/1 equilibrium shape. Useful as a warm start and in tests.
func GeometricTails(ratio float64, dim int) []float64 {
	s := make([]float64, dim)
	v := 1.0
	for i := range s {
		s[i] = v
		v *= ratio
	}
	return s
}

// TailRatio estimates the asymptotic geometric decay ratio of a tail vector
// by averaging successive ratios over indices where the tail is still well
// above floor. Returns NaN if fewer than two usable indices exist.
func TailRatio(s []float64, from int, floor float64) float64 {
	var sum numeric.KahanSum
	count := 0
	for i := from; i+1 < len(s); i++ {
		if s[i+1] <= floor || s[i] <= floor {
			break
		}
		sum.Add(s[i+1] / s[i])
		count++
	}
	if count == 0 {
		return math.NaN()
	}
	return sum.Sum() / float64(count)
}
