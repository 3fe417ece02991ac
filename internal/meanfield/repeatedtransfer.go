package meanfield

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/numeric"
)

// RepeatedTransfer is the kernel of the transfer-time models. In the
// transfer-time model (§3.2) a stolen task takes an exponentially
// distributed time with mean 1/rt to move from victim to thief, and a
// thief with a task already in flight does not steal again; combined with
// the repeated attempts of §2.5 ("the extensions can be combined as
// desired", §3), idle processors also retry steals at rate ra, the most
// realistic rendering of the WS algorithm. The state splits into two tail
// vectors: s_i for processors not awaiting a stolen task and w_i for
// processors awaiting one (both absolute fractions, s₀ + w₀ = 1).
//
// With θ = (s₁−s₂) + ra(s₀−s₁) the total steal-attempt rate (processors
// emptying plus idle retriers) and S = s_T + w_T the per-attempt success
// probability:
//
//	ds₀/dt = rt·w₀ − θ·S
//	ds₁/dt = λ(s₀−s₁) + rt·w₀ − (s₁−s₂)
//	ds_i/dt = λ(s_{i−1}−s_i) + rt·w_{i−1} − (s_i−s_{i+1})
//	          − [i ≥ T]·θ·(s_i−s_{i+1})
//	dw₀/dt = −rt·w₀ + θ·S
//	dw_i/dt = λ(w_{i−1}−w_i) − rt·w_i − (w_i−w_{i+1})
//	          − [i ≥ T]·θ·(w_i−w_{i+1})
//
// Tasks can be stolen from awaiting processors (the s_T + w_T success
// probability). A completed transfer raises the processor's load by one,
// which is why rt·w_{i−1} feeds s_i. ra = 0 is the transfer-time model;
// rt → ∞ recovers Repeated. The transfer-time model quantifies the paper's
// threshold rule of thumb: the best T is roughly 1/rt + 1 at low arrival
// rates but grows at high ones (Table 3).
type RepeatedTransfer struct {
	pair      // state is s[0:l] ++ w[0:l]
	ra, rt    float64
	geometric bool // warm-start from the no-stealing equilibrium
}

// NewTransfer constructs the transfer-time model (ra = 0) with arrival
// rate λ, threshold T ≥ 2 and transfer rate r > 0 (mean transfer time
// 1/r), warm-started from the no-stealing equilibrium.
func NewTransfer(lambda float64, t int, r float64) *RepeatedTransfer {
	return newRepeatedTransfer(fmt.Sprintf("transfer(T=%d,r=%g)", t, r), lambda, t, 0, r, true)
}

// NewRepeatedTransfer constructs the combined model with arrival rate λ,
// threshold T ≥ 2, retry rate ra ≥ 0, and transfer rate rt > 0. It starts
// from the empty system: NewTransfer's geometric warm start would move its
// λ = 0.99 fixed point by up to 3e-5.
func NewRepeatedTransfer(lambda float64, t int, ra, rt float64) *RepeatedTransfer {
	name := fmt.Sprintf("repeated-transfer(T=%d,ra=%g,rt=%g)", t, ra, rt)
	return newRepeatedTransfer(name, lambda, t, ra, rt, false)
}

func newRepeatedTransfer(name string, lambda float64, t int, ra, rt float64, geometric bool) *RepeatedTransfer {
	if ra < 0 || rt <= 0 {
		panic("meanfield: transfer models need ra >= 0 and rt > 0")
	}
	checkLambda(lambda)
	return &RepeatedTransfer{newPair(name, lambda, t, taskDim(lambda, t)), ra, rt, geometric}
}

// MaxRate bounds the per-component transition rates.
func (m *RepeatedTransfer) MaxRate() float64 { return 4 + m.ra + m.rt }

// Initial returns the empty system: all processors idle and not awaiting.
func (m *RepeatedTransfer) Initial() []float64 {
	x := make([]float64, m.dim)
	x[0] = 1
	return x
}

// WarmStart puts the no-stealing geometric equilibrium in s and a small
// multiple of it in w when the model asks for it; nil starts Solve from
// the empty system.
func (m *RepeatedTransfer) WarmStart() []float64 {
	if !m.geometric {
		return nil
	}
	x := make([]float64, m.dim)
	s, w := m.Split(x)
	g := core.GeometricTails(m.lambda, m.l)
	frac := numeric.Clamp(0.1/m.rt, 0, 0.4) // rough share of awaiting processors
	for i := range g {
		s[i] = g[i] * (1 - frac)
		w[i] = g[i] * frac
	}
	return x
}

// Derivs implements the combined system with boundary s_l = w_l = 0.
//
// As in Repeated.Derivs, every level keeps its expression (DESIGN §17):
// in each vector the levels below T take no steal term and the interior
// T ≤ i < l−1 always does, each as one loop over equal-length windows,
// and the last level keeps the generic form.
func (m *RepeatedTransfer) Derivs(x, dx []float64) {
	lambda, ra, rt := m.lambda, m.ra, m.rt
	s, w := m.Split(x)
	ds, dw := m.Split(dx)
	l := m.l
	theta := (s[1] - at(s, 2)) + ra*(s[0]-s[1])
	succ := at(s, m.t) + at(w, m.t)

	ds[0] = rt*w[0] - theta*succ
	ds[1] = lambda*(s[0]-s[1]) + rt*w[0] - (s[1] - at(s, 2))
	// s levels [2, mid) take no steal term, [mid, l−1) always take it.
	mid := max(min(m.t, l-1), 2)
	if 2 < mid {
		d := ds[2:mid]
		sm, s0, s1, wm := s[1:mid-1], s[2:mid], s[3:mid+1], w[1:mid-1]
		sm, s0, s1, wm = sm[:len(d)], s0[:len(d)], s1[:len(d)], wm[:len(d)]
		for j := range d {
			d[j] = lambda*(sm[j]-s0[j]) + rt*wm[j] - (s0[j] - s1[j])
		}
	}
	if mid < l-1 {
		d := ds[mid : l-1]
		sm, s0, s1, wm := s[mid-1:l-2], s[mid:l-1], s[mid+1:l], w[mid-1:l-2]
		sm, s0, s1, wm = sm[:len(d)], s0[:len(d)], s1[:len(d)], wm[:len(d)]
		for j := range d {
			gap := s0[j] - s1[j]
			v := lambda*(sm[j]-s0[j]) + rt*wm[j] - gap
			v -= gap * theta
			d[j] = v
		}
	}
	for i := max(l-1, 2); i < l; i++ {
		gap := s[i] - at(s, i+1)
		d := lambda*(s[i-1]-s[i]) + rt*w[i-1] - gap
		if i >= m.t {
			d -= gap * theta
		}
		ds[i] = d
	}

	dw[0] = -rt*w[0] + theta*succ
	// w levels [1, mid) take no steal term, [mid, l−1) always take it.
	mid = max(min(m.t, l-1), 1)
	if 1 < mid {
		d := dw[1:mid]
		wm, w0, w1 := w[0:mid-1], w[1:mid], w[2:mid+1]
		wm, w0, w1 = wm[:len(d)], w0[:len(d)], w1[:len(d)]
		for j := range d {
			d[j] = lambda*(wm[j]-w0[j]) - rt*w0[j] - (w0[j] - w1[j])
		}
	}
	if mid < l-1 {
		d := dw[mid : l-1]
		wm, w0, w1 := w[mid-1:l-2], w[mid:l-1], w[mid+1:l]
		wm, w0, w1 = wm[:len(d)], w0[:len(d)], w1[:len(d)]
		for j := range d {
			gap := w0[j] - w1[j]
			v := lambda*(wm[j]-w0[j]) - rt*w0[j] - gap
			v -= gap * theta
			d[j] = v
		}
	}
	for i := max(l-1, 1); i < l; i++ {
		gap := w[i] - at(w, i+1)
		d := lambda*(w[i-1]-w[i]) - rt*w[i] - gap
		if i >= m.t {
			d -= gap * theta
		}
		dw[i] = d
	}
}

// Project restores feasibility: both halves are clamped monotone tails and
// the total population s₀ + w₀ is renormalized to 1.
func (m *RepeatedTransfer) Project(x []float64) {
	s, w := m.Split(x)
	// Clamp and monotonize w first (its head is free), then pin s₀ to the
	// remaining population and monotonize s below it.
	core.ProjectTailsBelow(w, numeric.Clamp(w[0], 0, 1))
	core.ProjectTailsBelow(s, 1-w[0])
}

// MeanTasks counts queued tasks at all processors plus tasks in transit:
// Σ_{i≥1}(s_i + w_i) + w₀.
func (m *RepeatedTransfer) MeanTasks(x []float64) float64 {
	_, w := m.Split(x)
	sum := m.levelSum(x)
	sum.Add(w[0])
	return sum.Sum()
}

var _ core.Model = (*RepeatedTransfer)(nil)
