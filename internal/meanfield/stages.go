package meanfield

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/numeric"
)

// Stages is the constant-service-time model via Erlang's method of stages
// (§3.1): each task consists of c service stages, each exponential with
// mean 1/c, so the total service time is Erlang(c, c) — mean 1, variance
// 1/c — which approximates a constant as c grows. The state vector tracks
// s_i = fraction of processors with at least i service *stages* remaining.
//
// A victim must hold at least T tasks, i.e. at least τ = (T−1)·c + 1 stages
// (the head task has between 1 and c stages left, every queued task has a
// full c). A steal moves the tail task — exactly c stages — from victim to
// thief. For the paper's T = 2 case the system reduces to its equations:
//
//	ds₁/dt = λ(s₀−s₁) − c(s₁−s₂)(1 − s_{c+1})
//	ds_i/dt = λ(s₀−s_i) + c(s₁−s₂)s_{i+c} − c(s_i−s_{i+1}),        2 ≤ i ≤ c
//	ds_i/dt = λ(s_{i−c}−s_i) − c(s_i−s_{i+1})
//	          − c(s_i−s_{i+c})(s₁−s₂),                              i ≥ c+1
//
// The general-T form implemented here combines, for every i ≥ 1: an arrival
// term λ(s_{max(i−c,0)} − s_i) (an arrival adds c stages), a service term
// −c(s_i − s_{i+1}), a thief gain +c(s₁−s₂)s_τ for i ≤ c (a successful
// thief jumps 0 → c stages), and a victim loss
// −c(s₁−s₂)(s_{max(i,τ)} − s_{i+c}) when max(i,τ) ≤ i+c−1.
type Stages struct {
	base
	c   int // stages per task
	t   int // threshold in tasks
	tau int // threshold in stages: (t−1)c + 1
}

// NewStages constructs the stage model with arrival rate λ, c ≥ 1 stages
// per task, and task threshold T ≥ 2.
func NewStages(lambda float64, c, t int) *Stages {
	checkLambda(lambda)
	if c < 1 {
		panic("meanfield: Stages needs c >= 1")
	}
	if t < 2 {
		panic("meanfield: Stages needs T >= 2")
	}
	// With stealing, the equilibrium task tails decay at the closed-form
	// ratio β of the threshold model (not at λ), so the stage-space state
	// can be truncated at roughly c·log(tol)/log(β) with a safety margin —
	// crucial at high λ where a λ-based truncation times c would explode.
	beta := SolveThreshold(lambda, t).Beta
	tasks := core.TruncationDim(beta, TruncTol, 32, maxDim)
	tasks = tasks*3/2 + 8
	dim := tasks * c
	if dim > maxDim*2 {
		dim = maxDim * 2
	}
	tau := (t-1)*c + 1
	if dim < tau+4*c {
		dim = tau + 4*c
	}
	return &Stages{
		base: base{name: fmt.Sprintf("stages(c=%d,T=%d)", c, t), lambda: lambda, dim: dim},
		c:    c,
		t:    t,
		tau:  tau,
	}
}

// MaxRate reflects the stage service rate c dominating the dynamics.
func (m *Stages) MaxRate() float64 { return float64(2*m.c) + 2 }

// BusyFraction reports s₁ in stage space — any remaining stage means a
// task in service (core.Observer).
func (m *Stages) BusyFraction(x []float64) float64 { return x[1] }

// StealSuccessProb reports s_τ: a victim needs τ = (T−1)c + 1 stages, not
// T entries of the stage-space state (core.Observer).
func (m *Stages) StealSuccessProb(x []float64) (float64, bool) {
	if m.tau >= m.dim {
		return 0, false
	}
	return x[m.tau], true
}

// Initial returns the empty system.
func (m *Stages) Initial() []float64 { return core.EmptyTails(m.dim) }

// WarmStart spreads the no-stealing task-space equilibrium over stages:
// s_{(j−1)c+r} ≈ λ^j adjusted linearly within a task's stages.
func (m *Stages) WarmStart() []float64 {
	x := make([]float64, m.dim)
	x[0] = 1
	cf := SolveThreshold(m.lambda, m.t)
	for i := 1; i < m.dim; i++ {
		// Stage i belongs to task level j = ceil(i/c); interpolate between
		// π_{j−1} and π_j so the warm start is smooth in stage space.
		j := (i + m.c - 1) / m.c
		frac := float64(i-(j-1)*m.c) / float64(m.c)
		lo, hi := cf.Pi(j), cf.Pi(j-1)
		x[i] = hi + (lo-hi)*frac
	}
	core.ProjectTails(x)
	return x
}

// Derivs implements the general-T stage system with boundary s_{dim} = 0.
//
// Every dx[i] is the same expression, evaluated in the same order, at
// every level. Levels below τ and the last c hold the boundary and
// threshold cases and take the generic form; on the interior τ ≤ i < n−c
// (τ ≥ c+1, so no thief gain) every index is in range and the victim loss
// is always on, so one loop over equal-length windows needs neither the
// tests nor bounds checks (DESIGN §17).
func (m *Stages) Derivs(x, dx []float64) {
	lambda := m.lambda
	c := float64(m.c)
	n := len(x)
	theta := x[1] - x[2] // processors completing their final stage
	ct := c * theta
	ctTau := ct * at(x, m.tau)
	generic := func(i int) {
		d := lambda*(x[max(i-m.c, 0)]-x[i]) - c*(x[i]-at(x, i+1))
		if i <= m.c {
			// Thief gain: successful steal jumps the thief to c stages.
			d += ctTau
		}
		// Victim loss: victims with stage counts in [max(i, τ), i+c−1].
		lo := i
		if m.tau > lo {
			lo = m.tau
		}
		if lo <= i+m.c-1 {
			d -= ct * (at(x, lo) - at(x, i+m.c))
		}
		dx[i] = d
	}
	// The interior is [from, to).
	from, to := min(m.tau, n), n-m.c
	if to < from {
		to = from
	}
	dx[0] = 0
	for i := 1; i < from; i++ {
		generic(i)
	}
	if from < to {
		d := dx[from:to]
		xm, x0, x1, xc := x[from-m.c:to-m.c], x[from:to], x[from+1:to+1], x[from+m.c:to+m.c]
		// Equal lengths let the compiler drop the loop's bounds checks.
		xm, x0, x1, xc = xm[:len(d)], x0[:len(d)], x1[:len(d)], xc[:len(d)]
		for j := range d {
			v := lambda*(xm[j]-x0[j]) - c*(x0[j]-x1[j])
			v -= ct * (x0[j] - xc[j])
			d[j] = v
		}
	}
	for i := to; i < n; i++ {
		generic(i)
	}
}

// Project restores tail feasibility.
func (m *Stages) Project(x []float64) { core.ProjectTails(x) }

// MeanTasks returns the expected tasks per processor: a processor holds at
// least k tasks exactly when it holds at least (k−1)c + 1 stages, so
// E[L] = Σ_{k≥1} s_{(k−1)c+1}.
func (m *Stages) MeanTasks(x []float64) float64 {
	var sum numeric.KahanSum
	for i := 1; i < len(x); i += m.c {
		sum.Add(x[i])
	}
	return sum.Sum()
}
