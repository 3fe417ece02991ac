package meanfield

import "fmt"

// Repeated is the one kernel of the threshold-stealing family. A processor
// that completes its final task attempts one steal from a victim chosen
// uniformly at random, succeeding when the victim holds at least T tasks;
// empty processors additionally retry at exponential rate r, as in the WS
// algorithm of Blumofe and Leiserson (§2.5). Tasks arrive at rate λ₁ at an
// empty processor and at rate λ_b at a busy one. The limiting system is
//
//	ds₁/dt = λ₁(s₀−s₁) + r(s₀−s₁)s_T − (s₁−s₂)(1 − s_T)
//	ds_i/dt = λ_b(s_{i−1}−s_i) − (s_i−s_{i+1}),                    2 ≤ i ≤ T−1
//	ds_i/dt = λ_b(s_{i−1}−s_i) − (s_i−s_{i+1})
//	          − (s₁−s₂)(s_i−s_{i+1}) − r(s₀−s₁)(s_i−s_{i+1}),      i ≥ T
//
// The (s₁ − s₂) factor is the rate at which thieves appear (processors
// completing their final task); a steal hits a load-i victim with
// probability s_i − s_{i+1}. Every constructor below is a special case:
//
//   - Repeated stealing (§2.5): λ₁ = λ_b = λ, any r ≥ 0.
//   - Threshold stealing (§2.3, equations (4)–(6)): r = 0. As r → ∞ the
//     fraction π_T at the fixed point goes to 0: any processor reaching T
//     tasks is immediately robbed.
//   - Simple work stealing (§2.2, equations (2)–(3)): r = 0 and T = 2.
//   - No stealing (§2.2, equation (1)): r = 0 and T at the truncation
//     dimension, so s_T = 0 and no level is ever robbed, leaving
//     ds_i/dt = λ(s_{i−1} − s_i) − (s_i − s_{i+1}). Each processor is an
//     independent M/M/1 queue with fixed point π_i = λ^i.
//   - Spawning (§3.5): the arrival rate splits into λ_e + λ_i, external
//     tasks arriving everywhere at λ_e and running tasks spawning at λ_i
//     only while their processor is busy, so λ₁ = λ_e, λ_b = λ_e + λ_i and
//     r = 0:
//     ds₁/dt = λ_e(s₀−s₁) − (s₁−s₂)(1 − s_T) and, for i ≥ 2,
//     ds_i/dt = (λ_e+λ_i)(s_{i−1}−s_i) − (s_i−s_{i+1}) − ….
//   - Static draining (§3.5, Static): no external arrivals, λ₁ = 0 and
//     λ_b = λ_int, so ds₁/dt = −(s₁−s₂)(1 − s_T): an idle processor spawns
//     nothing, and one completing its final task dodges idleness when its
//     steal succeeds.
//
// Derivs reads only its arguments and the fields fixed at construction.
type Repeated struct {
	tails
	r       float64
	lam1    float64 // λ₁: arrival rate at an empty processor (into level 1)
	lamBusy float64 // λ_b: arrival rate at a busy processor (into levels ≥ 2)
}

// NewNoSteal constructs the no-stealing baseline at arrival rate λ, warm-
// started from its M/M/1 fixed point.
func NewNoSteal(lambda float64) *Repeated {
	m := &Repeated{tails: newTails("nosteal", lambda, 0, geometricStart), lam1: lambda, lamBusy: lambda}
	m.t = m.dim // s_dim = 0: no victim ever reaches the threshold
	return m
}

// NewSimpleWS constructs the simple work-stealing model (T = 2, r = 0) at
// arrival rate λ, warm-started from its closed form.
func NewSimpleWS(lambda float64) *Repeated {
	return newRepeated("simple-ws", lambda, 2, 0, simpleWSStart)
}

// NewThreshold constructs the threshold model (r = 0) with arrival rate λ
// and stealing threshold T ≥ 2.
func NewThreshold(lambda float64, t int) *Repeated {
	return newRepeated(fmt.Sprintf("threshold(T=%d)", t), lambda, t, 0, thresholdStart)
}

// NewRepeated constructs the repeated-attempts model with arrival rate λ,
// threshold T ≥ 2 and retry rate r ≥ 0.
func NewRepeated(lambda float64, t int, r float64) *Repeated {
	return newRepeated(fmt.Sprintf("repeated(T=%d,r=%g)", t, r), lambda, t, r, thresholdStart)
}

// NewSpawning constructs the spawning model with external rate λe > 0,
// internal spawn rate λi ≥ 0, and threshold T ≥ 2. It panics unless the
// effective utilization ρ = λe/(1−λi) lies in (0, 1): each external task
// brings a geometric cascade of spawned descendants with mean 1/(1−λi).
func NewSpawning(le, li float64, t int) *Repeated {
	if le <= 0 || li < 0 || li >= 1 {
		panic("meanfield: Spawning needs λe > 0 and 0 <= λi < 1")
	}
	// ArrivalRate reports the total long-run task rate per processor
	// λe + λi·P(busy) = λe + λi·ρ = ρ, so Little's law applies with this
	// value; the warm start is the geometric profile at ρ.
	rho := le / (1 - li)
	name := fmt.Sprintf("spawning(λe=%g,λi=%g,T=%d)", le, li, t)
	return &Repeated{tails: newTails(name, rho, t, geometricStart), lam1: le, lamBusy: le + li}
}

func newRepeated(name string, lambda float64, t int, r float64, start func(tails) []float64) *Repeated {
	if r < 0 {
		panic("meanfield: Repeated needs r >= 0")
	}
	return &Repeated{tails: newTails(name, lambda, t, start), r: r, lam1: lambda, lamBusy: lambda}
}

// MaxRate bounds the per-component transition rate, which grows with r.
func (m *Repeated) MaxRate() float64 { return 4 + m.r }

// Derivs implements the system above with boundary s_{dim} = 0.
//
// Every dx[i] keeps the per-level expression and its order of operations
// (DESIGN §17). Levels 2..T−1 carry no steal term and the interior
// T ≤ i < n−1 always does, so each is one loop over equal-length windows
// x[i−1:], x[i:], x[i+1:] with neither the test nor bounds checks. The
// last level, where s_{i+1} leaves the vector, keeps the generic form. No
// stealing sets T to the dimension, so all of its levels but the last
// take the no-steal loop.
func (m *Repeated) Derivs(x, dx []float64) {
	lam1, lamBusy := m.lam1, m.lamBusy
	n := len(x)
	sT := at(x, m.t)
	emptying := x[1] - x[2] // processors completing their final task
	idle := x[0] - x[1]     // empty processors retrying at rate r
	thieves := emptying + m.r*idle

	dx[0] = 0
	dx[1] = lam1*(x[0]-x[1]) + m.r*idle*sT - emptying*(1-sT)
	// Levels [2, mid) take no steal term, [mid, n−1) always take it.
	mid := max(min(m.t, n-1), 2)
	if 2 < mid {
		d := dx[2:mid]
		xm, x0, x1 := x[1:mid-1], x[2:mid], x[3:mid+1]
		xm, x0, x1 = xm[:len(d)], x0[:len(d)], x1[:len(d)]
		for j := range d {
			d[j] = lamBusy*(xm[j]-x0[j]) - (x0[j] - x1[j])
		}
	}
	if mid < n-1 {
		d := dx[mid : n-1]
		xm, x0, x1 := x[mid-1:n-2], x[mid:n-1], x[mid+1:n]
		xm, x0, x1 = xm[:len(d)], x0[:len(d)], x1[:len(d)]
		for j := range d {
			gap := x0[j] - x1[j]
			v := lamBusy*(xm[j]-x0[j]) - gap
			v -= gap * thieves
			d[j] = v
		}
	}
	for i := max(n-1, 2); i < n; i++ {
		gap := x[i] - at(x, i+1)
		d := lamBusy*(x[i-1]-x[i]) - gap
		if i >= m.t {
			d -= gap * thieves
		}
		dx[i] = d
	}
}
