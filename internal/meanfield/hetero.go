package meanfield

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/numeric"
)

// Hetero is the heterogeneous-processors model of §3.5: the paper notes
// that different processor types are handled by keeping a separate state
// vector per type. We implement two classes, "fast" and "slow", with class
// fractions q and 1−q, per-processor arrival rates λf and λs, and service
// rates μf and μs. Stealing follows the threshold rule: a processor that
// empties picks a victim uniformly at random among ALL processors and
// steals if the victim holds at least T tasks.
//
// The state holds two absolute tail vectors u (fast) and v (slow) with
// u₀ = q and v₀ = 1−q. With Θ = μf(u₁−u₂) + μs(v₁−v₂) the total thief
// appearance rate and S = u_T + v_T the steal success probability:
//
//	du₁/dt = λf(u₀−u₁) − μf(u₁−u₂)(1 − S)
//	du_i/dt = λf(u_{i−1}−u_i) − μf(u_i−u_{i+1}),                    2 ≤ i ≤ T−1
//	du_i/dt = λf(u_{i−1}−u_i) − μf(u_i−u_{i+1}) − Θ(u_i−u_{i+1}),    i ≥ T
//
// and symmetrically for v. Stability requires the total arrival rate to be
// below the total service capacity; individual classes may be overloaded as
// long as stealing can drain them (the model exposes exactly this effect).
type Hetero struct {
	pair             // state is u[0:l] ++ v[0:l]
	q        float64 // fraction of fast processors
	lf, ls   float64 // per-processor arrival rates by class
	muF, muS float64 // service rates by class
}

// NewHetero constructs the two-class model. q in (0,1) is the fast-class
// fraction; λf, λs are per-class arrival rates; μf, μs per-class service
// rates; T ≥ 2 the stealing threshold. The aggregate utilization
// (q·λf + (1−q)·λs) / (q·μf + (1−q)·μs) must be below 1.
func NewHetero(q, lf, ls, muF, muS float64, t int) *Hetero {
	if q <= 0 || q >= 1 {
		panic("meanfield: Hetero needs 0 < q < 1")
	}
	if lf < 0 || ls < 0 || muF <= 0 || muS <= 0 {
		panic("meanfield: Hetero needs non-negative arrivals and positive service rates")
	}
	arr := q*lf + (1-q)*ls
	cap_ := q*muF + (1-q)*muS
	if arr >= cap_ {
		panic(fmt.Sprintf("meanfield: Hetero unstable: arrivals %g >= capacity %g", arr, cap_))
	}
	// An individually overloaded class drains through stealing, so its tail
	// ratio λc/(μc + Θ) can exceed the aggregate utilization; truncate with
	// a margin (√ρ > ρ) to cover such configurations. Fixed-point validity
	// is still checked by callers via core.ValidateTails.
	rho := arr / cap_
	l := core.TruncationDim(math.Sqrt(rho), TruncTol, 32, maxDim)
	if l < t+8 {
		l = t + 8
	}
	name := fmt.Sprintf("hetero(q=%g,λf=%g,λs=%g,μf=%g,μs=%g,T=%d)", q, lf, ls, muF, muS, t)
	return &Hetero{pair: newPair(name, arr, t, l), q: q, lf: lf, ls: ls, muF: muF, muS: muS}
}

// MaxRate bounds the per-component transition rates.
func (m *Hetero) MaxRate() float64 {
	mu := m.muF
	if m.muS > mu {
		mu = m.muS
	}
	la := m.lf
	if m.ls > la {
		la = m.ls
	}
	return 2*(mu+la) + 2
}

// Initial returns the empty system with class fractions in place.
func (m *Hetero) Initial() []float64 {
	x := make([]float64, m.dim)
	x[0] = m.q
	x[m.l] = 1 - m.q
	return x
}

// WarmStart gives each class its own M/M/1-like geometric profile at its
// own utilization (clamped below 1 for classes that rely on stealing).
func (m *Hetero) WarmStart() []float64 {
	x := make([]float64, m.dim)
	u, v := m.Split(x)
	rf := numeric.Clamp(m.lf/m.muF, 0, 0.98)
	rs := numeric.Clamp(m.ls/m.muS, 0, 0.98)
	gf, gs := m.q, 1-m.q
	for i := 0; i < m.l; i++ {
		u[i], v[i] = gf, gs
		gf *= rf
		gs *= rs
	}
	return x
}

// Derivs implements the coupled two-class system.
func (m *Hetero) Derivs(x, dx []float64) {
	u, v := m.Split(x)
	du, dv := m.Split(dx)
	theta := m.muF*(u[1]-at(u, 2)) + m.muS*(v[1]-at(v, 2))
	succ := at(u, m.t) + at(v, m.t)
	class := func(s, ds []float64, la, mu float64) {
		ds[0] = 0
		ds[1] = la*(s[0]-s[1]) - mu*(s[1]-at(s, 2))*(1-succ)
		for i := 2; i < len(s); i++ {
			gap := s[i] - at(s, i+1)
			d := la*(s[i-1]-s[i]) - mu*gap
			if i >= m.t {
				d -= theta * gap
			}
			ds[i] = d
		}
	}
	class(u, du, m.lf, m.muF)
	class(v, dv, m.ls, m.muS)
}

// Project clamps each class tail below its (conserved) class fraction.
func (m *Hetero) Project(x []float64) {
	u, v := m.Split(x)
	core.ProjectTailsBelow(u, m.q)
	core.ProjectTailsBelow(v, 1-m.q)
}

// MeanTasks returns expected tasks per processor across both classes.
func (m *Hetero) MeanTasks(x []float64) float64 {
	sum := m.levelSum(x)
	return sum.Sum()
}

// ClassMeanTasks returns the expected tasks per fast processor and per slow
// processor (conditional on class).
func (m *Hetero) ClassMeanTasks(x []float64) (fast, slow float64) {
	u, v := m.Split(x)
	var fu, fv numeric.KahanSum
	for i := 1; i < m.l; i++ {
		fu.Add(u[i])
		fv.Add(v[i])
	}
	return fu.Sum() / m.q, fv.Sum() / (1 - m.q)
}
