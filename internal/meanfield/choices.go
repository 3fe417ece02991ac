package meanfield

import (
	"fmt"
	"math"
)

// Choices is the multiple-choices model (§3.3), the stealing analogue of
// the power of two choices in load sharing: a thief samples d potential
// victims uniformly at random and steals from the most heavily loaded one
// provided its load is at least T. The limiting system is
//
//	ds₁/dt = λ(s₀−s₁) − (s₁−s₂)(1 − s_T)^d
//	ds_i/dt = λ(s_{i−1}−s_i) − (s_i−s_{i+1}),                        2 ≤ i ≤ T−1
//	ds_i/dt = λ(s_{i−1}−s_i) − (s_i−s_{i+1})
//	          − ((1−s_{i+1})^d − (1−s_i)^d)(s₁−s₂),                  i ≥ T
//
// (1−s_T)^d is the probability all d sampled victims fall below the
// threshold; (1−s_{i+1})^d − (1−s_i)^d is the probability the maximum of
// the d sampled loads is exactly i. d = 1 recovers threshold stealing.
type Choices struct {
	tails
	d int
}

// NewChoices constructs the d-choices model with arrival rate λ,
// threshold T ≥ 2 and d ≥ 1 victim samples.
func NewChoices(lambda float64, t, d int) *Choices {
	if d < 1 {
		panic("meanfield: Choices needs d >= 1")
	}
	// The single-choice closed form is the warm start; more choices only
	// thin the tails further.
	return &Choices{newTails(fmt.Sprintf("choices(T=%d,d=%d)", t, d), lambda, t, thresholdStart), d}
}

// powd raises v to the integer power d, cheap for the small d used here.
func powd(v float64, d int) float64 {
	switch d {
	case 1:
		return v
	case 2:
		return v * v
	case 3:
		return v * v * v
	default:
		return math.Pow(v, float64(d))
	}
}

// Derivs implements the system above with boundary s_{dim} = 0. Levels
// below T carry no steal term, and a level's (1−s_{i+1})^d is the next
// level's (1−s_i)^d, so each power is computed once. Both bands run as
// loops over equal-length windows up to the last level, which keeps the
// generic form; for d = 2 the steal band computes powd's v*v inline
// (DESIGN §17).
func (m *Choices) Derivs(x, dx []float64) {
	lambda := m.lambda
	n := len(x)
	theta := x[1] - x[2]
	t := min(m.t, n)
	pw := powd(1-at(x, m.t), m.d)
	dx[0] = 0
	dx[1] = lambda*(x[0]-x[1]) - (x[1]-x[2])*pw
	mid := max(min(m.t, n-1), 2)
	if 2 < mid {
		d := dx[2:mid]
		xm, x0, x1 := x[1:mid-1], x[2:mid], x[3:mid+1]
		xm, x0, x1 = xm[:len(d)], x0[:len(d)], x1[:len(d)]
		for j := range d {
			d[j] = lambda*(xm[j]-x0[j]) - (x0[j] - x1[j])
		}
	}
	for i := mid; i < t; i++ {
		dx[i] = lambda*(x[i-1]-x[i]) - (x[i] - at(x, i+1))
	}
	from := t
	if m.d == 2 && t < n-1 {
		d := dx[t : n-1]
		xm, x0, x1 := x[t-1:n-2], x[t:n-1], x[t+1:n]
		xm, x0, x1 = xm[:len(d)], x0[:len(d)], x1[:len(d)]
		for j := range d {
			u := 1 - x1[j]
			pn := u * u
			v := lambda*(xm[j]-x0[j]) - (x0[j] - x1[j])
			v -= (pn - pw) * theta
			d[j] = v
			pw = pn
		}
		from = n - 1
	}
	for i := from; i < n; i++ {
		next := at(x, i+1)
		pn := powd(1-next, m.d)
		d := lambda*(x[i-1]-x[i]) - (x[i] - next)
		d -= (pn - pw) * theta
		dx[i] = d
		pw = pn
	}
}
