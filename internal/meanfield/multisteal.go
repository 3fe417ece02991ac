package meanfield

import "fmt"

// MultiSteal is the multiple-steals model (§3.4): when the threshold T for
// stealing is high, taking k ≤ T/2 tasks per steal amortizes the attempt.
// A steal moves the thief from 0 to k tasks and the victim from j ≥ T to
// j − k. The limiting system is
//
//	ds₁/dt = λ(s₀−s₁) − (s₁−s₂)(1 − s_T)
//	ds_i/dt = λ(s_{i−1}−s_i) − (s_i−s_{i+1}) + (s₁−s₂)s_T,          2 ≤ i ≤ k
//	ds_i/dt = λ(s_{i−1}−s_i) − (s_i−s_{i+1}),                        k+1 ≤ i ≤ T−k
//	ds_i/dt = λ(s_{i−1}−s_i) − (s_i−s_{i+1}) − (s₁−s₂)(s_T−s_{i+k}), T−k+1 ≤ i ≤ T
//	ds_i/dt = λ(s_{i−1}−s_i) − (s_i−s_{i+1}) − (s₁−s₂)(s_i−s_{i+k}), i ≥ T+1
//
// The victim-loss term at index i covers victims with loads in
// [max(i, T), i+k−1], whose steal drops them below i. k = 1 recovers
// threshold stealing.
type MultiSteal struct {
	tails
	k int
}

// NewMultiSteal constructs the model with arrival rate λ, threshold T ≥ 2,
// and k tasks stolen per success, requiring 1 ≤ k ≤ T/2 as in the paper.
func NewMultiSteal(lambda float64, t, k int) *MultiSteal {
	if k < 1 || 2*k > t {
		panic(fmt.Sprintf("meanfield: MultiSteal needs 1 <= k <= T/2, got k=%d T=%d", k, t))
	}
	// The k = 1 closed form is the warm start; Derivs reads up to s_{T+k}.
	m := &MultiSteal{newTails(fmt.Sprintf("multisteal(T=%d,k=%d)", t, k), lambda, t, thresholdStart), k}
	m.dim = max(m.dim, t+k+8)
	return m
}

// Derivs implements the five-band system with boundary s_{dim} = 0.
//
// Every dx[i] keeps its band's expression (DESIGN §17). On the last band's
// interior T+1 ≤ i < n−k both s_{i+1} and s_{i+k} are in range, so it runs
// as one loop over equal-length windows x[i−1:], x[i:], x[i+1:], x[i+k:]
// with neither the band switch nor bounds checks; the levels around it
// keep the generic form.
func (m *MultiSteal) Derivs(x, dx []float64) {
	lambda := m.lambda
	n := len(x)
	theta := x[1] - x[2]
	sT := at(x, m.t)
	generic := func(i int) {
		d := lambda*(x[i-1]-x[i]) - (x[i] - at(x, i+1))
		switch {
		case i <= m.k:
			// Thief gain: a successful steal jumps the thief 0 → k.
			d += theta * sT
		case i <= m.t-m.k:
			// Neither thieves nor victims cross level i.
		case i <= m.t:
			// Victims with loads in [T, i+k−1] drop below i.
			d -= theta * (sT - at(x, i+m.k))
		default:
			// Victims with loads in [i, i+k−1] drop below i.
			d -= theta * (x[i] - at(x, i+m.k))
		}
		dx[i] = d
	}
	// The interior is [from, to).
	from, to := min(m.t+1, n), n-m.k
	if to < from {
		to = from
	}
	dx[0] = 0
	dx[1] = lambda*(x[0]-x[1]) - (x[1]-x[2])*(1-sT)
	for i := 2; i < from; i++ {
		generic(i)
	}
	if from < to {
		d := dx[from:to]
		xm, x0, x1, xk := x[from-1:to-1], x[from:to], x[from+1:to+1], x[from+m.k:to+m.k]
		xm, x0, x1, xk = xm[:len(d)], x0[:len(d)], x1[:len(d)], xk[:len(d)]
		for j := range d {
			v := lambda*(xm[j]-x0[j]) - (x0[j] - x1[j])
			v -= theta * (x0[j] - xk[j])
			d[j] = v
		}
	}
	for i := to; i < n; i++ {
		generic(i)
	}
}
