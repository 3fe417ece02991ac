package meanfield

import "fmt"

// Preemptive is the preemptive-stealing model (§2.4): instead of waiting
// until it is empty, a processor begins steal attempts as soon as its queue
// drops to B or fewer tasks; a thief holding i tasks only steals from a
// victim holding at least i + T tasks. The limiting system is
//
//	ds_i/dt = λ(s_{i−1}−s_i) − (s_i−s_{i+1})(1 − s_{i+T−1}),        1 ≤ i ≤ B+1
//	ds_i/dt = λ(s_{i−1}−s_i) − (s_i−s_{i+1}),                       B+2 ≤ i ≤ T−1
//	ds_i/dt = λ(s_{i−1}−s_i) − (s_i−s_{i+1})
//	          − (s_i−s_{i+1})(s₁ − s_{min(B+2, i−T+2)}),            i ≥ T
//
// For the first band: a processor at load i completes at rate s_i − s_{i+1}
// and drops to i−1 ≤ B, so it attempts a steal, which succeeds (leaving its
// load at i) with probability s_{(i−1)+T}. For the victim band, thieves
// are processors dropping to loads 0..min(B, i−T), whose density is
// s₁ − s_{min(B+2, i−T+2)}.
//
// B = 0 recovers threshold stealing. The construction requires T ≥ B + 2 so thief
// and victim bands do not overlap, matching the paper's presentation.
type Preemptive struct {
	tails
	b int
}

// NewPreemptive constructs the preemptive model with arrival rate λ,
// steal-begin level B ≥ 0, and offset threshold T ≥ B + 2.
func NewPreemptive(lambda float64, b, t int) *Preemptive {
	if b < 0 {
		panic("meanfield: Preemptive needs B >= 0")
	}
	if t < b+2 {
		panic(fmt.Sprintf("meanfield: Preemptive needs T >= B+2, got B=%d T=%d", b, t))
	}
	// The threshold-model closed form is the warm start: it has the right
	// tail shape above B + T.
	m := &Preemptive{newTails(fmt.Sprintf("preemptive(B=%d,T=%d)", b, t), lambda, t, thresholdStart), b}
	m.dim = max(m.dim, b+t+8)
	return m
}

// Derivs implements the three-band system with boundary s_{dim} = 0.
func (m *Preemptive) Derivs(x, dx []float64) {
	lambda := m.lambda
	n := len(x)
	dx[0] = 0
	for i := 1; i < n; i++ {
		gap := x[i] - at(x, i+1)
		d := lambda*(x[i-1]-x[i]) - gap
		switch {
		case i <= m.b+1:
			// Completion is cancelled out when the post-completion steal
			// succeeds: effective departure rate gap·(1 − s_{i+T−1}).
			d += gap * at(x, i+m.t-1)
		case i >= m.t:
			// Victim loss to thieves dropping to loads 0..min(B, i−T).
			hi := m.b + 2
			if alt := i - m.t + 2; alt < hi {
				hi = alt
			}
			d -= gap * (x[1] - at(x, hi))
		}
		dx[i] = d
	}
}
