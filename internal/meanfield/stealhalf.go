package meanfield

import (
	"fmt"

	"repro/internal/core"
)

// StealHalf models the classic "steal half" heuristic, one of the §3.4
// family of multi-task steals ("other variations for stealing multiple
// jobs in the WS algorithm can be modeled similarly"): a processor that
// empties steals ⌈j/2⌉ tasks from a victim holding j ≥ T tasks, leaving
// the victim with ⌊j/2⌋ — the thief-initiated cousin of the
// Rudolph–Slivkin-Allalouf–Upfal rebalancing model.
//
// Like Rebalance, the generator is evaluated directly over the PMF: a
// steal against a load-j victim (rate (s₁−s₂)·p_j for j ≥ T) moves the
// victim j → ⌊j/2⌋ and the thief 0 → ⌈j/2⌉, so
//
//	ds_i/dt += (s₁−s₂) Σ_{j≥T} p_j ( [⌈j/2⌉ ≥ i] + [⌊j/2⌋ ≥ i] − [j ≥ i] )
//
// for i ≥ 1, on top of the usual arrival and service terms (the thief side
// also cancels part of the s₁ departure, handled via the success
// probability s_T as in the other models).
//
// Like Rebalance, Derivs fills a PMF buffer the model owns: it allocates
// nothing once warm but must not run concurrently on one model.
type StealHalf struct {
	tails
	pmf []float64 // Derivs scratch
}

// NewStealHalf constructs the steal-half model with arrival rate λ and
// victim threshold T ≥ 2.
func NewStealHalf(lambda float64, t int) *StealHalf {
	// Solve starts from the empty system and the truncation is the looser
	// one of an O(L²) generator, both for the reasons in NewRebalance:
	// starting above the strongly-equalized equilibrium leaves a slow
	// linear drain.
	m := &StealHalf{tails: newTails(fmt.Sprintf("stealhalf(T=%d)", t), lambda, t, nil)}
	if m.dim > 1024 {
		m.dim = max(core.TruncationDim(lambda, 1e-10, 32, 1024), t+8)
	}
	return m
}

// Derivs evaluates arrivals, departures, and the steal-half generator.
func (m *StealHalf) Derivs(x, dx []float64) {
	lambda := m.lambda
	n := len(x)
	sT := at(x, m.t)
	theta := x[1] - at(x, 2) // processors completing their final task

	dx[0] = 0
	// ds₁: the departure is cancelled when the post-completion steal
	// succeeds (the thief jumps 0 → ⌈j/2⌉ ≥ 1 instantly).
	dx[1] = lambda*(x[0]-x[1]) - theta*(1-sT)
	for i := 2; i < n; i++ {
		dx[i] = lambda*(x[i-1]-x[i]) - (x[i] - at(x, i+1))
	}
	if theta <= 0 {
		return
	}
	// Steal generator over victims with load j ≥ T. The thief's crossing
	// of level 1 is already accounted for in ds₁ above, so the indicator
	// for the thief side applies to i ≥ 2 only.
	m.pmf = core.TailsToPMF(m.pmf[:0], x)
	p := m.pmf[:n] // len n lets the compiler drop the p[j] bounds checks
	for j := m.t; j < n; j++ {
		if p[j] <= 0 {
			continue
		}
		rate := theta * p[j]
		if rate < 1e-18 {
			continue
		}
		take := (j + 1) / 2 // thief gets ⌈j/2⌉
		keep := j / 2       // victim keeps ⌊j/2⌋
		// Victim: s_i loses for keep < i ≤ j.
		for i := keep + 1; i <= j && i < n; i++ {
			dx[i] -= rate
		}
		// Thief: s_i gains for 2 ≤ i ≤ take (level 1 handled in ds₁).
		for i := 2; i <= take && i < n; i++ {
			dx[i] += rate
		}
	}
}

var _ core.Model = (*StealHalf)(nil)
