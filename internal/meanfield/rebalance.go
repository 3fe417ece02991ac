package meanfield

import (
	"fmt"

	"repro/internal/core"
)

// RateFunc gives the load-dependent rate r(i) at which a processor holding
// i tasks initiates a rebalancing event.
type RateFunc func(i int) float64

// ConstRate returns a RateFunc with r(i) = r for all loads.
func ConstRate(r float64) RateFunc { return func(int) float64 { return r } }

// Rebalance is the pairwise load-balancing model of §3.4, a variation of
// the scheme of Rudolph, Slivkin-Allalouf, and Upfal: a processor holding i
// tasks initiates a rebalancing event at rate r(i); it picks a partner
// uniformly at random and the two split their combined load as evenly as
// possible (the initially larger one keeps the ceiling).
//
// Rather than transcribing the paper's expanded double-sum form, Derivs
// evaluates the generator directly: for an ordered pair (initiator load j,
// partner load l), events occur at rate density r(j)·p_j·p_l and change
//
//	s_i  by  [⌈(j+l)/2⌉ ≥ i] + [⌊(j+l)/2⌋ ≥ i] − [j ≥ i] − [l ≥ i].
//
// Grouped by i this telescopes to exactly the paper's sums; the direct form
// is O(L²) per evaluation, which is fine at the truncations used here.
//
// Derivs converts the state into a PMF buffer the model owns, so it
// allocates nothing once warm but must not run concurrently on one model;
// every caller builds its own model per solve, run or request.
type Rebalance struct {
	tails
	rate RateFunc
	rmax float64
	pmf  []float64 // Derivs scratch
}

// NewRebalance constructs the model with arrival rate λ and rebalancing
// rate function rate; rmax must upper-bound rate(i) over all i (used for
// step-size control).
func NewRebalance(lambda float64, rate RateFunc, rmax float64) *Rebalance {
	if rmax < 0 {
		panic("meanfield: Rebalance needs rmax >= 0")
	}
	// Solve starts from the empty system rather than the no-stealing
	// equilibrium: starting above the rebalanced equilibrium leaves the
	// solver crawling down a nearly-affine drain front at rate 1−λ
	// (rebalancing keeps all queues equal while the excess load drains),
	// whereas filling up from empty relaxes at the much faster arrival
	// time scale.
	name := fmt.Sprintf("rebalance(rmax=%g)", rmax)
	m := &Rebalance{tails: newTails(name, lambda, 0, nil), rate: rate, rmax: rmax}
	// O(L²) derivative evaluations want a tighter truncation; rebalancing
	// thins tails aggressively, so a λ-ratio truncation at a looser
	// tolerance remains conservative.
	if m.dim > 1024 {
		m.dim = core.TruncationDim(lambda, 1e-10, 32, 1024)
	}
	return m
}

// MaxRate includes the rebalancing rate bound.
func (m *Rebalance) MaxRate() float64 { return 4 + 2*m.rmax }

// Derivs evaluates arrivals, departures, and the pairwise rebalancing
// generator. Boundary: s_{dim} = 0, and loads beyond the truncation are
// treated as absent (their mass is below TruncTol).
func (m *Rebalance) Derivs(x, dx []float64) {
	lambda := m.lambda
	n := len(x)
	dx[0] = 0
	for i := 1; i < n; i++ {
		dx[i] = lambda*(x[i-1]-x[i]) - (x[i] - at(x, i+1))
	}
	// Rebalancing generator over the PMF.
	m.pmf = core.TailsToPMF(m.pmf[:0], x)
	p := m.pmf[:n] // len n lets the compiler drop the p[j] and p[l] bounds checks
	// pmax bounds every p_l, so a row whose a·pmax is below the pair
	// cutoff has no pair above it: rounding is monotone, and
	// a·p_l ≤ a·pmax for a ≥ 0. A NaN in p makes pmax NaN, which keeps
	// every row and lets the NaN reach dx as before (DESIGN §17).
	pmax := 0.0
	for _, v := range p {
		if v > pmax || v != v {
			pmax = v
		}
	}
	for j := 0; j < n; j++ {
		if p[j] <= 0 {
			continue
		}
		rj := m.rate(j)
		if rj == 0 {
			continue
		}
		a := rj * p[j]
		if a*pmax < 1e-18 {
			continue
		}
		for l := 0; l < n; l++ {
			if p[l] <= 0 {
				continue
			}
			rate := a * p[l]
			// Pairs with negligible probability cannot move visible mass;
			// skipping them keeps the evaluation near O(L_eff²) where
			// L_eff is the effective support of the load distribution.
			if rate < 1e-18 {
				continue
			}
			total := j + l
			hi := (total + 1) / 2
			lo := total / 2
			// s_i changes only for i in the (half-open) ranges between the
			// old pair {j, l} and the new pair {hi, lo}. Update the two
			// non-trivial bands instead of all i.
			mn, mx := j, l
			if mn > mx {
				mn, mx = mx, mn
			}
			// After: levels ≤ lo have both, (lo, hi] have one, > hi none.
			// Before: levels ≤ mn have both, (mn, mx] have one, > mx none.
			// Change for i in (mn, lo]: +1; for i in (hi, mx]: −1. Both
			// bands end at or below mx < n.
			for i := mn + 1; i <= lo; i++ {
				dx[i] += rate
			}
			for i := hi + 1; i <= mx; i++ {
				dx[i] -= rate
			}
		}
	}
}
