package meanfield

import (
	"fmt"

	"repro/internal/core"
)

// Spawning implements §3.5's decomposition of the arrival rate into
// λ_ext + λ_int: external tasks arrive at every processor at rate λ_ext,
// while running tasks spawn new tasks at rate λ_int — but only while the
// processor is busy, which is how multithreaded (Cilk-style) computations
// generate work. Stealing follows the threshold rule with victim ≥ T.
//
//	ds₁/dt = λe(s₀−s₁) − (s₁−s₂)(1 − s_T)
//	ds_i/dt = λe(s_{i−1}−s_i) + λi(s_{i−1}−s_i) − (s_i−s_{i+1}) − ...,  i ≥ 2
//
// (for i ≥ 2 the spawning term applies because a processor at load
// i−1 ≥ 1 is busy). Stability requires the effective utilization
// ρ = λe/(1−λi) < 1: each external task brings a geometric cascade of
// spawned descendants with mean 1/(1−λi).
type Spawning struct {
	tails
	le, li float64
}

// NewSpawning constructs the model with external rate λe > 0, internal
// spawn rate λi ≥ 0, and threshold T ≥ 2. It panics unless the effective
// utilization λe/(1−λi) lies in (0, 1).
func NewSpawning(le, li float64, t int) *Spawning {
	if le <= 0 || li < 0 || li >= 1 {
		panic("meanfield: Spawning needs λe > 0 and 0 <= λi < 1")
	}
	if t < 2 {
		panic("meanfield: Spawning needs T >= 2")
	}
	// ArrivalRate reports the total long-run task rate per processor
	// λe + λi·P(busy) = λe + λi·ρ = ρ, so Little's law applies with this
	// value; the warm start is the geometric profile at ρ.
	rho := le / (1 - li)
	name := fmt.Sprintf("spawning(λe=%g,λi=%g,T=%d)", le, li, t)
	return &Spawning{newTails(name, rho, t, geometricStart), le, li}
}

// Derivs implements the spawning system with boundary s_{dim} = 0.
func (m *Spawning) Derivs(x, dx []float64) {
	n := len(x)
	at := func(i int) float64 {
		if i >= n {
			return 0
		}
		return x[i]
	}
	theta := x[1] - at(2)
	sT := at(m.t)
	dx[0] = 0
	dx[1] = m.le*(x[0]-x[1]) - theta*(1-sT)
	for i := 2; i < n; i++ {
		gap := x[i] - at(i+1)
		d := (m.le+m.li)*(x[i-1]-x[i]) - gap
		if i >= m.t {
			d -= gap * theta
		}
		dx[i] = d
	}
}

var _ core.Model = (*Spawning)(nil)
