package meanfield

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/numeric"
)

// PhaseService generalizes the Erlang method of stages (Stages, §3.1) to an
// arbitrary phase-type service distribution given as a mixture of Erlang
// branches (dist.PhaseType). Where Stages can track a single tail vector
// over total remaining stages — every stage is interchangeable — a mixture
// of branches with different rates cannot be collapsed that way: the future
// of a queue depends on *which* phase its head task occupies. The state is
// therefore the occupancy density
//
//	e        = fraction of processors with no tasks
//	x_{i,j}  = fraction with i tasks whose head task is in service phase j
//
// with phases enumerated across the branches (branch b contributes k_b
// phases of rate μ_b; a task starts in the first phase of branch b with
// probability p_b, the mixture's initial vector α).
//
// Writing c_i = Σ_{j final} μ_j·x_{i,j} for the head-completion flux at
// level i, θ = c_1 for the queue-emptying rate, q = Σ_{i≥T} x_i· for the
// steal success probability, and a = θ + r·e for the per-processor
// steal-attempt rate (emptying completions plus idle retries at rate r),
// the mean-field equations are
//
//	de/dt      = θ(1−q) − λe − r·e·q
//	dx_{i,j}/dt = λ(x_{i−1,j} − x_{i,j})        arrivals (x_{0,j} ≡ e·α_j)
//	            − μ_j x_{i,j} + μ_j x_{i,j−1}   phase advance within a branch
//	            + α_j c_{i+1}                    head completion above
//	            + α_j·a·q      (i = 1)           successful thieves restart
//	            − a·x_{i,j}    (i ≥ T)           victim loses its tail task
//	            + a·x_{i+1,j}  (i+1 ≥ T)
//
// T = 0 disables stealing (the M/PH/1 mean field). The same derivation
// with exponential service (one phase, μ = 1) reduces exactly to the
// paper's threshold model, which the tests pin.
//
// The model implements core.StealCoupler, so the hybrid engine can couple
// its tracked sample against this state: task tails by suffix-summing the
// levels, the bulk attempt rate from θ, and max_j μ_j as the thinning
// bound.
type PhaseService struct {
	base
	ph    dist.PhaseType
	t     int     // steal threshold in tasks; 0 = no stealing
	retry float64 // idle retry rate r (requires t >= 2)

	levels int       // truncation depth in tasks
	nph    int       // number of service phases J
	mu     []float64 // per-phase stage rate
	last   []bool    // phase completes the head task
	first  []bool    // phase is a branch start (no within-branch inflow)
	alpha  []float64 // initial phase distribution (branch starts carry p_b)
	muMax  float64   // bound on the emptying rate
	warmG  float64   // warm-start level decay ratio (P-K-matched geometric)

	cbuf []float64 // completion-flux scratch, len levels+1
}

// phTailRatio returns the asymptotic decay ratio σ of the M/PH/1
// queue-length tail: σ = 1/z₀ for the smallest z₀ > 1 solving
// S*(λ(1−z)) = z, with S*(s) = Σ_b p_b (μ_b/(μ_b+s))^{k_b} the service
// LST. The root lies in (1, 1 + μ_min/λ) (the LST singularity); near 1 the
// curve is below z (slope ρ < 1) and it blows up at the singularity, so a
// bisection brackets it. ok is false if no bracket exists numerically.
func phTailRatio(lambda float64, ph dist.PhaseType) (float64, bool) {
	muMin := ph.Branches[0].Rate
	for _, b := range ph.Branches {
		if b.Rate < muMin {
			muMin = b.Rate
		}
	}
	lst := func(s float64) float64 {
		var sum float64
		for _, b := range ph.Branches {
			term := b.P
			f := b.Rate / (b.Rate + s)
			for k := 0; k < b.K; k++ {
				term *= f
			}
			sum += term
		}
		return sum
	}
	g := func(z float64) float64 { return lst(lambda*(1-z)) - z }
	lo := 1 + 1e-9
	hi := 1 + muMin/lambda*(1-1e-9)
	if !(g(lo) < 0 && g(hi) > 0) {
		return 0, false
	}
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		if g(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 1 / lo, true
}

// NewPhaseService constructs the phase-type service model with arrival rate
// λ, service distribution ph, steal threshold t (0 disables stealing, else
// t >= 2), and idle retry rate retry (0 disables retries). It panics on
// invalid parameters or an unstable load λ·E[S] >= 1, mirroring the other
// model constructors.
func NewPhaseService(lambda float64, ph dist.PhaseType, t int, retry float64) *PhaseService {
	if _, err := dist.NewPhaseType(ph.Branches); err != nil {
		panic("meanfield: " + err.Error())
	}
	mean := ph.Mean()
	rho := lambda * mean
	if lambda <= 0 || rho >= 1 {
		panic(fmt.Sprintf("meanfield: PhaseService load λ·E[S] = %v outside (0, 1)", rho))
	}
	if t != 0 && t < 2 {
		panic("meanfield: PhaseService needs T = 0 (no stealing) or T >= 2")
	}
	if retry < 0 || (retry > 0 && t == 0) {
		panic("meanfield: PhaseService retries need stealing enabled")
	}

	// Truncation: without stealing the M/PH/1 queue-length tail decays
	// geometrically at the spectral ratio σ = 1/z₀, where z₀ > 1 is the
	// pole of the queue-length generating function — the root of
	// S*(λ(1−z)) = z for the service LST S*. For high-SCV service σ is far
	// above both ρ and the Pollaczek–Khinchine-mean-matched geometric
	// ratio E[L]/(1+E[L]); truncating by either of those leaks enough
	// boundary mass to floor the fixed-point residual around 1e-8. We take
	// the most conservative of the three (stealing only thins tails, so
	// the no-steal ratio is safe for T ≥ 2), capped so the state dimension
	// stays within the package's maxDim budget.
	scv := dist.SCV(ph)
	el := rho + rho*rho*(1+scv)/(2*(1-rho))
	eta := el / (1 + el)
	if eta < rho {
		eta = rho
	}
	if sigma, ok := phTailRatio(lambda, ph); ok && sigma > eta {
		eta = sigma
	}
	nph := ph.Phases()
	maxLevels := (maxDim - 1) / nph
	levels := core.TruncationDim(eta, TruncTol, 48, maxLevels)
	if min := t + 8; levels < min {
		levels = min
	}

	mu := make([]float64, 0, nph)
	lastF := make([]bool, 0, nph)
	firstF := make([]bool, 0, nph)
	alpha := make([]float64, 0, nph)
	muMax := 0.0
	for _, b := range ph.Branches {
		for s := 0; s < b.K; s++ {
			mu = append(mu, b.Rate)
			firstF = append(firstF, s == 0)
			lastF = append(lastF, s == b.K-1)
			if s == 0 {
				alpha = append(alpha, b.P)
			} else {
				alpha = append(alpha, 0)
			}
		}
		if b.Rate > muMax {
			muMax = b.Rate
		}
	}

	return &PhaseService{
		base: base{
			name:   fmt.Sprintf("phase-service(J=%d,T=%d)", nph, t),
			lambda: lambda,
			dim:    1 + levels*nph,
		},
		ph:     ph,
		t:      t,
		retry:  retry,
		levels: levels,
		nph:    nph,
		mu:     mu,
		last:   lastF,
		first:  firstF,
		alpha:  alpha,
		muMax:  muMax,
		warmG:  1 - rho/el,
		cbuf:   make([]float64, levels+2),
	}
}

// Levels returns the task-level truncation depth.
func (m *PhaseService) Levels() int { return m.levels }

// MaxRate reflects the fastest phase dominating the component dynamics.
func (m *PhaseService) MaxRate() float64 { return 2*m.muMax + 2 + m.retry }

// RelaxRate estimates the slowest relaxation mode: the spare capacity 1 − ρ
// experienced through the slowest service branch.
func (m *PhaseService) RelaxRate() float64 {
	muMin := m.muMax
	for _, b := range m.ph.Branches {
		if b.Rate < muMin {
			muMin = b.Rate
		}
	}
	rate := (1 - m.lambda*m.ph.Mean()) * muMin
	if rate > 1-m.lambda {
		rate = 1 - m.lambda
	}
	return rate
}

// Initial returns the empty system: e = 1.
func (m *PhaseService) Initial() []float64 {
	x := make([]float64, m.dim)
	x[0] = 1
	return x
}

// WarmStart spreads a geometric level occupancy over the phases by their
// stationary dwell weights w_j ∝ branch probability times the per-stage
// dwell 1/μ_j. The level decay ratio g is chosen so the start has busy
// fraction ρ AND the Pollaczek–Khinchine mean (mass_i = ρ(1−g)g^{i−1} has
// mean ρ/(1−g) = E[L] when g = 1 − ρ/E[L]) — for high-variance service the
// true tail is much fatter than ρ^i and a ρ-decay start stalls the solver.
func (m *PhaseService) WarmStart() []float64 {
	x := make([]float64, m.dim)
	rho := m.lambda * m.ph.Mean()
	mean := m.ph.Mean()
	w := make([]float64, m.nph)
	j := 0
	for _, b := range m.ph.Branches {
		for s := 0; s < b.K; s++ {
			w[j] = b.P / b.Rate / mean
			j++
		}
	}
	g := m.warmG
	x[0] = 1 - rho
	mass := rho * (1 - g)
	for i := 1; i <= m.levels; i++ {
		base := 1 + (i-1)*m.nph
		for j := 0; j < m.nph; j++ {
			x[base+j] = mass * w[j]
		}
		mass *= g
	}
	m.Project(x)
	return x
}

// Derivs implements the occupancy-space system documented on the type.
func (m *PhaseService) Derivs(x, dx []float64) {
	J := m.nph
	L := m.levels
	lam := m.lambda
	steal := m.t >= 2

	// Completion flux per level and steal success mass.
	cb := m.cbuf
	cb[L+1] = 0
	var q float64
	for i := 1; i <= L; i++ {
		base := 1 + (i-1)*J
		var c float64
		for j := 0; j < J; j++ {
			if m.last[j] {
				c += m.mu[j] * x[base+j]
			}
			if steal && i >= m.t {
				q += x[base+j]
			}
		}
		cb[i] = c
	}
	theta := cb[1]
	e := x[0]

	var a float64
	if steal {
		a = theta + m.retry*e
		dx[0] = theta*(1-q) - lam*e - m.retry*e*q
	} else {
		dx[0] = theta - lam*e
	}

	for i := 1; i <= L; i++ {
		base := 1 + (i-1)*J
		for j := 0; j < J; j++ {
			v := x[base+j]
			d := -lam*v - m.mu[j]*v
			if i == 1 {
				d += lam * e * m.alpha[j]
			} else {
				d += lam * x[base-J+j]
			}
			if !m.first[j] {
				d += m.mu[j] * x[base+j-1] // same branch: μ_{j−1} = μ_j
			}
			if i < L {
				d += m.alpha[j] * cb[i+1]
			}
			if steal {
				if i == 1 {
					d += m.alpha[j] * a * q
				}
				if i >= m.t {
					d -= a * v
				}
				if i+1 <= L && i+1 >= m.t {
					d += a * x[base+J+j]
				}
			}
			dx[base+j] = d
		}
	}
}

// Project restores feasibility: occupancies clamp to [0, 1] (rescaled if
// they exceed unit total mass) and e is pinned to the conservation
// complement 1 − Σ x_{i,j}.
func (m *PhaseService) Project(x []float64) {
	var sum float64
	for i := 1; i < len(x); i++ {
		v := numeric.Clamp(x[i], 0, 1)
		x[i] = v
		sum += v
	}
	if sum > 1 {
		scale := 1 / sum
		for i := 1; i < len(x); i++ {
			x[i] *= scale
		}
		sum = 1
	}
	x[0] = 1 - sum
}

// MeanTasks returns Σ i·x_i·, the expected tasks per processor.
func (m *PhaseService) MeanTasks(x []float64) float64 {
	var sum numeric.KahanSum
	for i := 1; i <= m.levels; i++ {
		base := 1 + (i-1)*m.nph
		var lvl float64
		for j := 0; j < m.nph; j++ {
			lvl += x[base+j]
		}
		sum.Add(float64(i) * lvl)
	}
	return sum.Sum()
}

// BusyFraction reports 1 − e (core.Observer).
func (m *PhaseService) BusyFraction(x []float64) float64 { return 1 - x[0] }

// StealSuccessProb reports q = Σ_{i≥T} x_i· (core.Observer); undefined
// without stealing.
func (m *PhaseService) StealSuccessProb(x []float64) (float64, bool) {
	if m.t < 2 {
		return 0, false
	}
	var q numeric.KahanSum
	for i := m.t; i <= m.levels; i++ {
		base := 1 + (i-1)*m.nph
		for j := 0; j < m.nph; j++ {
			q.Add(x[base+j])
		}
	}
	return q.Sum(), true
}

// TaskTails suffix-sums the level occupancies into a task-indexed tail
// vector (core.StealCoupler).
func (m *PhaseService) TaskTails(x, out []float64) []float64 {
	n := m.levels + 1
	if cap(out) < n {
		out = make([]float64, n)
	} else {
		out = out[:n]
	}
	acc := 0.0
	for i := m.levels; i >= 1; i-- {
		base := 1 + (i-1)*m.nph
		for j := 0; j < m.nph; j++ {
			acc += x[base+j]
		}
		out[i] = acc
	}
	out[0] = 1
	return out
}

// EmptyingRate returns θ, the per-processor rate of completions that empty
// a queue (core.StealCoupler).
func (m *PhaseService) EmptyingRate(x []float64) float64 {
	var theta float64
	for j := 0; j < m.nph; j++ {
		if m.last[j] {
			theta += m.mu[j] * x[1+j]
		}
	}
	if theta < 0 {
		return 0
	}
	return theta
}

// EmptyingRateBound returns max_j μ_j ≥ θ (core.StealCoupler).
func (m *PhaseService) EmptyingRateBound() float64 { return m.muMax }

var _ core.StealCoupler = (*PhaseService)(nil)
var _ core.Observer = (*PhaseService)(nil)
