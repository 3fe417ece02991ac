// Package solver finds fixed points of the mean-field ODE systems, i.e.
// states s* with f(s*) = 0.
//
// Plain time integration converges to the fixed point but the relaxation
// time grows like (1−λ)⁻² as the arrival rate λ approaches 1, which makes
// the paper's λ = 0.99 rows painfully slow. We instead apply Anderson
// acceleration (a multi-secant quasi-Newton scheme) to the Picard map
//
//	g(x) = Φ_H(x)   (the RK4 flow of the system over a short horizon H)
//
// whose fixed points are exactly the equilibria of f. Anderson mixing with
// a small memory typically converges in tens of iterations even at λ = 0.99.
// Because the accelerated iterate can leave the feasible region (tail
// vectors must satisfy 1 = s₀ ≥ s₁ ≥ ... ≥ 0), callers supply a projection
// that restores feasibility after each step.
package solver

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/numeric"
	"repro/internal/ode"
)

// Options configures FixedPoint.
type Options struct {
	// Tol is the ∞-norm tolerance on the derivative at the solution.
	// Zero defaults to 1e-12.
	Tol float64
	// Horizon is the integration span of one Picard application.
	// Zero defaults to 2.0.
	Horizon float64
	// Step is the RK4 step inside one Picard application; it must satisfy
	// the stability limit of the system (roughly 1/maxRate).
	// Zero defaults to 0.1.
	Step float64
	// Memory is the Anderson mixing depth m. Zero defaults to 5.
	Memory int
	// MaxIter bounds the outer iterations. Zero defaults to 500.
	MaxIter int
	// Project restores feasibility of an iterate in place (may be nil).
	Project func(x []float64)
	// Perturb, when non-nil, is invoked on the starting point and on every
	// accepted iterate (after projection). It is the numeric fault-injection
	// seam: internal/chaos supplies hooks that drive iterates toward NaN to
	// prove the divergence guard below. Production solves leave it nil.
	Perturb func(x []float64)
}

func (o *Options) setDefaults() {
	if o.Tol == 0 {
		o.Tol = 1e-12
	}
	if o.Horizon == 0 {
		o.Horizon = 2.0
	}
	if o.Step == 0 {
		o.Step = 0.1
	}
	if o.Memory == 0 {
		o.Memory = 5
	}
	if o.MaxIter == 0 {
		o.MaxIter = 500
	}
}

// Result reports the outcome of a fixed-point solve.
type Result struct {
	X         []float64 // the fixed point (or best iterate)
	Residual  float64   // ∞-norm of f at X
	Iters     int       // outer iterations used
	Converged bool
}

// ErrNotConverged is wrapped in errors returned when the iteration budget is
// exhausted before the residual drops below tolerance.
var ErrNotConverged = errors.New("solver: fixed point iteration did not converge")

// ErrDiverged is wrapped in errors returned when the iteration has no
// finite iterate to stand on — the state or its residual is NaN/Inf and no
// earlier finite best exists to restart from. It wraps numeric.ErrDiverged
// so callers can test one sentinel across the solver and ODE layers.
var ErrDiverged = fmt.Errorf("solver: fixed point iteration diverged: %w", numeric.ErrDiverged)

// FixedPoint solves f(x) = 0 starting from x0 using Anderson-accelerated
// Picard iteration on the RK4 flow map. x0 is not modified.
func FixedPoint(f ode.System, x0 []float64, opt Options) (Result, error) {
	opt.setDefaults()
	n := len(x0)
	x := append([]float64(nil), x0...)
	dx := make([]float64, n)

	// The Anderson history and scratch belong to this solve.
	mix := newAnderson(opt.Memory)

	g := make([]float64, n)
	scratch := ode.NewRK4Scratch(n)
	applyG := func(src, dst []float64) {
		copy(dst, src)
		steps := int(math.Ceil(opt.Horizon / opt.Step))
		h := opt.Horizon / float64(steps)
		for i := 0; i < steps; i++ {
			ode.RK4(f, dst, h, scratch)
		}
		if opt.Project != nil {
			opt.Project(dst)
		}
	}

	// residual treats a non-finite state or derivative as NaN rather than
	// deferring to NormInf, which skips NaN components (Abs(NaN) > m is
	// always false) and would otherwise report a poisoned state as a
	// perfectly converged residual of zero.
	residual := func(v []float64) float64 {
		f(v, dx)
		if !numeric.AllFinite(v) || !numeric.AllFinite(dx) {
			return math.NaN()
		}
		return numeric.NormInf(dx)
	}

	if opt.Perturb != nil {
		opt.Perturb(x)
	}
	best := append([]float64(nil), x...)
	bestRes := residual(x)
	// A non-finite starting residual means there is no finite iterate to
	// fall back to: every restart below would land on the same poisoned
	// state, so report divergence immediately rather than spinning the full
	// iteration budget.
	if !numeric.Finite(bestRes) {
		return Result{X: best, Residual: bestRes, Iters: 0, Converged: false},
			fmt.Errorf("%w: starting residual %v", ErrDiverged, bestRes)
	}
	for k := 0; k < opt.MaxIter; k++ {
		if bestRes < opt.Tol {
			return Result{X: best, Residual: bestRes, Iters: k, Converged: true}, nil
		}
		applyG(x, g)

		mix.record(x, g)
		// x is in the history now, so the mix may overwrite it.
		if !mix.next(x) {
			// Degenerate least-squares system: fall back to plain Picard.
			copy(x, g)
		}
		if opt.Project != nil {
			opt.Project(x)
		}
		if opt.Perturb != nil {
			opt.Perturb(x)
		}

		if r := residual(x); r < bestRes {
			bestRes = r
			copy(best, x)
		} else if math.IsNaN(r) || r > 10*bestRes+1 {
			// Acceleration went unstable: restart from the best point with a
			// cleared history.
			copy(x, best)
			mix.clear()
		}
	}
	if bestRes < opt.Tol {
		return Result{X: best, Residual: bestRes, Iters: opt.MaxIter, Converged: true}, nil
	}
	return Result{X: best, Residual: bestRes, Iters: opt.MaxIter, Converged: false},
		fmt.Errorf("%w: residual %.3e after %d iterations", ErrNotConverged, bestRes, opt.MaxIter)
}

// anderson holds the mixing history of one solve, the last m+1 iterates
// x_j and their Picard images g_j, oldest first, with the scratch of the
// normal equations, so an iteration allocates nothing once the ring is
// full.
type anderson struct {
	xs, gs [][]float64 // len ≤ m+1; buffers past len are kept for reuse
	dv     []float64   // d_j at one index i, j < k−1
	dots   []numeric.KahanSum
	a      [][]float64
	b      []float64
	alpha  []float64
}

func newAnderson(m int) *anderson {
	w := &anderson{
		xs:    make([][]float64, 0, m+1),
		gs:    make([][]float64, 0, m+1),
		dv:    make([]float64, m),
		dots:  make([]numeric.KahanSum, m*(m+1)/2+m),
		a:     make([][]float64, m),
		b:     make([]float64, m),
		alpha: make([]float64, m+1),
	}
	for j := range w.a {
		w.a[j] = make([]float64, m)
	}
	return w
}

// record appends copies of x and its image g to the history, reusing the
// oldest entry's buffers once m+1 are held.
func (w *anderson) record(x, g []float64) {
	w.xs = pushCopy(w.xs, x)
	w.gs = pushCopy(w.gs, g)
}

func pushCopy(hist [][]float64, v []float64) [][]float64 {
	if len(hist) == cap(hist) {
		oldest := hist[0]
		copy(hist, hist[1:])
		hist[len(hist)-1] = oldest
	} else {
		hist = hist[:len(hist)+1]
		if hist[len(hist)-1] == nil {
			hist[len(hist)-1] = make([]float64, len(v))
		}
	}
	copy(hist[len(hist)-1], v)
	return hist
}

// clear empties the history, keeping its buffers.
func (w *anderson) clear() {
	w.xs, w.gs = w.xs[:0], w.gs[:0]
}

// mixBeta is the Anderson mixing parameter β: 1 mixes the Picard images
// alone. The (1−β)·x_j term stays in the mix so iterates keep their exact
// bits (0·x is −0 for negative x and NaN for infinite x).
const mixBeta = 1.0

// next writes the Anderson-accelerated next iterate into out, which must
// not be one of the history buffers. With residuals r_j = g_j − x_j it
// solves
//
//	min_α ‖Σ_j α_j r_j‖₂  subject to  Σ_j α_j = 1
//
// and writes Σ_j α_j ((1−β) x_j + β g_j) with β = mixBeta. It reports
// false, leaving out untouched, if the normal equations are singular.
func (w *anderson) next(out []float64) bool {
	xs, gs := w.xs, w.gs
	k := len(xs)
	n := len(out)
	if k == 1 {
		for i := 0; i < n; i++ {
			out[i] = (1-mixBeta)*xs[0][i] + mixBeta*gs[0][i]
		}
		return true
	}
	// Residuals relative to the newest: substitute α_last = 1 − Σ others and
	// minimize over the k−1 free coefficients γ via normal equations on
	// d_j = r_j − r_last. One pass over i feeds every dot product's Kahan
	// accumulator in index order, as separate passes would.
	last, free := k-1, k-1
	dv, dots := w.dv[:free], w.dots[:free*(free+1)/2+free]
	clear(dots)
	bdots := dots[free*(free+1)/2:]
	for i := 0; i < n; i++ {
		rLast := gs[last][i] - xs[last][i]
		for j := range dv {
			dv[j] = (gs[j][i] - xs[j][i]) - rLast
		}
		p := 0
		for j, dj := range dv {
			for l := 0; l <= j; l++ {
				dots[p].Add(dj * dv[l])
				p++
			}
			bdots[j].Add(dj * rLast)
		}
	}
	// Normal equations A γ = b with A = DᵀD, b = −Dᵀ r_last.
	a, b := w.a[:free], w.b[:free]
	p := 0
	for j := range a {
		a[j] = a[j][:free]
		for l := 0; l <= j; l++ {
			a[j][l] = dots[p].Sum()
			a[l][j] = dots[p].Sum()
			p++
		}
		b[j] = -bdots[j].Sum()
	}
	// Tikhonov regularization keeps the tiny system well-posed.
	reg := 1e-12 * (1 + a[0][0])
	for j := range a {
		a[j][j] += reg
	}
	gamma, ok := solveDense(a, b)
	if !ok {
		return false
	}
	// α_j = γ_j for j < last, α_last = 1 − Σ γ.
	alpha := w.alpha[:k]
	sum := 0.0
	for j, gmm := range gamma {
		alpha[j] = gmm
		sum += gmm
	}
	alpha[last] = 1 - sum
	clear(out)
	for j := 0; j < k; j++ {
		if alpha[j] == 0 {
			continue
		}
		for i := 0; i < n; i++ {
			out[i] += alpha[j] * ((1-mixBeta)*xs[j][i] + mixBeta*gs[j][i])
		}
	}
	return true
}

// solveDense solves the small dense system a·x = b in place by Gaussian
// elimination with partial pivoting, returning b overwritten with x.
// Returns ok=false when singular.
func solveDense(a [][]float64, b []float64) ([]float64, bool) {
	n := len(b)
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if a[piv][col] == 0 {
			return nil, false
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			factor := a[r][col] / a[col][col]
			if factor == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= factor * a[col][c]
			}
			b[r] -= factor * b[col]
		}
	}
	// Back substitution overwrites b with the solution.
	x := b
	for r := n - 1; r >= 0; r-- {
		acc := b[r]
		for c := r + 1; c < n; c++ {
			acc -= a[r][c] * x[c]
		}
		x[r] = acc / a[r][r]
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, false
		}
	}
	return x, true
}
