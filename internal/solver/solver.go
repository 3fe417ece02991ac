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

	// History ring buffers for Anderson mixing: iterates and their images.
	m := opt.Memory
	histX := make([][]float64, 0, m+1)
	histG := make([][]float64, 0, m+1)

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

		// Record history (copy; ring of size m+1).
		histX = append(histX, append([]float64(nil), x...))
		histG = append(histG, append([]float64(nil), g...))
		if len(histX) > m+1 {
			histX = histX[1:]
			histG = histG[1:]
		}

		next := andersonMix(histX, histG)
		if next == nil {
			// Degenerate least-squares system: fall back to plain Picard.
			next = append([]float64(nil), g...)
		}
		if opt.Project != nil {
			opt.Project(next)
		}
		x = next
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
			histX = histX[:0]
			histG = histG[:0]
		}
	}
	if bestRes < opt.Tol {
		return Result{X: best, Residual: bestRes, Iters: opt.MaxIter, Converged: true}, nil
	}
	return Result{X: best, Residual: bestRes, Iters: opt.MaxIter, Converged: false},
		fmt.Errorf("%w: residual %.3e after %d iterations", ErrNotConverged, bestRes, opt.MaxIter)
}

// mixBeta is the Anderson mixing parameter β: 1 mixes the Picard images
// alone. The (1−β)·x_j term stays in the mix so iterates keep their exact
// bits (0·x is −0 for negative x and NaN for infinite x).
const mixBeta = 1.0

// andersonMix computes the Anderson-accelerated next iterate from the
// history of iterates xs and their Picard images gs. With residuals
// r_j = g_j − x_j it solves
//
//	min_α ‖Σ_j α_j r_j‖₂  subject to  Σ_j α_j = 1
//
// and returns Σ_j α_j ((1−β) x_j + β g_j) with β = mixBeta. Returns nil if
// the normal equations are singular.
func andersonMix(xs, gs [][]float64) []float64 {
	k := len(xs)
	n := len(xs[0])
	if k == 1 {
		out := make([]float64, n)
		for i := 0; i < n; i++ {
			out[i] = (1-mixBeta)*xs[0][i] + mixBeta*gs[0][i]
		}
		return out
	}
	// Residuals relative to the newest: substitute α_last = 1 − Σ others and
	// minimize over the k−1 free coefficients γ via normal equations on
	// d_j = r_j − r_last.
	last := k - 1
	rLast := make([]float64, n)
	for i := 0; i < n; i++ {
		rLast[i] = gs[last][i] - xs[last][i]
	}
	d := make([][]float64, k-1)
	for j := 0; j < k-1; j++ {
		d[j] = make([]float64, n)
		for i := 0; i < n; i++ {
			d[j][i] = (gs[j][i] - xs[j][i]) - rLast[i]
		}
	}
	// Normal equations A γ = b with A = DᵀD, b = −Dᵀ r_last.
	a := make([][]float64, k-1)
	b := make([]float64, k-1)
	for j := 0; j < k-1; j++ {
		a[j] = make([]float64, k-1)
		for l := 0; l <= j; l++ {
			var dot numeric.KahanSum
			for i := 0; i < n; i++ {
				dot.Add(d[j][i] * d[l][i])
			}
			a[j][l] = dot.Sum()
			a[l][j] = dot.Sum()
		}
		var dot numeric.KahanSum
		for i := 0; i < n; i++ {
			dot.Add(d[j][i] * rLast[i])
		}
		b[j] = -dot.Sum()
	}
	// Tikhonov regularization keeps the tiny system well-posed.
	reg := 1e-12 * (1 + a[0][0])
	for j := range a {
		a[j][j] += reg
	}
	gamma, ok := solveDense(a, b)
	if !ok {
		return nil
	}
	// α_j = γ_j for j < last, α_last = 1 − Σ γ.
	alpha := make([]float64, k)
	sum := 0.0
	for j, gmm := range gamma {
		alpha[j] = gmm
		sum += gmm
	}
	alpha[last] = 1 - sum
	out := make([]float64, n)
	for j := 0; j < k; j++ {
		if alpha[j] == 0 {
			continue
		}
		for i := 0; i < n; i++ {
			out[i] += alpha[j] * ((1-mixBeta)*xs[j][i] + mixBeta*gs[j][i])
		}
	}
	return out
}

// solveDense solves the small dense system a·x = b in place by Gaussian
// elimination with partial pivoting. Returns ok=false when singular.
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
	x := make([]float64, n)
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
