// Package numeric provides small numerical utilities used throughout the
// repository: compensated summation, vector norms, root finding, and
// geometric-series helpers.
//
// All routines operate on float64 and are written for clarity and numerical
// robustness rather than raw speed; the hot paths of the ODE engine and the
// simulator do not depend on them.
package numeric

import (
	"errors"
	"math"
)

// Eps is the default relative tolerance used by iterative routines in this
// repository when the caller does not specify one.
const Eps = 1e-12

// KahanSum accumulates float64 values with Kahan (compensated) summation,
// reducing the error growth of naive summation from O(n) to O(1) ulps.
// The zero value is ready to use.
type KahanSum struct {
	sum float64
	c   float64 // running compensation for lost low-order bits
}

// Add accumulates x into the sum.
func (k *KahanSum) Add(x float64) {
	y := x - k.c
	t := k.sum + y
	k.c = (t - k.sum) - y
	k.sum = t
}

// Sum returns the compensated total.
func (k *KahanSum) Sum() float64 { return k.sum }

// NormInf returns the max-absolute-value norm of xs (0 for empty input).
func NormInf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Dist1 returns the L1 distance between equal-length vectors a and b.
// It panics if the lengths differ.
func Dist1(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("numeric: Dist1 length mismatch")
	}
	var k KahanSum
	for i := range a {
		k.Add(math.Abs(a[i] - b[i]))
	}
	return k.Sum()
}

// DistInf returns the L∞ distance between equal-length vectors a and b.
// It panics if the lengths differ.
func DistInf(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("numeric: DistInf length mismatch")
	}
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// GeomTailSum returns the sum of the geometric series
// a + a·r + a·r² + ... = a/(1−r) for |r| < 1.
// It panics if |r| >= 1.
func GeomTailSum(a, r float64) float64 {
	if math.Abs(r) >= 1 {
		panic("numeric: GeomTailSum requires |r| < 1")
	}
	return a / (1 - r)
}

// GeomTailCount returns the smallest k >= 1 such that r^k < tol, i.e. how
// many terms of a geometric tail with ratio r in (0,1) must be kept before
// the remaining terms each fall below tol. The result is clamped to
// [1, maxTerms].
func GeomTailCount(r, tol float64, maxTerms int) int {
	if r <= 0 {
		return 1
	}
	if r >= 1 || tol <= 0 {
		return maxTerms
	}
	k := int(math.Ceil(math.Log(tol) / math.Log(r)))
	if k < 1 {
		k = 1
	}
	if k > maxTerms {
		k = maxTerms
	}
	return k
}

// Clamp returns x limited to the interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// RelErr returns |got−want| / |want|, or |got−want| when want == 0.
func RelErr(got, want float64) float64 {
	d := math.Abs(got - want)
	if want == 0 {
		return d
	}
	return d / math.Abs(want)
}

// ErrDiverged is the shared sentinel for numeric blow-up: an iterate or
// integration state that reached NaN or ±Inf. The ODE integrators and the
// fixed-point solver wrap it so callers (the serving layer in particular)
// can map "the numbers are garbage" to a typed outcome instead of emitting
// a garbage table. Test with errors.Is.
var ErrDiverged = errors.New("numeric: state diverged to NaN or Inf")

// Finite reports whether x is a usable number (neither NaN nor ±Inf).
func Finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// AllFinite reports whether every element of xs is Finite.
func AllFinite(xs []float64) bool {
	for _, x := range xs {
		if !Finite(x) {
			return false
		}
	}
	return true
}

// ErrNoBracket is returned by root finders when f(a) and f(b) do not have
// opposite signs.
var ErrNoBracket = errors.New("numeric: root is not bracketed")

// ErrMaxIter is returned when an iterative routine fails to converge within
// its iteration budget.
var ErrMaxIter = errors.New("numeric: maximum iterations exceeded")

// Brent finds a root of f in [a, b] using Brent's method (inverse quadratic
// interpolation with bisection fallback). f(a) and f(b) must have opposite
// signs.
func Brent(f func(float64) float64, a, b, tol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return 0, ErrNoBracket
	}
	// Ensure |f(b)| <= |f(a)|: b is the best estimate.
	if math.Abs(fa) < math.Abs(fb) {
		a, b = b, a
		fa, fb = fb, fa
	}
	c, fc := a, fa
	mflag := true
	var d float64
	for i := 0; i < 200; i++ {
		if fb == 0 || math.Abs(b-a) < tol {
			return b, nil
		}
		var s float64
		if fa != fc && fb != fc {
			// Inverse quadratic interpolation.
			s = a*fb*fc/((fa-fb)*(fa-fc)) +
				b*fa*fc/((fb-fa)*(fb-fc)) +
				c*fa*fb/((fc-fa)*(fc-fb))
		} else {
			// Secant.
			s = b - fb*(b-a)/(fb-fa)
		}
		lo, hi := (3*a+b)/4, b
		if lo > hi {
			lo, hi = hi, lo
		}
		cond := s < lo || s > hi ||
			(mflag && math.Abs(s-b) >= math.Abs(b-c)/2) ||
			(!mflag && math.Abs(s-b) >= math.Abs(c-d)/2) ||
			(mflag && math.Abs(b-c) < tol) ||
			(!mflag && math.Abs(c-d) < tol)
		if cond {
			s = (a + b) / 2
			mflag = true
		} else {
			mflag = false
		}
		fs := f(s)
		d = c
		c, fc = b, fb
		if math.Signbit(fa) != math.Signbit(fs) {
			b, fb = s, fs
		} else {
			a, fa = s, fs
		}
		if math.Abs(fa) < math.Abs(fb) {
			a, b = b, a
			fa, fb = fb, fa
		}
	}
	return b, ErrMaxIter
}
