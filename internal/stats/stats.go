// Package stats provides the statistical accumulators used by the simulator
// and the experiment harness: streaming mean/variance (Welford), confidence
// intervals over replications, and fixed-width histograms.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Welford accumulates a streaming mean and variance without storing samples,
// using Welford's numerically stable recurrence. The zero value is ready to
// use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean (0 if empty).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 if fewer than 2 observations).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n == 0 {
		return 0
	}
	return w.Std() / math.Sqrt(float64(w.n))
}

// Summary holds the aggregate of several replication means.
type Summary struct {
	N    int     `json:"n"`    // number of replications
	Mean float64 `json:"mean"` // mean of replication means
	Std  float64 `json:"std"`  // std dev across replications
	Half float64 `json:"half"` // 95% confidence half-width
}

// Summarize aggregates per-replication means into a Summary with a 95%
// confidence interval based on the t distribution.
func Summarize(means []float64) Summary {
	var w Welford
	for _, m := range means {
		w.Add(m)
	}
	s := Summary{N: int(w.N()), Mean: w.Mean(), Std: w.Std()}
	if s.N >= 2 {
		s.Half = TQuantile975(s.N-1) * w.StdErr()
	}
	return s
}

func (s Summary) String() string {
	return fmt.Sprintf("%.4f ± %.4f (n=%d)", s.Mean, s.Half, s.N)
}

// Contains reports whether v lies inside the summary's 95% confidence
// interval [Mean − Half, Mean + Half]. With fewer than 2 replications no
// interval exists and Contains returns false.
func (s Summary) Contains(v float64) bool {
	if s.N < 2 {
		return false
	}
	return math.Abs(v-s.Mean) <= s.Half
}

// StdErr returns the standard error of the summarized mean.
func (s Summary) StdErr() float64 {
	if s.N == 0 {
		return 0
	}
	return s.Std / math.Sqrt(float64(s.N))
}

// TOSTResult reports one two-one-sided-tests equivalence check.
type TOSTResult struct {
	// Diff is the point estimate Mean − Target.
	Diff float64 `json:"diff"`
	// Low and High bound the 90% confidence interval of Diff (the interval
	// the 5%-level TOST procedure compares against the margin).
	Low  float64 `json:"low"`
	High float64 `json:"high"`
	// Margin is the equivalence margin δ the check was run with.
	Margin float64 `json:"margin"`
	// Equivalent is true when the whole interval lies inside (−δ, +δ),
	// i.e. both one-sided 5% tests reject their non-equivalence hypothesis.
	Equivalent bool `json:"equivalent"`
}

// TOST runs the two-one-sided-tests equivalence procedure at level 5%:
// given replication means summarized in s, a target value, and an
// equivalence margin δ > 0, it rejects the non-equivalence hypothesis
// |true mean − target| ≥ δ exactly when the 90% confidence interval of
// (mean − target) falls strictly inside (−δ, +δ). Unlike a plain difference
// test, failing to gather enough data can never produce a spurious pass:
// with N < 2 replications (no interval) the result is not equivalent.
func TOST(s Summary, target, margin float64) TOSTResult {
	r := TOSTResult{Diff: s.Mean - target, Margin: margin}
	if s.N < 2 || margin <= 0 {
		r.Low, r.High = math.Inf(-1), math.Inf(1)
		return r
	}
	half := TQuantile95(s.N-1) * s.StdErr()
	r.Low = r.Diff - half
	r.High = r.Diff + half
	r.Equivalent = r.Low > -margin && r.High < margin
	return r
}

// WelchResult reports Welch's unequal-variance comparison of two
// replication summaries.
type WelchResult struct {
	// Diff is the point estimate a.Mean − b.Mean.
	Diff float64 `json:"diff"`
	// T is Diff over the pooled standard error √(sₐ²/Nₐ + s_b²/N_b).
	T float64 `json:"t"`
	// Df is the Welch–Satterthwaite degrees of freedom, rounded down.
	Df int `json:"df"`
	// Less is true when a's mean is significantly below b's: the one-sided
	// 5%-level Welch test rejects "mean(a) ≥ mean(b)". Like TOST, too few
	// replications (either N < 2) can never produce a spurious pass.
	Less bool `json:"less"`
}

// Welch compares two replication summaries with Welch's unequal-variance t
// procedure. The one-sided orientation tests whether a's mean lies below
// b's; callers wanting the opposite direction swap the arguments.
func Welch(a, b Summary) WelchResult {
	r := WelchResult{Diff: a.Mean - b.Mean}
	if a.N < 2 || b.N < 2 {
		return r
	}
	va, vb := a.Std*a.Std/float64(a.N), b.Std*b.Std/float64(b.N)
	se2 := va + vb
	if se2 <= 0 {
		// Degenerate replications: no variance estimate, no significance.
		return r
	}
	r.T = r.Diff / math.Sqrt(se2)
	df := se2 * se2 / (va*va/float64(a.N-1) + vb*vb/float64(b.N-1))
	r.Df = int(df)
	if r.Df < 1 {
		r.Df = 1
	}
	r.Less = r.T < -TQuantile95(r.Df)
	return r
}

// TQuantile95 returns the 0.95 quantile of Student's t distribution with
// df degrees of freedom (NaN for df ≤ 0) — the one-sided 5% critical value
// behind TOST and Welch — from a table for small df and the normal
// approximation beyond it.
func TQuantile95(df int) float64 {
	table := []float64{
		0, // df=0 unused
		6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
		1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725,
		1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697,
	}
	if df <= 0 {
		return math.NaN()
	}
	if df < len(table) {
		return table[df]
	}
	return 1.645
}

// TQuantile975 returns the 0.975 quantile of Student's t distribution with
// df degrees of freedom (NaN for df ≤ 0) — the two-sided 95% critical
// value behind Summarize's intervals and Stein's fixed-width intervals in
// internal/validate — from a table for small df and the normal
// approximation beyond it. Accuracy is ample for reporting 95% CIs.
func TQuantile975(df int) float64 {
	table := []float64{
		0, // df=0 unused
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	if df <= 0 {
		return math.NaN()
	}
	if df < len(table) {
		return table[df]
	}
	return 1.96
}

// FQuantile95 returns the 0.95 quantile of the F distribution with (df,
// df) degrees of freedom — the one-sided 5% critical value for comparing
// two sample variances estimated from equally many replications. Callers
// reject the hypothesis "variance did not decrease" only when the observed
// variance ratio exceeds this bound, so the comparison stays non-flaky at
// small replication counts. Returns NaN for df ≤ 0; beyond the table the
// bound approaches 1 slowly and 2.0 is a conservative stand-in.
func FQuantile95(df int) float64 {
	table := []float64{
		0, // df=0 unused
		161.45, 19.00, 9.277, 6.388, 5.050, 4.284, 3.787, 3.438, 3.179, 2.978,
		2.818, 2.687, 2.577, 2.484, 2.403, 2.333, 2.272, 2.217, 2.168, 2.124,
	}
	if df <= 0 {
		return math.NaN()
	}
	if df < len(table) {
		return table[df]
	}
	return 2.0
}

// Histogram is a fixed-width histogram over [Lo, Hi) with overflow and
// underflow buckets. It is used for sojourn-time distributions.
type Histogram struct {
	Lo, Hi  float64
	Buckets []int64
	Under   int64
	Over    int64
	count   int64
}

// NewHistogram creates a histogram with n buckets covering [lo, hi).
// It panics on invalid arguments.
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("stats: invalid histogram parameters")
	}
	return &Histogram{Lo: lo, Hi: hi, Buckets: make([]int64, n)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.count++
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Buckets)))
		if i >= len(h.Buckets) { // guard rounding at the upper edge
			i = len(h.Buckets) - 1
		}
		h.Buckets[i]++
	}
}

// Count returns the total number of observations, including under/overflow.
func (h *Histogram) Count() int64 { return h.count }

// Quantile returns an approximate q-quantile (0 < q < 1) assuming
// observations are uniform within buckets. Underflow mass is assigned to Lo
// and overflow to Hi.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 || q <= 0 || q >= 1 {
		return math.NaN()
	}
	target := q * float64(h.count)
	cum := float64(h.Under)
	if cum >= target {
		return h.Lo
	}
	width := (h.Hi - h.Lo) / float64(len(h.Buckets))
	for i, c := range h.Buckets {
		next := cum + float64(c)
		if next >= target && c > 0 {
			frac := (target - cum) / float64(c)
			return h.Lo + (float64(i)+frac)*width
		}
		cum = next
	}
	return h.Hi
}

// Median returns the exact median of xs (not in place; xs is copied).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}
