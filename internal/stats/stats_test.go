package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestWelfordBasic(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Errorf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", w.Mean())
	}
	// Sample variance of this classic dataset is 32/7.
	if math.Abs(w.Var()-32.0/7) > 1e-12 {
		t.Errorf("Var = %v, want %v", w.Var(), 32.0/7)
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.Std() != 0 || w.StdErr() != 0 {
		t.Error("empty Welford should return zeros")
	}
	w.Add(3)
	if w.Var() != 0 {
		t.Error("single-sample variance should be 0")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || math.Abs(s.Mean-3) > 1e-12 {
		t.Errorf("Summary = %+v", s)
	}
	// std = sqrt(2.5), half = t(4)=2.776 * sqrt(2.5)/sqrt(5)
	wantHalf := 2.776 * math.Sqrt(2.5) / math.Sqrt(5)
	if math.Abs(s.Half-wantHalf) > 1e-9 {
		t.Errorf("Half = %v, want %v", s.Half, wantHalf)
	}
	if s.String() == "" {
		t.Error("empty String")
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Half != 0 {
		t.Errorf("single-replication summary = %+v", s)
	}
}

func TestTQuantile(t *testing.T) {
	if got := TQuantile975(1); got != 12.706 {
		t.Errorf("t(1) = %v", got)
	}
	if got := TQuantile975(100); got != 1.96 {
		t.Errorf("t(100) = %v", got)
	}
	if !math.IsNaN(TQuantile975(0)) {
		t.Error("t(0) should be NaN")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	h.Add(-1) // underflow
	h.Add(11) // overflow
	if h.Count() != 12 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Under != 1 || h.Over != 1 {
		t.Errorf("Under/Over = %d/%d", h.Under, h.Over)
	}
	for i, c := range h.Buckets {
		if c != 1 {
			t.Errorf("bucket %d has %d, want 1", i, c)
		}
	}
}

func TestHistogramUpperEdge(t *testing.T) {
	h := NewHistogram(0, 1, 3)
	h.Add(math.Nextafter(1, 0)) // just below Hi
	if h.Buckets[2] != 1 {
		t.Error("upper edge sample landed in wrong bucket")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(0, 100, 100)
	r := rng.New(3)
	for i := 0; i < 100000; i++ {
		h.Add(r.Float64() * 100)
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		got := h.Quantile(q)
		if math.Abs(got-q*100) > 2 {
			t.Errorf("Quantile(%v) = %v, want ~%v", q, got, q*100)
		}
	}
	if !math.IsNaN(NewHistogram(0, 1, 1).Quantile(0.5)) {
		t.Error("quantile of empty histogram should be NaN")
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("median of empty should be NaN")
	}
	// Median must not mutate input.
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 {
		t.Error("Median mutated its input")
	}
}

// Property: Welford mean equals naive mean for random batches.
func TestWelfordMatchesNaive(t *testing.T) {
	f := func(raw []float64) bool {
		var w Welford
		sum := 0.0
		n := 0
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				continue
			}
			w.Add(x)
			sum += x
			n++
		}
		if n == 0 {
			return true
		}
		naive := sum / float64(n)
		return math.Abs(w.Mean()-naive) <= 1e-8*(1+math.Abs(naive))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSummaryContains(t *testing.T) {
	s := Summarize([]float64{1.0, 1.2, 0.8, 1.1})
	if !s.Contains(s.Mean) {
		t.Error("CI must contain its own mean")
	}
	if !s.Contains(s.Mean + s.Half) {
		t.Error("CI endpoints are inside (closed interval)")
	}
	if s.Contains(s.Mean + 1.01*s.Half) {
		t.Error("value beyond the half-width must be outside")
	}
	if (Summary{N: 1, Mean: 3}).Contains(3) {
		t.Error("no interval exists for a single replication")
	}
}

func TestTQuantile95(t *testing.T) {
	if got := TQuantile95(1); math.Abs(got-6.314) > 1e-9 {
		t.Errorf("df=1: %v", got)
	}
	if got := TQuantile95(100); got != 1.645 {
		t.Errorf("df=100: %v", got)
	}
	// One-sided 5% critical values are below the two-sided ones everywhere.
	for df := 1; df < 40; df++ {
		if TQuantile95(df) >= TQuantile975(df) {
			t.Errorf("df=%d: t_.95 %v >= t_.975 %v", df, TQuantile95(df), TQuantile975(df))
		}
	}
	if !math.IsNaN(TQuantile95(0)) {
		t.Error("df=0 should be NaN")
	}
}

func TestWelch(t *testing.T) {
	lo := Summary{N: 6, Mean: 2.0, Std: 0.1}
	hi := Summary{N: 6, Mean: 3.0, Std: 0.1}
	r := Welch(lo, hi)
	if !r.Less || r.T >= 0 || r.Diff != -1 {
		t.Errorf("clear separation not detected: %+v", r)
	}
	// Equal per-group variances and counts give df = 2(N−1) before the
	// floor rounding.
	if r.Df < 1 || r.Df > 10 {
		t.Errorf("df = %d outside the Welch–Satterthwaite range", r.Df)
	}
	// The opposite orientation must not pass.
	if rev := Welch(hi, lo); rev.Less {
		t.Errorf("reversed comparison significant: %+v", rev)
	}
	// Overlapping noisy groups are not significant either way.
	a := Summary{N: 4, Mean: 2.0, Std: 1.5}
	b := Summary{N: 4, Mean: 2.2, Std: 1.5}
	if r := Welch(a, b); r.Less || Welch(b, a).Less {
		t.Errorf("overlapping groups significant: %+v", r)
	}
}

func TestWelchDegenerate(t *testing.T) {
	// Too few replications or no variance can never be significant.
	cases := [][2]Summary{
		{{N: 1, Mean: 0}, {N: 6, Mean: 10, Std: 0.1}},
		{{N: 6, Mean: 0, Std: 0.1}, {N: 1, Mean: 10}},
		{{N: 6, Mean: 0}, {N: 6, Mean: 10}},
	}
	for i, c := range cases {
		r := Welch(c[0], c[1])
		if r.Less || r.T != 0 || r.Df != 0 {
			t.Errorf("case %d: degenerate input significant: %+v", i, r)
		}
	}
}

func TestTOSTEquivalence(t *testing.T) {
	// Tight replications around 2.0 are equivalent to 2.0 under a 5%
	// margin but not under an implausibly small one.
	s := Summarize([]float64{2.01, 1.99, 2.00, 2.02, 1.98})
	if r := TOST(s, 2.0, 0.1); !r.Equivalent {
		t.Errorf("expected equivalence, got %+v", r)
	}
	if r := TOST(s, 2.0, 1e-6); r.Equivalent {
		t.Errorf("margin below the CI width cannot prove equivalence: %+v", r)
	}
	// A systematic offset beyond the margin must fail even with tiny noise.
	off := Summarize([]float64{2.50, 2.51, 2.49, 2.50})
	if r := TOST(off, 2.0, 0.1); r.Equivalent {
		t.Errorf("offset 0.5 cannot be equivalent under margin 0.1: %+v", r)
	}
	// The interval is centered on Diff and ordered.
	r := TOST(s, 2.0, 0.1)
	if !(r.Low <= r.Diff && r.Diff <= r.High) {
		t.Errorf("interval not ordered: %+v", r)
	}
}

func TestTOSTDegenerate(t *testing.T) {
	// Too little data or a non-positive margin can never certify
	// equivalence (TOST's burden-of-proof property).
	if r := TOST(Summary{N: 1, Mean: 2}, 2, 0.5); r.Equivalent {
		t.Errorf("N=1 passed: %+v", r)
	}
	if r := TOST(Summarize([]float64{2, 2, 2}), 2, 0); r.Equivalent {
		t.Errorf("margin 0 passed: %+v", r)
	}
	// Zero variance with N >= 2 and an exact match is equivalent.
	if r := TOST(Summarize([]float64{2, 2, 2}), 2, 1e-9); !r.Equivalent {
		t.Errorf("exact deterministic match failed: %+v", r)
	}
}

func TestFQuantile95(t *testing.T) {
	if got := FQuantile95(3); math.Abs(got-9.277) > 1e-9 {
		t.Errorf("df=3: %v", got)
	}
	if got := FQuantile95(5); math.Abs(got-5.050) > 1e-9 {
		t.Errorf("df=5: %v", got)
	}
	if !math.IsNaN(FQuantile95(0)) {
		t.Error("df=0 should be NaN")
	}
	// The critical value decreases toward 1 within the table, and the
	// conservative fallback beyond it stays above 1.
	for df := 1; df < 20; df++ {
		if FQuantile95(df+1) >= FQuantile95(df) {
			t.Errorf("df=%d: bound not decreasing", df)
		}
	}
	for _, df := range []int{1, 10, 20, 21, 100} {
		if FQuantile95(df) <= 1 {
			t.Errorf("df=%d: bound %v must stay above 1", df, FQuantile95(df))
		}
	}
}
