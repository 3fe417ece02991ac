package solver

import (
	"math"
	"math/rand/v2"
	"runtime/debug"
	"testing"

	"repro/internal/numeric"
)

// refAndersonMix is the former allocating mix: the history passed as
// slices of copies, one pass over i per dot product, the result in a new
// slice (nil when the normal equations are singular).
func refAndersonMix(xs, gs [][]float64) []float64 {
	k := len(xs)
	n := len(xs[0])
	if k == 1 {
		out := make([]float64, n)
		for i := 0; i < n; i++ {
			out[i] = (1-mixBeta)*xs[0][i] + mixBeta*gs[0][i]
		}
		return out
	}
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
	reg := 1e-12 * (1 + a[0][0])
	for j := range a {
		a[j][j] += reg
	}
	gamma, ok := solveDense(a, b)
	if !ok {
		return nil
	}
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

// TestAndersonMixLockstep drives the solve-owned history ring and the
// former append-and-trim history through the same random record and clear
// sequence, and requires the same iterate bits from both mixes after every
// record, or both to report a singular system. The drawn iterates mix
// smooth profiles, exact repeats (zero residual differences), 1e-30
// entries and planted NaN or ±Inf.
func TestAndersonMixLockstep(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 17))
	draw := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			switch r.IntN(6) {
			case 0:
				v[i] = 0
			case 1:
				v[i] = 1e-30 * r.Float64()
			default:
				v[i] = math.Pow(0.8, float64(i)) * (1 + 0.1*(r.Float64()-0.5))
			}
		}
		if r.IntN(25) == 0 {
			v[r.IntN(n)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.IntN(3)]
		}
		return v
	}
	singular := 0
	for trial := 0; trial < 200; trial++ {
		m, n := 1+r.IntN(8), 1+r.IntN(40)
		w := newAnderson(m)
		var histX, histG [][]float64
		x, g := draw(n), draw(n)
		for step := 0; step < 40; step++ {
			if r.IntN(12) == 0 {
				w.clear()
				histX, histG = histX[:0], histG[:0]
			}
			if r.IntN(4) != 0 {
				// Usually a fresh pair; otherwise the previous one again, so
				// that residual differences vanish.
				x, g = draw(n), draw(n)
			}
			w.record(x, g)
			histX = append(histX, append([]float64(nil), x...))
			histG = append(histG, append([]float64(nil), g...))
			if len(histX) > m+1 {
				histX, histG = histX[1:], histG[1:]
			}
			want := refAndersonMix(histX, histG)
			got := make([]float64, n)
			for i := range got {
				got[i] = -7.77e77
			}
			ok := w.next(got)
			if ok != (want != nil) {
				t.Fatalf("trial %d step %d: next ok = %v, reference singular = %v", trial, step, ok, want == nil)
			}
			if !ok {
				singular++
				continue
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
					t.Fatalf("trial %d step %d (m=%d, k=%d): out[%d] = %v (%#x), reference %v (%#x)",
						trial, step, m, len(histX), i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
	if singular == 0 {
		t.Error("no draw reached the singular branch")
	}
}

// TestFixedPointIterationAllocFree checks that the Anderson history and
// scratch are owned by the solve: once the ring is full, further
// iterations allocate nothing, so a solve's allocations do not grow with
// its iteration count.
func TestFixedPointIterationAllocFree(t *testing.T) {
	// With the collector off no cycle starts or ends in AllocsPerRun's
	// window, so runtime work cannot add to the process-wide count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(iters int) float64 {
		x0 := make([]float64, 16)
		return testing.AllocsPerRun(5, func() {
			FixedPoint(slowSystem16, x0, Options{Tol: 1e-300, Horizon: 1, Step: 0.25, MaxIter: iters})
		})
	}
	if short, long := allocs(20), allocs(200); short != long {
		t.Errorf("a 20-iteration solve allocates %v times, a 200-iteration one %v", short, long)
	}
}

// slowSystem16 relaxes 16 modes at rates spread over three decades, so a
// solve with an unreachable tolerance runs its full iteration budget.
func slowSystem16(x, dx []float64) {
	for i := range x {
		dx[i] = math.Pow(10, -float64(i%4)) * (1 - x[i])
	}
}
