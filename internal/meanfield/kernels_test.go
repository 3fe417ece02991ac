package meanfield

// Lockstep bit-identity tests for the Stages, Rebalance and Choices
// kernels. The reference oracles below are the straightforward per-element
// forms of the three Derivs bodies (every level through the bounds-checked
// accessor, every pair of the rebalancing generator visited); the fast
// kernels must produce the same bits on every input, including states no
// solve should reach: zeros, 1e-30 tails, non-monotone RK4-stage vectors
// and planted NaN or ±Inf.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/numeric"
)

func refStagesDerivs(m *Stages, x, dx []float64) {
	lambda := m.lambda
	c := float64(m.c)
	n := len(x)
	at := func(i int) float64 {
		if i < 0 {
			return x[0]
		}
		if i >= n {
			return 0
		}
		return x[i]
	}
	theta := x[1] - x[2]
	sTau := at(m.tau)
	dx[0] = 0
	for i := 1; i < n; i++ {
		d := lambda*(at(i-m.c)-x[i]) - c*(x[i]-at(i+1))
		if i <= m.c {
			d += c * theta * sTau
		}
		lo := i
		if m.tau > lo {
			lo = m.tau
		}
		if lo <= i+m.c-1 {
			d -= c * theta * (at(lo) - at(i+m.c))
		}
		dx[i] = d
	}
}

func refRebalanceDerivs(m *Rebalance, x, dx []float64) {
	lambda := m.lambda
	n := len(x)
	dx[0] = 0
	for i := 1; i < n; i++ {
		next := 0.0
		if i+1 < n {
			next = x[i+1]
		}
		dx[i] = lambda*(x[i-1]-x[i]) - (x[i] - next)
	}
	p := core.TailsToPMF(nil, x)
	for j := 0; j < n; j++ {
		if p[j] <= 0 {
			continue
		}
		rj := m.rate(j)
		if rj == 0 {
			continue
		}
		for l := 0; l < n; l++ {
			if p[l] <= 0 {
				continue
			}
			rate := rj * p[j] * p[l]
			if rate < 1e-18 {
				continue
			}
			total := j + l
			hi := (total + 1) / 2
			lo := total / 2
			mn, mx := j, l
			if mn > mx {
				mn, mx = mx, mn
			}
			for i := mn + 1; i <= lo && i < n; i++ {
				dx[i] += rate
			}
			for i := hi + 1; i <= mx && i < n; i++ {
				dx[i] -= rate
			}
		}
	}
}

func refChoicesDerivs(m *Choices, x, dx []float64) {
	lambda := m.lambda
	n := len(x)
	at := func(i int) float64 {
		if i >= n {
			return 0
		}
		return x[i]
	}
	theta := x[1] - x[2]
	sT := at(m.t)
	dx[0] = 0
	dx[1] = lambda*(x[0]-x[1]) - (x[1]-x[2])*powd(1-sT, m.d)
	for i := 2; i < n; i++ {
		next := at(i + 1)
		d := lambda*(x[i-1]-x[i]) - (x[i] - next)
		if i >= m.t {
			d -= (powd(1-next, m.d) - powd(1-x[i], m.d)) * theta
		}
		dx[i] = d
	}
}

// kernelState draws a state of length n: geometric tails that drop to
// zeros or 1e-30-scale mass from a random level on, the same with a
// relative jitter that breaks monotonicity (an unprojected RK4 stage), or
// plain noise in [−0.2, 1.2]. A third of the states get one or two NaN or
// ±Inf entries.
func kernelState(r *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	beta := 0.3 + 0.69*r.Float64()
	cut := 1 + r.IntN(n)
	kind := r.IntN(3)
	for i := range x {
		switch {
		case kind == 2:
			x[i] = -0.2 + 1.4*r.Float64()
		case i >= cut:
			if r.IntN(2) == 0 {
				x[i] = 1e-30 * r.Float64()
			}
		default:
			x[i] = math.Pow(beta, float64(i))
		}
		if kind == 1 {
			x[i] *= 1 + 0.2*(r.Float64()-0.5)
		}
	}
	if r.IntN(3) == 0 {
		poison := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
		for k := 1 + r.IntN(2); k > 0; k-- {
			x[r.IntN(n)] = poison[r.IntN(len(poison))]
		}
	}
	return x
}

// lockstep runs the fast and reference kernels on the same state, each
// into a buffer pre-filled with a sentinel, and requires the same bits at
// every level (any NaN matching any NaN) and the same finiteness verdict.
func lockstep(t *testing.T, name string, x []float64, fast, ref func(x, dx []float64)) {
	t.Helper()
	got, want := make([]float64, len(x)), make([]float64, len(x))
	for i := range got {
		got[i], want[i] = -7.77e77, -7.77e77
	}
	fast(x, got)
	ref(x, want)
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s n=%d: dx[%d] = %v (%#x), reference %v (%#x)\nx = %v",
				name, len(x), i, g, math.Float64bits(g), w, math.Float64bits(w), x)
		}
	}
	if numeric.AllFinite(got) != numeric.AllFinite(want) {
		t.Fatalf("%s n=%d: finiteness differs from the reference", name, len(x))
	}
}

func TestStagesDerivsLockstep(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 17))
	for trial := 0; trial < 4000; trial++ {
		c, tt := 1+r.IntN(12), 2+r.IntN(5)
		tau := (tt-1)*c + 1
		// Up to well past τ + c, so both dims with no interior (τ ≥ n−c−1)
		// and dims with a long one occur.
		n := 3 + r.IntN(tau+6*c)
		m := &Stages{base: base{lambda: 0.05 + 0.94*r.Float64()}, c: c, t: tt, tau: tau}
		name := fmt.Sprintf("stages(c=%d,T=%d)", c, tt)
		lockstep(t, name, kernelState(r, n), m.Derivs, func(x, dx []float64) { refStagesDerivs(m, x, dx) })
	}
}

func TestRebalanceDerivsLockstep(t *testing.T) {
	r := rand.New(rand.NewPCG(2, 17))
	for trial := 0; trial < 3000; trial++ {
		rc := []float64{0.1, 1, 4}[r.IntN(3)]
		rate := ConstRate(rc)
		if r.IntN(2) == 0 {
			// A load-dependent rate that is zero on some levels: a NaN row
			// whose own rate is zero is skipped, so only the column terms
			// of other rows carry that NaN into dx.
			off := uint64(r.Uint32())
			rate = func(i int) float64 {
				if (uint64(i)*0x9e3779b97f4a7c15+off)>>63 == 0 {
					return 0
				}
				return rc
			}
		}
		n := 2 + r.IntN(80)
		m := &Rebalance{tails: tails{base: base{lambda: 0.05 + 0.94*r.Float64()}}, rate: rate, rmax: rc}
		name := fmt.Sprintf("rebalance(r=%g)", rc)
		lockstep(t, name, kernelState(r, n), m.Derivs, func(x, dx []float64) { refRebalanceDerivs(m, x, dx) })
	}
}

func TestChoicesDerivsLockstep(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 17))
	for trial := 0; trial < 4000; trial++ {
		n, d := 3+r.IntN(60), 1+r.IntN(4)
		tt := nearDim(r, n)
		m := &Choices{tails: tails{base: base{lambda: 0.05 + 0.94*r.Float64()}, t: tt}, d: d}
		name := fmt.Sprintf("choices(T=%d,d=%d)", tt, d)
		lockstep(t, name, kernelState(r, n), m.Derivs, func(x, dx []float64) { refChoicesDerivs(m, x, dx) })
	}
}

// TestDerivsAllocFree gates every model's Derivs at zero allocations once
// warm: the solvers call it millions of times per solve, and Rebalance and
// StealHalf reuse a PMF buffer they own instead of allocating one per call.
func TestDerivsAllocFree(t *testing.T) {
	ph, err := dist.FitH2(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []core.Model{
		NewNoSteal(0.8), NewSimpleWS(0.8), NewThreshold(0.8, 3), NewRepeated(0.8, 3, 1),
		NewSpawning(0.4, 0.5, 3), NewStatic(UniformInitial(5), 0.3, 2),
		NewPreemptive(0.8, 1, 4), NewChoices(0.8, 3, 2), NewMultiSteal(0.8, 4, 2),
		NewStages(0.8, 3, 2), NewTransfer(0.8, 2, 0.5), NewRepeatedTransfer(0.8, 2, 1, 0.5),
		NewRebalance(0.8, ConstRate(1), 1), NewStealHalf(0.8, 2),
		NewHetero(0.5, 0.6, 0.4, 2, 0.5, 2), NewPhaseService(0.8, ph, 2, 0),
	} {
		// A few projected Euler steps from the initial state fill the low
		// levels, so the steal and rebalancing generators have work to do.
		x, dx := m.Initial(), make([]float64, m.Dim())
		for k := 0; k < 8; k++ {
			m.Derivs(x, dx)
			for i := range x {
				x[i] += 0.25 * dx[i]
			}
			m.Project(x)
		}
		if got := testing.AllocsPerRun(20, func() { m.Derivs(x, dx) }); got != 0 {
			t.Errorf("%s: a warmed Derivs call allocates %v times, want 0", m.Name(), got)
		}
	}
}
