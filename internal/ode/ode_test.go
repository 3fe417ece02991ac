package ode

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/numeric"
)

// decay is x' = -x with solution x(t) = x0·e^{−t}.
func decay(x, dx []float64) {
	for i := range x {
		dx[i] = -x[i]
	}
}

// harmonic is the 2D oscillator x” = −x written as a first-order system;
// energy x0²+x1² is conserved exactly by the true flow.
func harmonic(x, dx []float64) {
	dx[0] = x[1]
	dx[1] = -x[0]
}

func TestRK4FourthOrder(t *testing.T) {
	errAt := func(h float64) float64 {
		x := []float64{1}
		s := NewRK4Scratch(1)
		for i := 0; i < int(1/h+0.5); i++ {
			RK4(decay, x, h, s)
		}
		return math.Abs(x[0] - math.Exp(-1))
	}
	e1, e2 := errAt(0.1), errAt(0.05)
	ratio := e1 / e2
	if ratio < 14 || ratio > 18 {
		t.Errorf("RK4 convergence ratio = %v, want ~16", ratio)
	}
}

func TestIntegrateAccuracy(t *testing.T) {
	x := []float64{2}
	Integrate(decay, x, 3, 0.01)
	want := 2 * math.Exp(-3)
	if numeric.RelErr(x[0], want) > 1e-9 {
		t.Errorf("Integrate = %v, want %v", x[0], want)
	}
}

func TestIntegrateZeroSpan(t *testing.T) {
	x := []float64{1}
	Integrate(decay, x, 0, 0.1)
	if x[0] != 1 {
		t.Error("zero-span integration changed state")
	}
}

func TestIntegrateLandsExactly(t *testing.T) {
	// span not divisible by h: final state must still match e^{-span}.
	x := []float64{1}
	Integrate(decay, x, 1.2345, 0.1)
	want := math.Exp(-1.2345)
	if numeric.RelErr(x[0], want) > 1e-6 {
		t.Errorf("Integrate landed at %v, want %v", x[0], want)
	}
}

func TestSolveObserved(t *testing.T) {
	x := []float64{1}
	var times []float64
	SolveObserved(decay, x, 1, 0.25, func(tm float64, _ []float64) bool {
		times = append(times, tm)
		return true
	})
	if len(times) != 5 || times[0] != 0 || times[4] != 1 {
		t.Errorf("observer times = %v", times)
	}
}

func TestSolveObservedEarlyStop(t *testing.T) {
	x := []float64{1}
	calls := 0
	tEnd := SolveObserved(decay, x, 10, 0.5, func(tm float64, _ []float64) bool {
		calls++
		return tm < 1.0
	})
	if tEnd > 1.01 {
		t.Errorf("early stop failed: reached t=%v", tEnd)
	}
	if calls < 2 {
		t.Errorf("observer called %d times", calls)
	}
}

func TestIntegrateToSteady(t *testing.T) {
	// x' = 1 − x converges to x = 1.
	relax := func(x, dx []float64) {
		dx[0] = 1 - x[0]
	}
	x := []float64{0}
	tUsed, ok := IntegrateToSteady(relax, x, SteadyOptions{Tol: 1e-9, Step: 0.05})
	if !ok {
		t.Fatal("did not converge")
	}
	if math.Abs(x[0]-1) > 1e-8 {
		t.Errorf("steady state = %v, want 1", x[0])
	}
	if tUsed <= 0 {
		t.Error("no time elapsed")
	}
}

func TestIntegrateToSteadyTimeout(t *testing.T) {
	// x' = 1 never reaches steady state.
	grow := func(x, dx []float64) { dx[0] = 1 }
	x := []float64{0}
	_, ok := IntegrateToSteady(grow, x, SteadyOptions{Tol: 1e-9, Step: 0.1, MaxTime: 10})
	if ok {
		t.Error("claimed convergence for non-converging system")
	}
}

// refRK4 is the step with h/2 and h/6 evaluated inside the loops, the
// oracle for RK4's hoisted constants.
func refRK4(f System, x []float64, h float64, s *RK4Scratch) {
	n := len(x)
	k1, k2, k3, k4, tmp := s.k1[:n], s.k2[:n], s.k3[:n], s.k4[:n], s.tmp[:n]
	f(x, k1)
	for i := 0; i < n; i++ {
		tmp[i] = x[i] + h/2*k1[i]
	}
	f(tmp, k2)
	for i := 0; i < n; i++ {
		tmp[i] = x[i] + h/2*k2[i]
	}
	f(tmp, k3)
	for i := 0; i < n; i++ {
		tmp[i] = x[i] + h*k3[i]
	}
	f(tmp, k4)
	for i := 0; i < n; i++ {
		x[i] += h / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
	}
}

// TestRK4StepLockstep runs RK4 and refRK4 side by side for a few steps of
// a nonlinear birth–death system, from states with zeros, 1e-30 entries,
// non-monotone noise and planted NaN or ±Inf, at step sizes that are not
// powers of two (h/6 rounds), and requires equal bits after every step.
func TestRK4StepLockstep(t *testing.T) {
	r := rand.New(rand.NewPCG(8, 17))
	for trial := 0; trial < 2000; trial++ {
		n := 3 + r.IntN(40)
		lam, b := 0.05+0.94*r.Float64(), r.Float64()
		f := func(x, dx []float64) {
			dx[0] = 0
			for i := 1; i < len(x); i++ {
				next := 0.0
				if i+1 < len(x) {
					next = x[i+1]
				}
				dx[i] = lam*(x[i-1]-x[i]) - (x[i] - next) - b*x[1]*x[i]
			}
		}
		x := make([]float64, n)
		for i := range x {
			switch r.IntN(4) {
			case 0:
				x[i] = 0
			case 1:
				x[i] = 1e-30 * r.Float64()
			default:
				x[i] = -0.2 + 1.4*r.Float64()
			}
		}
		if r.IntN(4) == 0 {
			poison := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
			x[r.IntN(n)] = poison[r.IntN(len(poison))]
		}
		h := []float64{0.1, 1.0 / 3, 0.0734, 2.0 / 7}[r.IntN(4)] * (0.5 + r.Float64())
		got, want := append([]float64(nil), x...), append([]float64(nil), x...)
		sg, sw := NewRK4Scratch(n), NewRK4Scratch(n)
		for step := 0; step < 4; step++ {
			RK4(f, got, h, sg)
			refRK4(f, want, h, sw)
			for i := range want {
				g, w := got[i], want[i]
				if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
					t.Fatalf("trial %d step %d: x[%d] = %v (%#x), reference %v (%#x)",
						trial, step, i, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
		}
	}
}

func BenchmarkRK4Dim512(b *testing.B) {
	n := 512
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	s := NewRK4Scratch(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RK4(decay, x, 0.01, s)
	}
}
