package ode

import (
	"math"
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
