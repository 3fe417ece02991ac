// Package ode implements explicit initial-value-problem integrators for the
// autonomous systems of differential equations produced by the mean-field
// work-stealing models: classic fourth-order Runge–Kutta, stepped over a
// span under an optional observer, or run to steady state.
//
// All systems in this repository are autonomous (the right-hand side does
// not depend on t), which keeps the interface small: a System writes the
// derivative of x into dx.
package ode

import (
	"math"

	"repro/internal/numeric"
)

// System evaluates the derivative dx = f(x) of an autonomous ODE system.
// Implementations must not retain or modify x, and must fill every element
// of dx.
type System func(x, dx []float64)

// RK4Scratch holds the work arrays for classic RK4 steps so repeated calls
// allocate nothing.
type RK4Scratch struct {
	k1, k2, k3, k4, tmp []float64
}

// NewRK4Scratch returns scratch space for systems of dimension n.
func NewRK4Scratch(n int) *RK4Scratch {
	return &RK4Scratch{
		k1:  make([]float64, n),
		k2:  make([]float64, n),
		k3:  make([]float64, n),
		k4:  make([]float64, n),
		tmp: make([]float64, n),
	}
}

// RK4 advances x in place by one classic Runge–Kutta step of size h.
//
// Go evaluates h/2*v as (h/2)*v and h/6*(…) as (h/6)*(…), so hoisting h/2
// and h/6 out of the loops leaves every bit of the step unchanged.
func RK4(f System, x []float64, h float64, s *RK4Scratch) {
	n := len(x)
	k1, k2, k3, k4, tmp := s.k1[:n], s.k2[:n], s.k3[:n], s.k4[:n], s.tmp[:n]
	h2, h6 := h/2, h/6
	f(x, k1)
	for i, v := range x {
		tmp[i] = v + h2*k1[i]
	}
	f(tmp, k2)
	for i, v := range x {
		tmp[i] = v + h2*k2[i]
	}
	f(tmp, k3)
	for i, v := range x {
		tmp[i] = v + h*k3[i]
	}
	f(tmp, k4)
	for i := range x {
		x[i] += h6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
	}
}

// Integrate advances x in place from t=0 to t=span using fixed RK4 steps of
// size at most h (the last step is shortened to land exactly on span).
func Integrate(f System, x []float64, span, h float64) {
	if span <= 0 {
		return
	}
	s := NewRK4Scratch(len(x))
	steps := int(math.Ceil(span / h))
	hh := span / float64(steps)
	for i := 0; i < steps; i++ {
		RK4(f, x, hh, s)
	}
}

// Observer receives the state after each accepted step of SolveObserved.
// Returning false stops the integration early.
type Observer func(t float64, x []float64) bool

// SolveObserved integrates with fixed RK4 steps, invoking obs after every
// step (and once for the initial state at t=0). It returns the final time
// reached.
func SolveObserved(f System, x []float64, span, h float64, obs Observer) float64 {
	s := NewRK4Scratch(len(x))
	t := 0.0
	if obs != nil && !obs(t, x) {
		return t
	}
	for t < span {
		step := h
		if t+step > span {
			step = span - t
		}
		RK4(f, x, step, s)
		t += step
		if obs != nil && !obs(t, x) {
			return t
		}
	}
	return t
}

// SteadyOptions configures IntegrateToSteady.
type SteadyOptions struct {
	// Tol is the ∞-norm threshold on the derivative below which the state is
	// declared steady. Zero defaults to 1e-10.
	Tol float64
	// Step is the RK4 step size. Zero defaults to 0.1.
	Step float64
	// MaxTime bounds the total integrated time. Zero defaults to 1e6.
	MaxTime float64
}

// steadyCheckEvery is the number of steps between IntegrateToSteady's
// convergence checks.
const steadyCheckEvery = 10

// IntegrateToSteady integrates x forward with fixed RK4 steps until the
// derivative norm drops below opt.Tol, returning the simulated time used and
// whether convergence was reached within opt.MaxTime.
//
// This is the slow-but-safe way to find a fixed point; package solver offers
// Anderson acceleration that is typically orders of magnitude faster at high
// arrival rates.
func IntegrateToSteady(f System, x []float64, opt SteadyOptions) (float64, bool) {
	tol := opt.Tol
	if tol == 0 {
		tol = 1e-10
	}
	h := opt.Step
	if h == 0 {
		h = 0.1
	}
	maxTime := opt.MaxTime
	if maxTime == 0 {
		maxTime = 1e6
	}
	s := NewRK4Scratch(len(x))
	dx := make([]float64, len(x))
	t := 0.0
	for steps := 0; t < maxTime; steps++ {
		if steps%steadyCheckEvery == 0 {
			f(x, dx)
			if numeric.NormInf(dx) < tol {
				return t, true
			}
		}
		RK4(f, x, h, s)
		t += h
	}
	f(x, dx)
	return t, numeric.NormInf(dx) < tol
}
