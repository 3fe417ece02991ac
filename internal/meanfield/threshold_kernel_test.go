package meanfield

// Lockstep test for the threshold-family kernel: no stealing, spawning and
// the static drain all run on Repeated.Derivs. The oracles below are the
// models' former dedicated Derivs bodies, with their fields passed as
// parameters; the shared kernel must reproduce them on every drawn state
// (see kernelState), with two allowances the extra terms force. The retry
// terms r·(s₀−s₁)·s_T and r·(s₀−s₁) are ±0 at r = 0 and the static level-1
// arrival term is 0·(s₀−s₁), so a zero may come out with the other sign,
// and a non-finite entry may come out as NaN where the oracle had ±Inf.
// Solved states carry no signed-zero difference: the mean-field golden
// hashes their bits.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/numeric"
)

func refNoStealDerivs(lambda float64, x, dx []float64) {
	n := len(x)
	dx[0] = 0
	for i := 1; i < n; i++ {
		next := 0.0
		if i+1 < n {
			next = x[i+1]
		}
		dx[i] = lambda*(x[i-1]-x[i]) - (x[i] - next)
	}
}

func refSpawningDerivs(le, li float64, t int, x, dx []float64) {
	n := len(x)
	at := func(i int) float64 {
		if i >= n {
			return 0
		}
		return x[i]
	}
	theta := x[1] - at(2)
	sT := at(t)
	dx[0] = 0
	dx[1] = le*(x[0]-x[1]) - theta*(1-sT)
	for i := 2; i < n; i++ {
		gap := x[i] - at(i+1)
		d := (le+li)*(x[i-1]-x[i]) - gap
		if i >= t {
			d -= gap * theta
		}
		dx[i] = d
	}
}

func refStaticDerivs(lint float64, t int, x, dx []float64) {
	n := len(x)
	at := func(i int) float64 {
		if i >= n {
			return 0
		}
		return x[i]
	}
	theta := x[1] - at(2)
	sT := at(t)
	dx[0] = 0
	dx[1] = -(x[1] - at(2)) * (1 - sT)
	for i := 2; i < n; i++ {
		gap := x[i] - at(i+1)
		d := lint*(x[i-1]-x[i]) - gap
		if i >= t {
			d -= gap * theta
		}
		dx[i] = d
	}
}

// lockstepUpToZeroSign runs the kernel and its oracle on x, each into a
// sentinel-filled buffer. On a finite state every level must match bit for
// bit, except that a zero may differ in sign (for finite values g == w is
// exactly that); on any state each level must get the same finiteness
// verdict.
func lockstepUpToZeroSign(t *testing.T, name string, x []float64, fast, ref func(x, dx []float64)) {
	t.Helper()
	got, want := make([]float64, len(x)), make([]float64, len(x))
	for i := range got {
		got[i], want[i] = -7.77e77, -7.77e77
	}
	fast(x, got)
	ref(x, want)
	finite := numeric.AllFinite(x)
	for i := range want {
		g, w := got[i], want[i]
		if numeric.Finite(g) != numeric.Finite(w) || finite && g != w {
			t.Fatalf("%s n=%d: dx[%d] = %v (%#x), reference %v (%#x)\nx = %v",
				name, len(x), i, g, math.Float64bits(g), w, math.Float64bits(w), x)
		}
	}
}

func TestThresholdFamilyDerivsLockstep(t *testing.T) {
	r := rand.New(rand.NewPCG(4, 17))
	for trial := 0; trial < 3000; trial++ {
		// Spawn rates are 0 in a quarter of the spawning and static cases.
		li := 0.9 * r.Float64()
		if r.IntN(4) == 0 {
			li = 0
		}
		tt := 2 + r.IntN(5)
		var m core.Model
		var ref func(x, dx []float64)
		switch trial % 3 {
		case 0:
			lambda := 0.05 + 0.9*r.Float64()
			m = NewNoSteal(lambda)
			ref = func(x, dx []float64) { refNoStealDerivs(lambda, x, dx) }
		case 1:
			le := (0.05 + 0.9*r.Float64()) * (1 - li)
			m = NewSpawning(le, li, tt)
			ref = func(x, dx []float64) { refSpawningDerivs(le, li, tt, x, dx) }
		case 2:
			m = NewStatic(UniformInitial(r.IntN(12)), li, tt)
			ref = func(x, dx []float64) { refStaticDerivs(li, tt, x, dx) }
		}
		x := kernelState(r, m.Dim())
		// s₀ is the constant 1 of every tail vector: dx[0] = 0 keeps it
		// under integration and Project pins it. The kernel reads it in
		// the r = 0 retry terms and the static 0·(s₀−s₁), so a planted NaN
		// or ±Inf there would poison levels the oracles never read s₀ for.
		if !numeric.Finite(x[0]) {
			x[0] = 1
		}
		lockstepUpToZeroSign(t, fmt.Sprintf("%s (trial %d)", m.Name(), trial), x, m.Derivs, ref)
	}
}
