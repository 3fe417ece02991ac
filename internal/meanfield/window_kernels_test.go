package meanfield

// Lockstep bit-identity tests for the window-loop fast paths of the
// Repeated, RepeatedTransfer and MultiSteal kernels (Choices is checked by
// TestChoicesDerivsLockstep). Each oracle below is the kernel's former
// Derivs body, every level through the bounds-checked accessor and the
// per-level band test; the fast kernels must produce the same bits on
// every kernelState draw (zeros, 1e-30 tails, non-monotone vectors,
// planted NaN and ±Inf), with thresholds placed so that each window is
// sometimes empty.

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

func refRepeatedDerivs(m *Repeated, x, dx []float64) {
	lam1, lamBusy := m.lam1, m.lamBusy
	n := len(x)
	at := func(i int) float64 {
		if i >= n {
			return 0
		}
		return x[i]
	}
	sT := at(m.t)
	emptying := x[1] - x[2]
	idle := x[0] - x[1]
	thieves := emptying + m.r*idle

	dx[0] = 0
	dx[1] = lam1*(x[0]-x[1]) + m.r*idle*sT - emptying*(1-sT)
	for i := 2; i < n; i++ {
		gap := x[i] - at(i+1)
		d := lamBusy*(x[i-1]-x[i]) - gap
		if i >= m.t {
			d -= gap * thieves
		}
		dx[i] = d
	}
}

func refRepeatedTransferDerivs(m *RepeatedTransfer, x, dx []float64) {
	lambda, ra, rt := m.lambda, m.ra, m.rt
	s, w := m.Split(x)
	ds, dw := m.Split(dx)
	l := m.l
	at := func(v []float64, i int) float64 {
		if i >= l {
			return 0
		}
		return v[i]
	}
	theta := (s[1] - at(s, 2)) + ra*(s[0]-s[1])
	succ := at(s, m.t) + at(w, m.t)

	ds[0] = rt*w[0] - theta*succ
	ds[1] = lambda*(s[0]-s[1]) + rt*w[0] - (s[1] - at(s, 2))
	for i := 2; i < l; i++ {
		gap := s[i] - at(s, i+1)
		d := lambda*(s[i-1]-s[i]) + rt*w[i-1] - gap
		if i >= m.t {
			d -= gap * theta
		}
		ds[i] = d
	}
	dw[0] = -rt*w[0] + theta*succ
	for i := 1; i < l; i++ {
		gap := w[i] - at(w, i+1)
		d := lambda*(w[i-1]-w[i]) - rt*w[i] - gap
		if i >= m.t {
			d -= gap * theta
		}
		dw[i] = d
	}
}

func refMultiStealDerivs(m *MultiSteal, x, dx []float64) {
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
	dx[1] = lambda*(x[0]-x[1]) - (x[1]-x[2])*(1-sT)
	for i := 2; i < n; i++ {
		d := lambda*(x[i-1]-x[i]) - (x[i] - at(i+1))
		switch {
		case i <= m.k:
			d += theta * sT
		case i <= m.t-m.k:
		case i <= m.t:
			d -= theta * (sT - at(i+m.k))
		default:
			d -= theta * (x[i] - at(i+m.k))
		}
		dx[i] = d
	}
}

// nearDim draws a threshold T ≥ 2 for a vector of length n: usually small,
// otherwise within two levels of n (either side), so that the no-steal
// band covers every level, the steal window is empty, or both are short.
func nearDim(r *rand.Rand, n int) int {
	if r.IntN(3) == 0 {
		return max(n-2+r.IntN(5), 2)
	}
	return 2 + r.IntN(6)
}

func TestRepeatedDerivsWindowLockstep(t *testing.T) {
	r := rand.New(rand.NewPCG(4, 17))
	for trial := 0; trial < 5000; trial++ {
		n := 3 + r.IntN(60)
		lam := 0.05 + 0.94*r.Float64()
		m := &Repeated{tails: tails{base: base{lambda: lam}, t: nearDim(r, n)}, lam1: lam, lamBusy: lam}
		kind := []string{"threshold", "repeated", "nosteal", "spawning", "static"}[r.IntN(5)]
		switch kind {
		case "repeated":
			m.r = []float64{0.25, 1, 7}[r.IntN(3)]
		case "nosteal":
			m.t = n
		case "spawning":
			m.lamBusy = lam + 0.9*r.Float64()*(1-lam)
		case "static":
			m.lam1 = 0
		}
		name := fmt.Sprintf("%s(T=%d,r=%g)", kind, m.t, m.r)
		lockstep(t, name, kernelState(r, n), m.Derivs, func(x, dx []float64) { refRepeatedDerivs(m, x, dx) })
	}
}

func TestRepeatedTransferDerivsWindowLockstep(t *testing.T) {
	r := rand.New(rand.NewPCG(6, 17))
	for trial := 0; trial < 4000; trial++ {
		l := 3 + r.IntN(50)
		tt := 2 + r.IntN(5)
		switch r.IntN(4) {
		case 0:
			tt = 2
		case 1:
			tt = max(l-1, 2)
		}
		ra := 0.0
		if r.IntN(2) == 0 {
			ra = []float64{0.25, 1, 7}[r.IntN(3)]
		}
		rt := []float64{0.1, 0.5, 2}[r.IntN(3)]
		m := &RepeatedTransfer{pair: newPair("", 0.05+0.94*r.Float64(), tt, l), ra: ra, rt: rt}
		name := fmt.Sprintf("repeated-transfer(l=%d,T=%d,ra=%g,rt=%g)", l, tt, ra, rt)
		x := append(kernelState(r, l), kernelState(r, l)...)
		lockstep(t, name, x, m.Derivs, func(x, dx []float64) { refRepeatedTransferDerivs(m, x, dx) })
	}
}

func TestMultiStealDerivsWindowLockstep(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 17))
	for trial := 0; trial < 4000; trial++ {
		tt := 2 + r.IntN(9)
		k := 1 + r.IntN(tt/2)
		// From n = 3 up to well past T + k + 1, so the window T+1 ≤ i < n−k
		// is empty (n ≤ T + k + 1) in 9% to 40% of the draws, growing with T + k.
		n := 3 + r.IntN(tt+k+20)
		m := &MultiSteal{tails: tails{base: base{lambda: 0.05 + 0.94*r.Float64()}, t: tt}, k: k}
		name := fmt.Sprintf("multisteal(T=%d,k=%d)", tt, k)
		lockstep(t, name, kernelState(r, n), m.Derivs, func(x, dx []float64) { refMultiStealDerivs(m, x, dx) })
	}
}
