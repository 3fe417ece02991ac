package meanfield

// Lockstep bit-identity tests for the kernels and projections the shared
// tail plumbing serves: the Preemptive, StealHalf and Hetero Derivs, the
// Hetero and RepeatedTransfer projections, and the two-vector observers
// and level sums. Each oracle is a per-level body with its own boundary
// closure and its own running minimum; the models must produce the same
// bits on every kernelState draw (zeros, 1e-30 tails, non-monotone
// vectors, planted NaN and ±Inf). The models are built by their
// constructors and then resized through field assignments, so the tests
// do not depend on how the fields are laid out.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/numeric"
)

func refPreemptiveDerivs(m *Preemptive, x, dx []float64) {
	lambda := m.lambda
	n := len(x)
	at := func(i int) float64 {
		if i >= n {
			return 0
		}
		return x[i]
	}
	dx[0] = 0
	for i := 1; i < n; i++ {
		gap := x[i] - at(i+1)
		d := lambda*(x[i-1]-x[i]) - gap
		switch {
		case i <= m.b+1:
			d += gap * at(i+m.t-1)
		case i >= m.t:
			hi := m.b + 2
			if alt := i - m.t + 2; alt < hi {
				hi = alt
			}
			d -= gap * (x[1] - at(hi))
		}
		dx[i] = d
	}
}

func refStealHalfDerivs(m *StealHalf, x, dx []float64) {
	lambda := m.lambda
	n := len(x)
	at := func(i int) float64 {
		if i >= n {
			return 0
		}
		return x[i]
	}
	sT := at(m.t)
	theta := x[1] - at(2)
	dx[0] = 0
	dx[1] = lambda*(x[0]-x[1]) - theta*(1-sT)
	for i := 2; i < n; i++ {
		dx[i] = lambda*(x[i-1]-x[i]) - (x[i] - at(i+1))
	}
	if theta <= 0 {
		return
	}
	p := core.TailsToPMF(nil, x)
	for j := m.t; j < n; j++ {
		if p[j] <= 0 {
			continue
		}
		rate := theta * p[j]
		if rate < 1e-18 {
			continue
		}
		take := (j + 1) / 2
		keep := j / 2
		for i := keep + 1; i <= j && i < n; i++ {
			dx[i] -= rate
		}
		for i := 2; i <= take && i < n; i++ {
			dx[i] += rate
		}
	}
}

func refHeteroDerivs(m *Hetero, x, dx []float64) {
	l := m.l
	u, v := x[:l], x[l:2*l]
	du, dv := dx[:l], dx[l:2*l]
	at := func(s []float64, i int) float64 {
		if i >= l {
			return 0
		}
		return s[i]
	}
	theta := m.muF*(u[1]-at(u, 2)) + m.muS*(v[1]-at(v, 2))
	succ := at(u, m.t) + at(v, m.t)
	class := func(s, ds []float64, la, mu float64) {
		ds[0] = 0
		ds[1] = la*(s[0]-s[1]) - mu*(s[1]-at(s, 2))*(1-succ)
		for i := 2; i < l; i++ {
			gap := s[i] - at(s, i+1)
			d := la*(s[i-1]-s[i]) - mu*gap
			if i >= m.t {
				d -= theta * gap
			}
			ds[i] = d
		}
	}
	class(u, du, m.lf, m.muF)
	class(v, dv, m.ls, m.muS)
}

// refProjectBelow is the running-minimum projection of one tail vector
// whose head is pinned to head.
func refProjectBelow(s []float64, head float64) {
	s[0] = head
	prev := head
	for i := 1; i < len(s); i++ {
		w := numeric.Clamp(s[i], 0, 1)
		if w > prev {
			w = prev
		}
		s[i] = w
		prev = w
	}
}

func refHeteroProject(m *Hetero, x []float64) {
	refProjectBelow(x[:m.l], m.q)
	refProjectBelow(x[m.l:2*m.l], 1-m.q)
}

func refRepeatedTransferProject(m *RepeatedTransfer, x []float64) {
	s, w := x[:m.l], x[m.l:2*m.l]
	prev := 1.0
	for i := 0; i < m.l; i++ {
		v := numeric.Clamp(w[i], 0, 1)
		if v > prev {
			v = prev
		}
		w[i] = v
		prev = v
	}
	refProjectBelow(s, 1-w[0])
}

// refPairObservers returns the busy fraction a₁ + b₁, the steal success
// a_T + b_T (ok false when T ≥ l) and the level sum Σ_{i≥1}(a_i + b_i) of
// a two-vector state, with w₀ added last when transit is set.
func refPairObservers(x []float64, t, l int, transit bool) (busy, succ float64, ok bool, mean float64) {
	a, b := x[:l], x[l:2*l]
	busy = a[1] + b[1]
	if t < l {
		succ, ok = a[t]+b[t], true
	}
	var sum numeric.KahanSum
	for i := 1; i < l; i++ {
		sum.Add(a[i])
		sum.Add(b[i])
	}
	if transit {
		sum.Add(b[0])
	}
	return busy, succ, ok, sum.Sum()
}

// projectInto adapts an in-place projection to lockstep's kernel shape: it
// projects a copy of x into dx.
func projectInto(project func([]float64)) func(x, dx []float64) {
	return func(x, dx []float64) {
		copy(dx, x)
		project(dx)
	}
}

// sameBits reports whether a and b are the same float64, any NaN matching
// any NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func TestPreemptiveDerivsLockstep(t *testing.T) {
	r := rand.New(rand.NewPCG(8, 17))
	for trial := 0; trial < 4000; trial++ {
		b := r.IntN(3)
		tt := b + 2 + r.IntN(5)
		// From n = 3 up to past B + T + 8, so i + T − 1 and the victim
		// band's s_{min(B+2, i−T+2)} both run off the vector in some draws.
		n := 3 + r.IntN(b+tt+12)
		m := NewPreemptive(0.5, b, tt)
		m.lambda = 0.05 + 0.94*r.Float64()
		m.dim = n
		name := fmt.Sprintf("preemptive(B=%d,T=%d)", b, tt)
		lockstep(t, name, kernelState(r, n), m.Derivs, func(x, dx []float64) { refPreemptiveDerivs(m, x, dx) })
	}
}

func TestStealHalfDerivsLockstep(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 17))
	for trial := 0; trial < 4000; trial++ {
		n := 3 + r.IntN(60)
		tt := nearDim(r, n)
		m := NewStealHalf(0.5, 2)
		m.lambda, m.t, m.dim = 0.05+0.94*r.Float64(), tt, n
		name := fmt.Sprintf("stealhalf(T=%d)", tt)
		lockstep(t, name, kernelState(r, n), m.Derivs, func(x, dx []float64) { refStealHalfDerivs(m, x, dx) })
	}
}

// randomHetero builds a Hetero with per-vector length l and threshold tt
// whose class parameters are drawn at random; half the draws make the
// "fast" class the slower one, so both class orders occur.
func randomHetero(r *rand.Rand, l, tt int) *Hetero {
	m := NewHetero(0.5, 0.5, 0.5, 1, 1, 2)
	m.q = 0.05 + 0.9*r.Float64()
	m.lf, m.ls = 1.5*r.Float64(), 1.5*r.Float64()
	m.muF, m.muS = 0.5+2*r.Float64(), 0.1+0.5*r.Float64()
	if r.IntN(2) == 0 {
		m.muF, m.muS = m.muS, m.muF
		m.lf, m.ls = m.ls, m.lf
	}
	m.lambda = m.q*m.lf + (1-m.q)*m.ls
	m.t, m.l, m.dim = tt, l, 2*l
	return m
}

func TestHeteroDerivsLockstep(t *testing.T) {
	r := rand.New(rand.NewPCG(10, 17))
	for trial := 0; trial < 4000; trial++ {
		l := 3 + r.IntN(50)
		m := randomHetero(r, l, nearDim(r, l))
		name := fmt.Sprintf("hetero(l=%d,T=%d,q=%.3g,μf=%.3g,μs=%.3g)", l, m.t, m.q, m.muF, m.muS)
		x := append(kernelState(r, l), kernelState(r, l)...)
		lockstep(t, name, x, m.Derivs, func(x, dx []float64) { refHeteroDerivs(m, x, dx) })
	}
}

func TestHeteroProjectLockstep(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 17))
	for trial := 0; trial < 4000; trial++ {
		l := 2 + r.IntN(50)
		m := randomHetero(r, l, 2)
		name := fmt.Sprintf("hetero(l=%d,q=%.3g)", l, m.q)
		x := append(kernelState(r, l), kernelState(r, l)...)
		lockstep(t, name, x, projectInto(m.Project), projectInto(func(x []float64) { refHeteroProject(m, x) }))
	}
}

func TestRepeatedTransferProjectLockstep(t *testing.T) {
	r := rand.New(rand.NewPCG(12, 17))
	for trial := 0; trial < 4000; trial++ {
		l := 2 + r.IntN(50)
		m := NewRepeatedTransfer(0.5, 2, 1, 0.5)
		m.l, m.dim = l, 2*l
		x := append(kernelState(r, l), kernelState(r, l)...)
		if r.IntN(4) == 0 {
			// A head w₀ outside [0, 1], which the projection clamps.
			x[l] = []float64{-0.3, 1.4, math.NaN(), math.Inf(1)}[r.IntN(4)]
		}
		name := fmt.Sprintf("repeated-transfer(l=%d)", l)
		lockstep(t, name, x, projectInto(m.Project), projectInto(func(x []float64) { refRepeatedTransferProject(m, x) }))
	}
}

// TestPairObserversLockstep checks BusyFraction, StealSuccessProb and
// MeanTasks of both two-vector models, and Hetero's per-class means,
// against per-level sums, with T sometimes at or past the vector length.
func TestPairObserversLockstep(t *testing.T) {
	r := rand.New(rand.NewPCG(13, 17))
	for trial := 0; trial < 4000; trial++ {
		l := 3 + r.IntN(40)
		tt := nearDim(r, l)
		x := append(kernelState(r, l), kernelState(r, l)...)
		h := randomHetero(r, l, tt)
		rt := NewRepeatedTransfer(0.5, 2, 1, 0.5)
		rt.t, rt.l, rt.dim = tt, l, 2*l
		for _, c := range []struct {
			name string
			m    interface {
				core.Model
				core.Observer
			}
			transit bool
		}{{"hetero", h, false}, {"repeated-transfer", rt, true}} {
			busy, succ, ok, mean := refPairObservers(x, tt, l, c.transit)
			gotSucc, gotOK := c.m.StealSuccessProb(x)
			if g := c.m.BusyFraction(x); !sameBits(g, busy) {
				t.Fatalf("%s l=%d: BusyFraction = %v, reference %v", c.name, l, g, busy)
			}
			if gotOK != ok || !sameBits(gotSucc, succ) {
				t.Fatalf("%s l=%d T=%d: StealSuccessProb = %v, %v, reference %v, %v", c.name, l, tt, gotSucc, gotOK, succ, ok)
			}
			if g := c.m.MeanTasks(x); !sameBits(g, mean) {
				t.Fatalf("%s l=%d: MeanTasks = %v, reference %v", c.name, l, g, mean)
			}
		}
		var fu, fv numeric.KahanSum
		for i := 1; i < l; i++ {
			fu.Add(x[i])
			fv.Add(x[l+i])
		}
		fast, slow := h.ClassMeanTasks(x)
		if !sameBits(fast, fu.Sum()/h.q) || !sameBits(slow, fv.Sum()/(1-h.q)) {
			t.Fatalf("hetero l=%d: ClassMeanTasks = %v, %v, reference %v, %v", l, fast, slow, fu.Sum()/h.q, fv.Sum()/(1-h.q))
		}
	}
}
