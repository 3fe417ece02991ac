package meanfield

import "fmt"

// Repeated is the kernel of the paper's basic stealing models. A processor
// that completes its final task attempts one steal from a victim chosen
// uniformly at random, succeeding when the victim holds at least T tasks;
// empty processors additionally retry at exponential rate r, as in the WS
// algorithm of Blumofe and Leiserson (§2.5). The limiting system is
//
//	ds₁/dt = λ(s₀−s₁) + r(s₀−s₁)s_T − (s₁−s₂)(1 − s_T)
//	ds_i/dt = λ(s_{i−1}−s_i) − (s_i−s_{i+1}),                      2 ≤ i ≤ T−1
//	ds_i/dt = λ(s_{i−1}−s_i) − (s_i−s_{i+1})
//	          − (s₁−s₂)(s_i−s_{i+1}) − r(s₀−s₁)(s_i−s_{i+1}),      i ≥ T
//
// The (s₁ − s₂) factor is the rate at which thieves appear (processors
// completing their final task); a steal hits a load-i victim with
// probability s_i − s_{i+1}. At r = 0 this is threshold stealing (§2.3,
// equations (4)–(6)), and at T = 2 as well it is simple work stealing
// (§2.2, equations (2)–(3)). As r → ∞ the fraction π_T at the fixed point
// goes to 0: any processor reaching T tasks is immediately robbed.
type Repeated struct {
	tails
	r float64
}

// NewSimpleWS constructs the simple work-stealing model (T = 2, r = 0) at
// arrival rate λ, warm-started from its closed form.
func NewSimpleWS(lambda float64) *Repeated {
	return newRepeated("simple-ws", lambda, 2, 0, simpleWSStart)
}

// NewThreshold constructs the threshold model (r = 0) with arrival rate λ
// and stealing threshold T ≥ 2.
func NewThreshold(lambda float64, t int) *Repeated {
	return newRepeated(fmt.Sprintf("threshold(T=%d)", t), lambda, t, 0, thresholdStart)
}

// NewRepeated constructs the repeated-attempts model with arrival rate λ,
// threshold T ≥ 2 and retry rate r ≥ 0.
func NewRepeated(lambda float64, t int, r float64) *Repeated {
	return newRepeated(fmt.Sprintf("repeated(T=%d,r=%g)", t, r), lambda, t, r, thresholdStart)
}

func newRepeated(name string, lambda float64, t int, r float64, start func(tails) []float64) *Repeated {
	if t < 2 {
		panic(fmt.Sprintf("meanfield: threshold T = %d must be at least 2", t))
	}
	if r < 0 {
		panic("meanfield: Repeated needs r >= 0")
	}
	return &Repeated{newTails(name, lambda, t, start), r}
}

// MaxRate bounds the per-component transition rate, which grows with r.
func (m *Repeated) MaxRate() float64 { return 4 + m.r }

// Derivs implements the system above with boundary s_{dim} = 0.
func (m *Repeated) Derivs(x, dx []float64) {
	lambda := m.lambda
	n := len(x)
	at := func(i int) float64 {
		if i >= n {
			return 0
		}
		return x[i]
	}
	sT := at(m.t)
	emptying := x[1] - x[2] // processors completing their final task
	idle := x[0] - x[1]     // empty processors retrying at rate r
	thieves := emptying + m.r*idle

	dx[0] = 0
	dx[1] = lambda*(x[0]-x[1]) + m.r*idle*sT - emptying*(1-sT)
	for i := 2; i < n; i++ {
		gap := x[i] - at(i+1)
		d := lambda*(x[i-1]-x[i]) - gap
		if i >= m.t {
			d -= gap * thieves
		}
		dx[i] = d
	}
}
