package meanfield

// NoSteal is the baseline system without work stealing (§2.2, equation (1)):
//
//	ds_i/dt = λ(s_{i−1} − s_i) − (s_i − s_{i+1})
//
// Each processor is an independent M/M/1 queue; the fixed point is
// π_i = λ^i and the expected time in system is 1/(1−λ).
type NoSteal struct {
	tails
}

// NewNoSteal constructs the no-stealing baseline at arrival rate λ.
func NewNoSteal(lambda float64) *NoSteal {
	return &NoSteal{newTails("nosteal", lambda, 0, geometricStart)}
}

// Derivs implements equation (1). Boundary convention: s_{dim} = 0.
func (m *NoSteal) Derivs(x, dx []float64) {
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
}
