package experiments

import "testing"

// The three most expensive mean-field solves of the serving hot set, at its
// λ = 0.8 and default parameters, through the same spec path a request
// takes.

var benchReport any

func benchSolve(b *testing.B, model string) {
	for i := 0; i < b.N; i++ {
		spec := FixedPointSpec{Model: model, Lambda: 0.8}
		rep, _, err := spec.Solve()
		if err != nil {
			b.Fatal(err)
		}
		benchReport = rep
	}
}

// BenchmarkSolveStages is one Erlang-stage fixed point (c = 10, T = 2).
func BenchmarkSolveStages(b *testing.B) { benchSolve(b, "stages") }

// BenchmarkSolveRebalance is one pairwise-rebalancing fixed point (r = 1).
func BenchmarkSolveRebalance(b *testing.B) { benchSolve(b, "rebalance") }

// BenchmarkODEChoices is one d-choices trajectory (d = 2, T = 2).
func BenchmarkODEChoices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec := ODESpec{Model: "choices", Lambda: 0.8}
		rep, err := spec.Integrate()
		if err != nil {
			b.Fatal(err)
		}
		benchReport = rep
	}
}
