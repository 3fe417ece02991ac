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

// BenchmarkHotSet solves the serving benchmark's hot set one spec after
// another: every fixed-point model (multisteal at T = 4, which its K = 2
// requires) and every ODE trajectory at λ ∈ {0.5, 0.7, 0.8}, 51 specs in
// all. It is the solve work behind perfbench solve-hot's setup_s, without
// the server, the HTTP path or the two concurrent callers.
func BenchmarkHotSet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, lambda := range []float64{0.5, 0.7, 0.8} {
			for _, model := range FixedPointModels {
				spec := FixedPointSpec{Model: model, Lambda: lambda}
				if model == "multisteal" {
					spec.T = 4
				}
				rep, _, err := spec.Solve()
				if err != nil {
					b.Fatal(err)
				}
				benchReport = rep
			}
			for _, model := range ODEModels {
				spec := ODESpec{Model: model, Lambda: lambda}
				rep, err := spec.Integrate()
				if err != nil {
					b.Fatal(err)
				}
				benchReport = rep
			}
		}
	}
}
