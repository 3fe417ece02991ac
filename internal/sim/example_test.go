package sim_test

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/sim"
)

// Run one 32-processor work-stealing simulation and report whether stealing
// beat the no-stealing baseline (deterministic given the seed).
func ExampleRun() {
	base := sim.Options{
		N:       32,
		Lambda:  0.9,
		Service: dist.NewExponential(1),
		Policy:  sim.PolicyNone,
		Warmup:  1000,
		Horizon: 10000,
		Seed:    7,
	}
	none, err := sim.Run(base)
	if err != nil {
		panic(err)
	}
	base.Policy = sim.PolicySteal
	base.T = 2
	steal, err := sim.Run(base)
	if err != nil {
		panic(err)
	}
	fmt.Printf("stealing beats none: %v\n", steal.MeanSojourn < none.MeanSojourn)
	fmt.Printf("some steals succeeded: %v\n", steal.Metrics.StealSuccesses > 0)
	// Output:
	// stealing beats none: true
	// some steals succeeded: true
}

// Replications run in parallel on independent random streams and aggregate
// into a mean with a 95% confidence interval.
func ExampleReplication_Run() {
	agg, err := sim.Replication{Reps: 5}.Run(sim.Options{
		N:       16,
		Lambda:  0.5,
		Service: dist.NewExponential(1),
		Policy:  sim.PolicySteal,
		T:       2,
		Warmup:  500,
		Horizon: 5000,
		Seed:    1,
	})
	if err != nil {
		panic(err)
	}
	// The n → ∞ prediction at λ = 0.5 is the golden ratio 1.618; a
	// 16-processor system lands within a few percent.
	fmt.Printf("replications: %d\n", agg.Sojourn.N)
	fmt.Printf("close to 1.618: %v\n", agg.Sojourn.Mean > 1.55 && agg.Sojourn.Mean < 1.70)
	// Output:
	// replications: 5
	// close to 1.618: true
}

// A static system: every processor starts with 6 tasks, no arrivals; the
// run ends when the last task completes.
func ExampleRun_staticDrain() {
	res, err := sim.Run(sim.Options{
		N:           64,
		Service:     dist.NewExponential(1),
		Policy:      sim.PolicySteal,
		T:           2,
		RetryRate:   10,
		InitialLoad: 6,
		Horizon:     1000,
		Seed:        2,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("drained: %v\n", res.DrainTime > 0)
	fmt.Printf("all tasks done: %v\n", res.Metrics.Departures == 64*6)
	// Output:
	// drained: true
	// all tasks done: true
}
