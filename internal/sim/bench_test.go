package sim

import (
	"testing"

	"repro/internal/dist"
)

// benchRun executes one short run of the given options.
func benchRun(b *testing.B, opts Options) {
	b.Helper()
	opts.Horizon = 500
	opts.Warmup = 50
	opts.Seed = 1
	var events int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		events += arrived(res) + res.Metrics.Departures
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

func BenchmarkPolicyNone(b *testing.B) {
	benchRun(b, Options{N: 128, Lambda: 0.9, Service: dist.NewExponential(1), Policy: PolicyNone})
}

func BenchmarkPolicySimpleSteal(b *testing.B) {
	benchRun(b, Options{N: 128, Lambda: 0.9, Service: dist.NewExponential(1), Policy: PolicySteal, T: 2})
}

func BenchmarkPolicyTwoChoices(b *testing.B) {
	benchRun(b, Options{N: 128, Lambda: 0.9, Service: dist.NewExponential(1), Policy: PolicySteal, T: 2, D: 2})
}

func BenchmarkPolicyRetries(b *testing.B) {
	benchRun(b, Options{N: 128, Lambda: 0.9, Service: dist.NewExponential(1), Policy: PolicySteal, T: 2, RetryRate: 4})
}

func BenchmarkPolicyTransfer(b *testing.B) {
	benchRun(b, Options{N: 128, Lambda: 0.9, Service: dist.NewExponential(1), Policy: PolicySteal, T: 4, TransferRate: 0.25})
}

func BenchmarkPolicyRebalance(b *testing.B) {
	benchRun(b, Options{N: 128, Lambda: 0.9, Service: dist.NewExponential(1), Policy: PolicyRebalance, RebalanceRate: 2})
}

func BenchmarkConstantService(b *testing.B) {
	benchRun(b, Options{N: 128, Lambda: 0.9, Service: dist.NewDeterministic(1), Policy: PolicySteal, T: 2})
}

func BenchmarkWithTailSampling(b *testing.B) {
	benchRun(b, Options{N: 128, Lambda: 0.9, Service: dist.NewExponential(1), Policy: PolicySteal, T: 2, TailDepth: 16})
}

func BenchmarkStealHalf(b *testing.B) {
	benchRun(b, Options{N: 128, Lambda: 0.9, Service: dist.NewExponential(1), Policy: PolicySteal, T: 2, Half: true})
}

// BenchmarkRunnerReuse measures the steady-state reuse path the scheduler's
// workers take: the engine is recycled between runs, so this isolates the
// per-event cost from engine construction. Compare against
// BenchmarkPolicySimpleSteal (a fresh engine per run) to see what reuse
// saves; allocs/op here is the number the zero-alloc discipline pins.
func BenchmarkRunnerReuse(b *testing.B) {
	o := Options{N: 128, Lambda: 0.9, Service: dist.NewExponential(1), Policy: PolicySteal, T: 2,
		Horizon: 500, Warmup: 50, Seed: 1}
	if err := (Replication{Reps: 1}).Validate(&o); err != nil {
		b.Fatal(err)
	}
	var r Runner
	r.RunRep(o, 1) // warm
	var events int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events += r.RunRep(o, 1).Metrics.Events
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}
