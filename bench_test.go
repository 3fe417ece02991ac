// Package repro's root benchmark harness regenerates the paper's evaluation
// artifacts under `go test -bench`. There is one benchmark per table in the
// paper (Tables 1–4) plus one per extension study, all running at a reduced
// scale so a full -bench=. pass stays in the minutes range; the cmd/wstables
// binary produces the same tables at the paper's full scale.
package repro

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/meanfield"
	"repro/internal/sim"
)

// benchScale trades statistical precision for speed: the table shapes
// (who wins, crossover locations) are preserved.
var benchScale = experiments.Scale{
	Reps:    2,
	Horizon: 2_000,
	Warmup:  200,
	Ns:      []int{16, 64},
	Lambdas: []float64{0.50, 0.90},
	Seed:    1998,
}

// BenchmarkTable1 regenerates Table 1 (simplest WS model, sims vs
// fixed-point estimate).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table1(benchScale)
		if t.NumRows() == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (constant service times vs Erlang
// stage estimates).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table2(benchScale)
		if t.NumRows() == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable3 regenerates Table 3 (transfer times, threshold choice).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table3(benchScale)
		if t.NumRows() == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable4 regenerates Table 4 (one vs two victim choices).
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table4(benchScale)
		if t.NumRows() == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTailDecay regenerates the X1 tail-ratio study.
func BenchmarkTailDecay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.TailDecay(0.9)
	}
}

// BenchmarkThresholdSweep regenerates the X2 threshold ablation.
func BenchmarkThresholdSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ThresholdSweep(0.9, []int{2, 3, 4, 5, 6})
	}
}

// BenchmarkRepeatedSweep regenerates the X3 retry-rate ablation.
func BenchmarkRepeatedSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RepeatedSweep(0.9, 2, []float64{0, 1, 4, 16})
	}
}

// BenchmarkMultiStealSweep regenerates the X4 steal-size ablation.
func BenchmarkMultiStealSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.MultiStealSweep(0.9, 8)
	}
}

// BenchmarkPreemptiveSweep regenerates the X9 steal-begin-level ablation.
func BenchmarkPreemptiveSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.PreemptiveSweep(0.9, []int{0, 1, 2}, 4)
	}
}

// BenchmarkRebalanceStudy regenerates the X5 rebalancing comparison.
func BenchmarkRebalanceStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RebalanceStudy(0.8, []float64{1, 4}, benchScale)
	}
}

// BenchmarkHeteroStudy regenerates the X6 two-class comparison.
func BenchmarkHeteroStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.HeteroStudy(benchScale)
	}
}

// BenchmarkStaticDrain regenerates the X7 drain-time comparison.
func BenchmarkStaticDrain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.StaticDrain(4, benchScale)
	}
}

// BenchmarkStabilityStudy regenerates the X8 Theorem-1 verification.
func BenchmarkStabilityStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.StabilityStudy([]float64{0.5, 0.9})
	}
}

// --- component benchmarks ---------------------------------------------------

// BenchmarkFixedPointSimpleWS measures one Anderson-accelerated fixed-point
// solve of the basic model at high load.
func BenchmarkFixedPointSimpleWS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		meanfield.MustSolve(meanfield.NewSimpleWS(0.95), meanfield.SolveOptions{})
	}
}

// BenchmarkFixedPointTransfer measures the two-vector transfer model solve.
func BenchmarkFixedPointTransfer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		meanfield.MustSolve(meanfield.NewTransfer(0.9, 4, 0.25), meanfield.SolveOptions{})
	}
}

// BenchmarkFixedPointStages measures the Erlang-stage model solve (c = 10).
func BenchmarkFixedPointStages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		meanfield.MustSolve(meanfield.NewStages(0.9, 10, 2), meanfield.SolveOptions{})
	}
}

// BenchmarkSimulatorThroughput measures raw event throughput of the
// discrete-event engine (reported as ns per simulated event).
func BenchmarkSimulatorThroughput(b *testing.B) {
	opts := sim.Options{
		N:       128,
		Lambda:  0.9,
		Service: dist.NewExponential(1),
		Policy:  sim.PolicySteal,
		T:       2,
		Warmup:  0,
		Horizon: 1_000,
		Seed:    1,
	}
	var events int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Metrics.Arrivals + res.Metrics.Spawns + res.Metrics.Departures
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// BenchmarkParallelReplications measures the scaling of the replication
// runner across GOMAXPROCS workers.
func BenchmarkParallelReplications(b *testing.B) {
	opts := sim.Options{
		N:       64,
		Lambda:  0.9,
		Service: dist.NewExponential(1),
		Policy:  sim.PolicySteal,
		T:       2,
		Warmup:  100,
		Horizon: 1_000,
		Seed:    1,
	}
	for i := 0; i < b.N; i++ {
		if _, err := (sim.Replication{Reps: 8}).Run(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvergenceInN regenerates the X10 bias-vs-n study.
func BenchmarkConvergenceInN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ConvergenceInN(0.9, []int{8, 32}, benchScale)
	}
}

// BenchmarkTransient regenerates the X11 trajectory comparison.
func BenchmarkTransient(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.TransientTable(0.9, 128, 40, 2, 2, 1)
	}
}

// BenchmarkEmpiricalTails regenerates the X12 tail comparison.
func BenchmarkEmpiricalTails(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.EmpiricalTails(0.9, 10, benchScale)
	}
}

// BenchmarkTailLatency regenerates the X16 sojourn-quantile study.
func BenchmarkTailLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.TailLatency(0.9, benchScale)
	}
}
