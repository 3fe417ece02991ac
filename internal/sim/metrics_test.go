package sim

// Tests of the metrics layer: the observable quantities the engine
// accumulates must match what the paper's mean-field fixed point predicts
// for them, and the counter identities must hold exactly for any run.

import (
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/meanfield"
	"repro/internal/numeric"
)

// TestMetricsUtilizationMatchesLambda checks the acceptance criterion of
// the metrics layer: at a stable fixed point the busy fraction s₁ equals
// λ, so the measured utilization of a 64-processor run must land within
// 2% of the arrival rate.
func TestMetricsUtilizationMatchesLambda(t *testing.T) {
	for _, lambda := range []float64{0.7, 0.9} {
		agg, err := Replication{Reps: 4}.Run(Options{
			N:       64,
			Lambda:  lambda,
			Service: dist.NewExponential(1),
			Policy:  PolicySteal,
			T:       2,
			Horizon: 20000,
			Warmup:  2000,
			Seed:    7,
		})
		if err != nil {
			t.Fatal(err)
		}
		m := agg.Metrics
		if got := m.Utilization.Mean; numeric.RelErr(got, lambda) > 0.02 {
			t.Errorf("λ=%.1f: utilization %.4f, want within 2%% of λ", lambda, got)
		}
		if got := m.Throughput.Mean; numeric.RelErr(got, lambda) > 0.02 {
			t.Errorf("λ=%.1f: throughput %.4f, want within 2%% of λ", lambda, got)
		}
	}
}

// TestMetricsStealSuccessMatchesMeanField compares the measured steal
// success fraction against the victim-tail probability s_T of the
// mean-field fixed point — the paper's interpretation of the steal term.
func TestMetricsStealSuccessMatchesMeanField(t *testing.T) {
	const lambda, T = 0.9, 2
	agg, err := Replication{Reps: 4}.Run(Options{
		N:       64,
		Lambda:  lambda,
		Service: dist.NewExponential(1),
		Policy:  PolicySteal,
		T:       T,
		Horizon: 20000,
		Warmup:  2000,
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	fp := meanfield.MustSolve(meanfield.NewSimpleWS(lambda), meanfield.SolveOptions{})
	got, want := agg.Metrics.StealSuccessRate.Mean, fp.State[T]
	if numeric.RelErr(got, want) > 0.05 {
		t.Errorf("steal success rate %.4f vs mean-field s_%d = %.4f", got, T, want)
	}
}

// TestMetricsCounterIdentities checks the exact relations between the
// counters of a single run, including the sampled queue histogram.
func TestMetricsCounterIdentities(t *testing.T) {
	res, err := Run(Options{
		N:              32,
		Lambda:         0.85,
		Service:        dist.NewExponential(1),
		Policy:         PolicySteal,
		T:              4,
		TransferRate:   0.5,
		RetryRate:      1,
		Horizon:        3000,
		Warmup:         300,
		Seed:           11,
		QueueHistDepth: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.StealAttempts != m.StealSuccesses+m.StealFailEmpty+m.StealFailThreshold {
		t.Errorf("attempts %d != successes %d + fail_empty %d + fail_threshold %d",
			m.StealAttempts, m.StealSuccesses, m.StealFailEmpty, m.StealFailThreshold)
	}
	if got := m.TransfersStarted - m.TransfersCompleted; got != m.TransfersInFlight || got < 0 {
		t.Errorf("transfers in flight %d (started %d, completed %d)",
			m.TransfersInFlight, m.TransfersStarted, m.TransfersCompleted)
	}
	if m.Utilization < 0 || m.Utilization > 1 {
		t.Errorf("utilization %v out of [0,1]", m.Utilization)
	}
	if len(m.QueueHist) != 8 || m.QueueHistSamples <= 0 {
		t.Fatalf("queue histogram not sampled: %v (%d samples)", m.QueueHist, m.QueueHistSamples)
	}
	sum := 0.0
	for i, v := range m.QueueHist {
		if v < 0 || v > 1 {
			t.Errorf("hist[%d] = %v out of [0,1]", i, v)
		}
		sum += v
	}
	if sum < 1-1e-9 || sum > 1+1e-9 {
		t.Errorf("histogram sums to %v, want 1", sum)
	}
	if len(m.PerProc) != 32 {
		t.Fatalf("per-proc metrics: got %d entries, want 32", len(m.PerProc))
	}
	var attempts, successes int64
	for i, p := range m.PerProc {
		if p.StealSuccesses > p.StealAttempts {
			t.Errorf("proc %d: successes %d > attempts %d", i, p.StealSuccesses, p.StealAttempts)
		}
		if p.Utilization < 0 || p.Utilization > 1+1e-12 {
			t.Errorf("proc %d: utilization %v out of [0,1]", i, p.Utilization)
		}
		attempts += p.StealAttempts
		successes += p.StealSuccesses
	}
	if attempts != m.StealAttempts || successes != m.StealSuccesses {
		t.Errorf("per-proc totals (%d, %d) != global counters (%d, %d)",
			attempts, successes, m.StealAttempts, m.StealSuccesses)
	}
}

// TestReplicationRepsError locks in the contract that an invalid
// replication count is reported as an error rather than a panic or a
// silent clamp to one replication.
func TestReplicationRepsError(t *testing.T) {
	opts := Options{
		N:       2,
		Lambda:  0.5,
		Service: dist.NewExponential(1),
		Policy:  PolicyNone,
		Horizon: 10,
		Seed:    1,
	}
	for _, reps := range []int{0, -3} {
		_, err := Replication{Reps: reps}.Run(opts)
		if err == nil {
			t.Fatalf("Reps=%d: expected an error, got none", reps)
		}
		if !strings.Contains(err.Error(), "Reps") {
			t.Errorf("Reps=%d: error %q does not mention Reps", reps, err)
		}
	}
}
