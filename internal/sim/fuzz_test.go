package sim

import (
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/rng"
)

// TestFuzzConfigurations drives the engine through randomized valid
// configurations and checks the structural invariants that must hold for
// every policy combination: conservation of tasks, sane counters, and
// termination. Any panic or violated invariant fails the test.
func TestFuzzConfigurations(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		o := Options{
			N:       2 + r.Intn(24),
			Lambda:  0.2 + 0.7*r.Float64(),
			Service: dist.NewExponential(1),
			Policy:  PolicySteal,
			T:       2 + r.Intn(5),
			Warmup:  10,
			Horizon: 150,
			Seed:    seed,
		}
		switch r.Intn(6) {
		case 0:
			// plain threshold
		case 1:
			o.D = 1 + r.Intn(3)
		case 2:
			o.RetryRate = r.Float64() * 8
		case 3:
			o.TransferRate = 0.2 + r.Float64()*4
		case 4:
			o.K = 1 + r.Intn(2)
			o.T = 2*o.K + r.Intn(3)
		case 5:
			o.Half = true
		}
		if r.Intn(4) == 0 {
			o.B = r.Intn(2)
			o.T += o.B + 2 // keep thief/victim bands apart
		}
		if r.Intn(4) == 0 {
			o.LambdaInt = r.Float64() * 0.3
		}
		if r.Intn(3) == 0 {
			o.TailDepth = 1 + r.Intn(8)
		}
		if r.Intn(3) == 0 {
			o.QueueHistDepth = 1 + r.Intn(10)
		}
		switch r.Intn(4) {
		case 0:
			o.Service = dist.NewDeterministic(1)
		case 1:
			o.Service = dist.ErlangWithMean(1+r.Intn(6), 1)
		case 2:
			o.Service = dist.NewUniform(0.5, 1.5)
		}

		res, err := Run(o)
		if err != nil {
			t.Logf("seed %d: unexpected validation error: %v (%+v)", seed, err, o)
			return false
		}
		if res.Metrics.Departures > arrived(res) {
			t.Logf("seed %d: completed %d > arrived %d", seed, res.Metrics.Departures, arrived(res))
			return false
		}
		if res.Metrics.StealSuccesses > res.Metrics.StealAttempts {
			t.Logf("seed %d: successes %d > attempts %d", seed, res.Metrics.StealSuccesses, res.Metrics.StealAttempts)
			return false
		}
		if res.MeanLoad < 0 || res.MeanSojourn < 0 {
			t.Logf("seed %d: negative statistics %+v", seed, res)
			return false
		}
		if res.End > o.Horizon+1e-9 {
			t.Logf("seed %d: ran past horizon: %v", seed, res.End)
			return false
		}
		for i, v := range res.Tails {
			if v < 0 || v > 1 || (i > 0 && v > res.Tails[i-1]+1e-12) {
				t.Logf("seed %d: malformed tails %v", seed, res.Tails)
				return false
			}
		}
		m := res.Metrics
		if m.StealAttempts != m.StealSuccesses+m.StealFailEmpty+m.StealFailThreshold {
			t.Logf("seed %d: steal counter identity broken: %+v", seed, m.Counters)
			return false
		}
		for _, c := range []int64{m.Arrivals, m.Spawns, m.Departures,
			m.StealAttempts, m.StealSuccesses, m.StealFailEmpty, m.StealFailThreshold,
			m.Retries, m.RetriesStale, m.TransfersStarted, m.TransfersCompleted,
			m.Rebalances, m.RebalanceMoves, m.Events, m.TransfersInFlight} {
			if c < 0 {
				t.Logf("seed %d: negative counter in %+v", seed, m.Counters)
				return false
			}
		}
		if m.Utilization < 0 || m.Utilization > 1 {
			t.Logf("seed %d: utilization %v out of [0,1]", seed, m.Utilization)
			return false
		}
		if o.QueueHistDepth > 0 {
			if len(m.QueueHist) != o.QueueHistDepth {
				t.Logf("seed %d: hist depth %d, want %d", seed, len(m.QueueHist), o.QueueHistDepth)
				return false
			}
			for _, v := range m.QueueHist {
				if v < 0 || v > 1 {
					t.Logf("seed %d: malformed queue hist %v", seed, m.QueueHist)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFuzzStaticConfigurations fuzzes draining systems: they must actually
// drain and complete exactly the initial task count.
func TestFuzzStaticConfigurations(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(24)
		k := 1 + r.Intn(6)
		o := Options{
			N:           n,
			Service:     dist.NewExponential(1),
			Policy:      PolicySteal,
			T:           2,
			RetryRate:   r.Float64() * 5,
			InitialLoad: k,
			Horizon:     10_000,
			Seed:        seed,
		}
		res, err := Run(o)
		if err != nil {
			return false
		}
		return res.DrainTime > 0 && res.Metrics.Departures == int64(n*k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
