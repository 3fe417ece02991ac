package sim

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/meanfield"
	"repro/internal/numeric"
)

// arrived is a run's task inflow: external arrivals plus spawns.
func arrived(r Result) int64 { return r.Metrics.Arrivals + r.Metrics.Spawns }

// base options for a quick dynamic run.
func quickOpts(n int, lambda float64) Options {
	return Options{
		N:       n,
		Lambda:  lambda,
		Service: dist.NewExponential(1),
		Policy:  PolicyNone,
		Warmup:  500,
		Horizon: 5000,
		Seed:    1,
	}
}

func TestValidate(t *testing.T) {
	bad := []Options{
		{},
		{N: 1, Lambda: 0.5, Horizon: 1}, // no service
		{N: 4, Lambda: 0.5, Service: dist.NewExponential(1)}, // no horizon
		{N: 4, Lambda: -1, Service: dist.NewExponential(1), Horizon: 1},
		{N: 4, Service: dist.NewExponential(1), Horizon: 1}, // nothing to do
		{N: 4, Lambda: 0.5, Service: dist.NewExponential(1), Horizon: 1, Warmup: 2},
		{N: 1, Lambda: 0.5, Service: dist.NewExponential(1), Horizon: 1, Policy: PolicySteal, T: 2, D: 1, K: 1},
		{N: 4, Lambda: 0.5, Service: dist.NewExponential(1), Horizon: 1, Policy: PolicySteal, T: 1, D: 1, K: 1},
		{N: 4, Lambda: 0.5, Service: dist.NewExponential(1), Horizon: 1, Policy: PolicySteal, T: 3, D: 1, K: 2}, // T < 2K
		{N: 4, Lambda: 0.5, Service: dist.NewExponential(1), Horizon: 1, Policy: PolicySteal, T: 4, D: 1, K: 2, TransferRate: 1},
		{N: 4, Lambda: 0.5, Service: dist.NewExponential(1), Horizon: 1, Policy: PolicyRebalance},
		{N: 4, Lambda: 0.5, Service: dist.NewExponential(1), Horizon: 1, Classes: []Class{{Frac: 0.5, Rate: 1}}},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d should fail validation: %+v", i, o)
		}
	}
	good := quickOpts(4, 0.5)
	if err := good.Validate(); err != nil {
		t.Errorf("good options rejected: %v", err)
	}
}

func TestMM1SojournTime(t *testing.T) {
	// Without stealing every processor is an independent M/M/1 queue:
	// E[T] = 1/(1−λ).
	o := quickOpts(16, 0.6)
	o.Horizon = 20000
	o.Warmup = 2000
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / (1 - 0.6)
	if numeric.RelErr(res.MeanSojourn, want) > 0.05 {
		t.Errorf("M/M/1 sojourn = %v, want %v ± 5%%", res.MeanSojourn, want)
	}
}

func TestLittlesLawHolds(t *testing.T) {
	// Time-averaged load must equal λ · E[sojourn] (Little's law).
	o := quickOpts(16, 0.7)
	o.Policy = PolicySteal
	o.T = 2
	o.Horizon = 20000
	o.Warmup = 2000
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	little := o.Lambda * res.MeanSojourn
	if numeric.RelErr(res.MeanLoad, little) > 0.05 {
		t.Errorf("Little's law violated: load %v vs λ·E[T] = %v", res.MeanLoad, little)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	o := quickOpts(8, 0.8)
	o.Policy = PolicySteal
	o.T = 2
	a, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(a, b) {
		t.Errorf("same seed, different results:\n%+v\n%+v", a, b)
	}
	o.Seed = 2
	c, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanSojourn == c.MeanSojourn && arrived(a) == arrived(c) {
		t.Error("different seeds produced identical results")
	}
}

func TestTaskConservation(t *testing.T) {
	// Completed + still-in-system = arrived (+ initial).
	o := quickOpts(8, 0.9)
	o.Policy = PolicySteal
	o.T = 2
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Departures > arrived(res) {
		t.Errorf("completed %d > arrived %d", res.Metrics.Departures, arrived(res))
	}
	// Loose sanity: in 5000 time units at λ=0.9 with 8 procs expect ~36000
	// arrivals.
	want := 0.9 * 8 * o.Horizon
	if math.Abs(float64(arrived(res))-want)/want > 0.05 {
		t.Errorf("arrivals %d far from expected %v", arrived(res), want)
	}
}

func TestStealingReducesSojourn(t *testing.T) {
	o := quickOpts(32, 0.9)
	o.Horizon = 20000
	o.Warmup = 2000
	none, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Policy = PolicySteal
	o.T = 2
	steal, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if steal.MeanSojourn >= none.MeanSojourn {
		t.Errorf("stealing (%v) no better than none (%v)", steal.MeanSojourn, none.MeanSojourn)
	}
	if steal.Metrics.StealSuccesses == 0 || steal.Metrics.StealAttempts < steal.Metrics.StealSuccesses {
		t.Errorf("steal counters wrong: %d/%d", steal.Metrics.StealSuccesses, steal.Metrics.StealAttempts)
	}
}

func TestSimMatchesMeanFieldSimpleWS(t *testing.T) {
	// Table 1's premise: the fixed-point estimate predicts the finite-n
	// simulation. At n = 64, λ = 0.7 the paper sees a ~0.6% gap.
	o := quickOpts(64, 0.7)
	o.Policy = PolicySteal
	o.T = 2
	o.Horizon = 20000
	o.Warmup = 2000
	agg, err := Replication{Reps: 4}.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	want := meanfield.SolveSimpleWS(0.7).SojournTime()
	if numeric.RelErr(agg.Sojourn.Mean, want) > 0.05 {
		t.Errorf("sim %v vs mean-field %v", agg.Sojourn.Mean, want)
	}
}

func TestTwoChoicesBeatOne(t *testing.T) {
	o := quickOpts(64, 0.9)
	o.Policy = PolicySteal
	o.T = 2
	o.Horizon = 20000
	o.Warmup = 2000
	one, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	o.D = 2
	two, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if two.MeanSojourn >= one.MeanSojourn {
		t.Errorf("two choices (%v) no better than one (%v)", two.MeanSojourn, one.MeanSojourn)
	}
}

func TestRepeatedRetriesHelp(t *testing.T) {
	o := quickOpts(32, 0.9)
	o.Policy = PolicySteal
	o.T = 2
	o.Horizon = 20000
	o.Warmup = 2000
	base, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	o.RetryRate = 5
	retry, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if retry.MeanSojourn >= base.MeanSojourn {
		t.Errorf("retries (%v) no better than none (%v)", retry.MeanSojourn, base.MeanSojourn)
	}
	if retry.Metrics.StealAttempts <= base.Metrics.StealAttempts {
		t.Error("retries should increase attempts")
	}
}

func TestTransferDelayCostsTime(t *testing.T) {
	o := quickOpts(32, 0.8)
	o.Policy = PolicySteal
	o.T = 4
	o.Horizon = 20000
	o.Warmup = 2000
	instant, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	o.TransferRate = 0.25 // mean transfer time 4
	slow, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if slow.MeanSojourn <= instant.MeanSojourn {
		t.Errorf("transfer delay (%v) should cost vs instantaneous (%v)", slow.MeanSojourn, instant.MeanSojourn)
	}
}

func TestMultiStealMovesMoreTasks(t *testing.T) {
	o := quickOpts(32, 0.9)
	o.Policy = PolicySteal
	o.T = 6
	o.Horizon = 10000
	o.Warmup = 1000
	k1, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	o.K = 3
	k3, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if k3.MeanSojourn >= k1.MeanSojourn {
		t.Errorf("k=3 (%v) no better than k=1 (%v) at T=6", k3.MeanSojourn, k1.MeanSojourn)
	}
}

func TestRebalancePolicy(t *testing.T) {
	o := quickOpts(32, 0.9)
	o.Horizon = 20000
	o.Warmup = 2000
	none, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Policy = PolicyRebalance
	o.RebalanceRate = 2
	reb, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if reb.MeanSojourn >= none.MeanSojourn {
		t.Errorf("rebalancing (%v) no better than none (%v)", reb.MeanSojourn, none.MeanSojourn)
	}
	if reb.Metrics.Rebalances == 0 {
		t.Error("no rebalancing events recorded")
	}
}

func TestConstantServiceBeatsExponentialInSim(t *testing.T) {
	o := quickOpts(32, 0.9)
	o.Policy = PolicySteal
	o.T = 2
	o.Horizon = 20000
	o.Warmup = 2000
	expo, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Service = dist.NewDeterministic(1)
	det, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if det.MeanSojourn >= expo.MeanSojourn {
		t.Errorf("constant service (%v) should beat exponential (%v)", det.MeanSojourn, expo.MeanSojourn)
	}
}

func TestStaticDrain(t *testing.T) {
	o := Options{
		N:           32,
		Service:     dist.NewExponential(1),
		Policy:      PolicySteal,
		T:           2,
		InitialLoad: 4,
		Horizon:     1000,
		Seed:        3,
	}
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.DrainTime < 0 {
		t.Fatal("system never drained")
	}
	if res.Metrics.Departures != int64(32*4) {
		t.Errorf("completed %d, want %d", res.Metrics.Departures, 32*4)
	}
	// With stealing, drain time should be near the makespan lower bound of
	// max load ≈ 4·mean service, far below the no-stealing tail.
	if res.DrainTime > 30 {
		t.Errorf("drain time %v suspiciously large", res.DrainTime)
	}
}

func TestStaticStealingDrainsFaster(t *testing.T) {
	// In a static system a single failed attempt would idle a thief
	// forever, so give thieves a retry rate (§2.5) — then the drain time
	// approaches total-work/n plus the longest single task, far below the
	// no-stealing makespan.
	base := Options{
		N:           64,
		Service:     dist.NewExponential(1),
		Policy:      PolicyNone,
		InitialLoad: 8,
		Horizon:     1000,
		Seed:        4,
	}
	slowAgg, err := Replication{Reps: 5}.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Policy = PolicySteal
	base.T = 2
	base.RetryRate = 10
	fastAgg, err := Replication{Reps: 5}.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if fastAgg.Drain.Mean >= slowAgg.Drain.Mean {
		t.Errorf("stealing drain %v not faster than none %v", fastAgg.Drain.Mean, slowAgg.Drain.Mean)
	}
}

func TestHeterogeneousClasses(t *testing.T) {
	o := Options{
		N:       64,
		Service: dist.NewExponential(1),
		Policy:  PolicySteal,
		T:       2,
		Classes: []Class{
			{Frac: 0.5, Lambda: 0.3, Rate: 2},
			{Frac: 0.5, Lambda: 1.1, Rate: 1},
		},
		Warmup:  1000,
		Horizon: 10000,
		Seed:    5,
	}
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Measured == 0 {
		t.Fatal("no measured tasks")
	}
	// The aggregate system (arrivals 0.7 vs capacity 1.0) is stable, so the
	// mean load must be modest even though the slow class alone is
	// overloaded.
	if res.MeanLoad > 20 {
		t.Errorf("heterogeneous system looks unstable: mean load %v", res.MeanLoad)
	}
}

func TestInternalSpawning(t *testing.T) {
	o := quickOpts(16, 0.4)
	o.LambdaInt = 0.3
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	// Effective arrival rate is 0.4 external plus 0.3 per busy processor;
	// utilization ρ solves ρ = 0.4 + 0.3ρ → ρ = 4/7.
	wantBusy := 0.4 / (1 - 0.3)
	perArrival := float64(arrived(res)) / (float64(o.N) * res.End)
	if math.Abs(perArrival-wantBusy) > 0.05 {
		t.Errorf("effective arrival rate %v, want ~%v", perArrival, wantBusy)
	}
}

func TestReplicationAggregate(t *testing.T) {
	o := quickOpts(8, 0.5)
	agg, err := Replication{Reps: 6, Workers: 3}.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Sojourn.N != 6 {
		t.Errorf("aggregated %d reps, want 6", agg.Sojourn.N)
	}
	if agg.Sojourn.Half <= 0 {
		t.Error("confidence half-width should be positive")
	}
	// Replications must be reproducible and independent of worker count.
	agg2, err := Replication{Reps: 6, Workers: 1}.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := range agg.Results {
		if !resultsEqual(agg.Results[i], agg2.Results[i]) {
			t.Errorf("rep %d differs across worker counts", i)
		}
	}
}

func TestReplicationValidation(t *testing.T) {
	if _, err := (Replication{Reps: 0}).Run(quickOpts(4, 0.5)); err == nil {
		t.Error("Reps=0 should fail")
	}
	if _, err := (Replication{Reps: 2}).Run(Options{}); err == nil {
		t.Error("invalid options should fail")
	}
}

func TestWarmupExcludesEarlyTasks(t *testing.T) {
	o := quickOpts(8, 0.5)
	o.Warmup = 4000
	o.Horizon = 5000
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	// Roughly 0.5·8·1000 = 4000 tasks arrive after warmup; measured count
	// must be well below total arrivals.
	if res.Measured >= arrived(res)/2 {
		t.Errorf("warmup not excluding tasks: measured %d of %d", res.Measured, arrived(res))
	}
}

// resultsEqual compares two Results field by field (Result holds a slice,
// so == is unavailable).
func resultsEqual(a, b Result) bool {
	if a.MeanSojourn != b.MeanSojourn || a.Measured != b.Measured ||
		a.MeanLoad != b.MeanLoad || arrived(a) != arrived(b) ||
		a.Metrics.Departures != b.Metrics.Departures || a.Metrics.StealAttempts != b.Metrics.StealAttempts ||
		a.Metrics.StealSuccesses != b.Metrics.StealSuccesses || a.Metrics.Rebalances != b.Metrics.Rebalances ||
		a.DrainTime != b.DrainTime || a.End != b.End || len(a.Tails) != len(b.Tails) {
		return false
	}
	for i := range a.Tails {
		if a.Tails[i] != b.Tails[i] {
			return false
		}
	}
	return true
}
