package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/workload"
)

// hybridBase returns a basic-threshold hybrid configuration: a 32-processor
// tracked sample inside a 64-processor system.
func hybridBase() Options {
	return Options{
		Engine: EngineHybrid, Tracked: 32,
		N: 64, Lambda: 0.85, Service: dist.NewExponential(1),
		Policy: PolicySteal, T: 2,
		Horizon: 1500, Warmup: 250, Seed: 1998,
	}
}

// TestHybridDeterministic pins seed-reproducibility of the hybrid loop:
// identical seeds give identical Results (wall-clock fields aside),
// different seeds do not.
func TestHybridDeterministic(t *testing.T) {
	run := func(seed uint64) Result {
		o := hybridBase()
		o.Seed = seed
		o.TailDepth, o.QueueHistDepth, o.SojournHistMax = 6, 8, 50
		r, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		scrubResult(&r)
		return r
	}
	a, b := run(7), run(7)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different hybrid results:\n%+v\n%+v", a, b)
	}
	if c := run(8); a.MeanSojourn == c.MeanSojourn && a.Metrics.Events == c.Metrics.Events {
		t.Errorf("different seeds produced identical results")
	}
}

// TestHybridTracksDES compares replicated hybrid and DES runs of the basic
// variant: the means must agree within a loose smoke margin (the tight
// statistical equivalence gate is wscheck's hybrid TOST family).
func TestHybridTracksDES(t *testing.T) {
	rp := Replication{Reps: 4}
	des := hybridBase()
	des.Engine, des.Tracked = EngineDES, 0
	da, err := rp.Run(des)
	if err != nil {
		t.Fatal(err)
	}
	ha, err := rp.Run(hybridBase())
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(ha.Sojourn.Mean-da.Sojourn.Mean) / da.Sojourn.Mean; d > 0.15 {
		t.Errorf("hybrid sojourn %v vs DES %v: rel diff %.3f", ha.Sojourn.Mean, da.Sojourn.Mean, d)
	}
	if d := math.Abs(ha.Metrics.Utilization.Mean - da.Metrics.Utilization.Mean); d > 0.05 {
		t.Errorf("hybrid utilization %v vs DES %v", ha.Metrics.Utilization.Mean, da.Metrics.Utilization.Mean)
	}
	// Throughput is normalized per measured processor on both sides.
	if d := math.Abs(ha.Metrics.Throughput.Mean - da.Metrics.Throughput.Mean); d > 0.05 {
		t.Errorf("hybrid throughput %v vs DES %v", ha.Metrics.Throughput.Mean, da.Metrics.Throughput.Mean)
	}
}

// TestHybridTracksDESPhaseType is the smoke version of the wscheck H2 TOST
// family: under hyperexponential service the coupler-driven hybrid must
// still track the DES means.
func TestHybridTracksDESPhaseType(t *testing.T) {
	h2, err := dist.FitH2(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	base := hybridBase()
	base.Lambda, base.Service = 0.75, h2
	rp := Replication{Reps: 4}
	des := base
	des.Engine, des.Tracked = EngineDES, 0
	da, err := rp.Run(des)
	if err != nil {
		t.Fatal(err)
	}
	ha, err := rp.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(ha.Sojourn.Mean-da.Sojourn.Mean) / da.Sojourn.Mean; d > 0.15 {
		t.Errorf("hybrid H2 sojourn %v vs DES %v: rel diff %.3f", ha.Sojourn.Mean, da.Sojourn.Mean, d)
	}
	if d := math.Abs(ha.Metrics.Utilization.Mean - da.Metrics.Utilization.Mean); d > 0.05 {
		t.Errorf("hybrid H2 utilization %v vs DES %v", ha.Metrics.Utilization.Mean, da.Metrics.Utilization.Mean)
	}
}

// TestHybridTrackedEqualsN is the degenerate corner Tracked = N: no bulk
// remains, every steal resolves within the sample, and the coupling
// machinery must get out of the way.
func TestHybridTrackedEqualsN(t *testing.T) {
	o := hybridBase()
	o.Tracked = o.N
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics.BulkSteals != 0 {
		t.Errorf("tracked = N but %d bulk steals fired", r.Metrics.BulkSteals)
	}
	if r.Measured == 0 || r.MeanSojourn <= 0 {
		t.Errorf("degenerate result: %+v", r)
	}
	des := hybridBase()
	des.Engine, des.Tracked = EngineDES, 0
	dr, err := Run(des)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(r.MeanSojourn-dr.MeanSojourn) / dr.MeanSojourn; d > 0.25 {
		t.Errorf("tracked=N hybrid sojourn %v far from DES %v", r.MeanSojourn, dr.MeanSojourn)
	}
}

// TestHybridDefaultTracked pins the min(256, N) default.
func TestHybridDefaultTracked(t *testing.T) {
	o := hybridBase()
	o.Tracked = 0
	o.normalize()
	if o.Tracked != 64 {
		t.Errorf("N=64: default tracked %d, want 64", o.Tracked)
	}
	o = hybridBase()
	o.N, o.Tracked = 100000, 0
	o.normalize()
	if o.Tracked != 256 {
		t.Errorf("N=100000: default tracked %d, want 256", o.Tracked)
	}
}

// TestHybridSamplers exercises tails, queue histogram, sojourn quantiles,
// and the series under the hybrid loop.
func TestHybridSamplers(t *testing.T) {
	o := hybridBase()
	o.TailDepth, o.QueueHistDepth, o.SojournHistMax, o.SeriesEvery = 6, 8, 50, 100
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tails) != 6 || r.Tails[0] != 1 {
		t.Fatalf("tails %v", r.Tails)
	}
	for i := 1; i < len(r.Tails); i++ {
		if r.Tails[i] > r.Tails[i-1] {
			t.Errorf("tails not monotone at %d: %v", i, r.Tails)
		}
	}
	if math.Abs(r.Tails[1]-0.85) > 0.05 {
		t.Errorf("busy tail %v, want ≈ λ", r.Tails[1])
	}
	var hist float64
	for _, v := range r.Metrics.QueueHist {
		hist += v
	}
	if math.Abs(hist-1) > 1e-9 {
		t.Errorf("queue histogram sums to %v", hist)
	}
	if !(r.P50 > 0 && r.P50 <= r.P95 && r.P95 <= r.P99) {
		t.Errorf("quantiles P50=%v P95=%v P99=%v", r.P50, r.P95, r.P99)
	}
	if len(r.SeriesTimes) == 0 || len(r.SeriesTimes) != len(r.SeriesLoads) {
		t.Errorf("series %d/%d", len(r.SeriesTimes), len(r.SeriesLoads))
	}
	if got := len(r.Metrics.PerProc); got != o.Tracked {
		t.Errorf("PerProc has %d entries, want tracked %d", got, o.Tracked)
	}
}

// TestHybridVariants exercises the supported policy mappings.
func TestHybridVariants(t *testing.T) {
	cases := map[string]func(o *Options){
		"nosteal":    func(o *Options) { o.Policy = PolicyNone; o.T = 0 },
		"threshold":  func(o *Options) { o.T = 3 },
		"multisteal": func(o *Options) { o.T = 4; o.K = 2 },
		"stealhalf":  func(o *Options) { o.T = 4; o.Half = true },
		"repeated":   func(o *Options) { o.RetryRate = 1 },
		"erlang":     func(o *Options) { o.Service = dist.NewErlang(2, 2) },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			o := hybridBase()
			mutate(&o)
			r, err := Run(o)
			if err != nil {
				t.Fatal(err)
			}
			if r.Measured == 0 || !(r.MeanSojourn > 0) {
				t.Errorf("degenerate result: measured %d, sojourn %v", r.Measured, r.MeanSojourn)
			}
			if o.Policy == PolicyNone && r.Metrics.StealAttempts != 0 {
				t.Errorf("nosteal made %d steal attempts", r.Metrics.StealAttempts)
			}
		})
	}
}

// TestHybridRejectsUnsupported pins the hybrid-specific validation gate.
func TestHybridRejectsUnsupported(t *testing.T) {
	cases := map[string]struct {
		mutate func(o *Options)
		want   string
	}{
		"tracked-over-n":  {func(o *Options) { o.Tracked = 65 }, "Tracked <= N"},
		"tracked-neg":     {func(o *Options) { o.Tracked = -1 }, "Tracked"},
		"choices":         {func(o *Options) { o.D = 2 }, "choices"},
		"preemptive":      {func(o *Options) { o.B = 1; o.T = 3 }, "preemptive"},
		"transfer":        {func(o *Options) { o.T = 4; o.TransferRate = 0.25 }, "transfer"},
		"rebalance":       {func(o *Options) { o.Policy = PolicyRebalance; o.T = 0; o.RebalanceRate = 1 }, "rebalancing"},
		"deterministic":   {func(o *Options) { o.Service = dist.NewDeterministic(1) }, "phase-type"},
		"phase-multi":     {func(o *Options) { o.Service = dist.NewErlang(2, 2); o.T = 4; o.K = 2 }, "threshold"},
		"arrivals":        {func(o *Options) { o.Lambda = 0; o.Arrivals = workload.MMPP{Rates: []float64{0.5}} }, "DES-only"},
		"unstable-lambda": {func(o *Options) { o.Lambda = 1.2 }, "(0, 1)"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			o := hybridBase()
			tc.mutate(&o)
			_, err := Run(o)
			if err == nil {
				t.Fatal("expected a validation error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestRunnerMixedEngines runs DES, fluid, and hybrid replications through
// one Runner and checks each matches a fresh package-level Run — the
// backend cache must never leak state across kinds or runs.
func TestRunnerMixedEngines(t *testing.T) {
	var runner Runner
	configs := []Options{hybridBase(), fluidBase(), hybridBase()}
	configs[0].Seed = 3
	des := hybridBase()
	des.Engine, des.Tracked = EngineDES, 0
	configs = append(configs, des, configs[0])
	// NaN quantile fields (unset SojournHistMax) defeat DeepEqual; zero
	// them alongside the wall-clock scrub.
	canon := func(r *Result) {
		scrubResult(r)
		for _, p := range []*float64{&r.P50, &r.P95, &r.P99} {
			if math.IsNaN(*p) {
				*p = 0
			}
		}
	}
	for i, o := range configs {
		fresh, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		reused, err := runner.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		canon(&fresh)
		canon(&reused)
		if !reflect.DeepEqual(fresh, reused) {
			t.Errorf("config %d (%s): reused runner diverged from fresh run", i, o.Engine)
		}
	}
}

// TestHybridMillionSmoke is a scaled-down guard on the headline capability:
// a million-processor hybrid run must stay cheap (the full n = 10⁶,
// horizon 8000 budget is enforced by the CI hybrid-smoke job).
func TestHybridMillionSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := Options{
		Engine: EngineHybrid,
		N:      1_000_000, Lambda: 0.9, Service: dist.NewExponential(1),
		Policy: PolicySteal, T: 2,
		Horizon: 500, Warmup: 100, Seed: 1, TailDepth: 8,
	}
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if o.Tracked != 0 {
		t.Fatalf("caller options mutated")
	}
	if r.Measured == 0 || len(r.Metrics.PerProc) != 256 {
		t.Errorf("measured %d, per-proc %d (want tracked default 256)", r.Measured, len(r.Metrics.PerProc))
	}
	if math.Abs(r.Metrics.Utilization-0.9) > 0.05 {
		t.Errorf("utilization %v, want ≈ 0.9", r.Metrics.Utilization)
	}
}
