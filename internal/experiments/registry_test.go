package experiments

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/meanfield"
	"repro/internal/sim"
)

func TestVariantsCoverEveryFixedPointModel(t *testing.T) {
	// The registry must enumerate at least every model the request layer can
	// build — a new FixedPointSpec model without a registry entry would
	// silently escape cross-validation.
	have := make(map[string]bool)
	for _, v := range Variants() {
		if have[v.Name] {
			t.Errorf("duplicate variant %q", v.Name)
		}
		have[v.Name] = true
	}
	for _, name := range FixedPointModels {
		if !have[name] {
			t.Errorf("FixedPointSpec model %q has no registry variant", name)
		}
	}
	if !have["hetero"] {
		t.Error("hetero (spec-less model) missing from the registry")
	}
}

func TestVariantsBuildAndValidate(t *testing.T) {
	for _, v := range Variants() {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			if v.Lambda <= 0 || v.Lambda >= 1 {
				t.Fatalf("canonical lambda %v outside (0,1)", v.Lambda)
			}
			m, err := v.Build(v.Lambda)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if got := m.ArrivalRate(); math.Abs(got-v.Lambda) > 1e-12 {
				t.Errorf("model arrival rate %v, registry Lambda %v", got, v.Lambda)
			}
			// The simulation counterpart must be runnable as-is once the
			// caller fills the time span.
			o := v.Sim(16)
			o.Horizon, o.Warmup = 10, 1
			if err := (sim.Replication{Reps: 1}).Validate(&o); err != nil {
				t.Errorf("sim options invalid: %v", err)
			}
			// Ladder rates must build too (the monotonicity check uses them).
			for _, lam := range []float64{0.6, 0.75, 0.9} {
				if _, err := v.Build(lam); err != nil {
					t.Errorf("Build(%v): %v", lam, err)
				}
			}
		})
	}
}

func TestVariantByName(t *testing.T) {
	v, ok := VariantByName("simple")
	if !ok || v.Name != "simple" {
		t.Fatalf("lookup failed: %+v %v", v, ok)
	}
	if _, ok := VariantByName("nosuch"); ok {
		t.Error("unknown name should not resolve")
	}
	names := VariantNames()
	if len(names) != len(Variants()) || names[0] != "nosteal" {
		t.Errorf("VariantNames = %v", names)
	}
}

// TestSpecVariantsAgreeWithFluid ties every spec-backed variant's finite-n
// options to its mean-field model. The fluid engine integrates the model
// that sim derives from the options, and its time-averaged load must match
// the mean tasks at the fixed point of the model the spec builds. The
// fluid engine has no rebalance or spawning model, so exactly those two
// must be rejected.
func TestSpecVariantsAgreeWithFluid(t *testing.T) {
	unsupported := map[string]string{
		"rebalance": "pairwise rebalancing is not supported",
		"spawning":  "internal spawning is not supported",
	}
	for _, v := range Variants() {
		if !slices.Contains(FixedPointModels, v.Name) {
			continue
		}
		o := v.Sim(64)
		o.Engine = sim.EngineFluid
		o.Horizon, o.Warmup = 1000, 500
		if v.Name == "nosteal" {
			// M/M/1 at λ = 0.85 relaxes from empty far more slowly than
			// any stealing system.
			o.Horizon, o.Warmup = 2000, 1500
		}
		res, err := sim.Run(o)
		if want, ok := unsupported[v.Name]; ok {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: fluid error %v, want one containing %q", v.Name, err, want)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: fluid run: %v", v.Name, err)
			continue
		}
		m, err := v.Build(v.Lambda)
		if err != nil {
			t.Fatalf("%s: Build: %v", v.Name, err)
		}
		fp, err := meanfield.Solve(m, meanfield.SolveOptions{})
		if err != nil {
			t.Fatalf("%s: Solve: %v", v.Name, err)
		}
		want := fp.MeanTasks()
		if rel := math.Abs(res.MeanLoad-want) / want; rel > 1e-5 {
			t.Errorf("%s: fluid mean load %.8g, fixed point %.8g (rel. gap %.2g)", v.Name, res.MeanLoad, want, rel)
		}
	}
}
