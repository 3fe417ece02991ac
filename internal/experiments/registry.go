package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/meanfield"
	"repro/internal/sim"
)

// This file is the model-variant registry: every mean-field model in the
// repository, paired with the finite-n simulation options that realize the
// same system, under one canonical parameterization. Cross-validation
// harnesses (internal/validate, cmd/wscheck) enumerate it so that a newly
// added model variant is picked up by `wscheck -all` automatically — the
// statistical sim ↔ ODE ↔ closed-form agreement checks become a standing
// backstop rather than something each model has to remember to wire up.

// Variant couples one mean-field model configuration with its finite-n
// simulation counterpart.
type Variant struct {
	// Name is the registry key (`wscheck -model`). For spec-backed variants
	// it equals the FixedPointSpec model name.
	Name string
	// Lambda is the total per-processor task arrival rate of the canonical
	// configuration — the value Little's law divides by, and the throughput
	// a conserving simulation must reproduce.
	Lambda float64
	// Build constructs the mean-field model at an arbitrary arrival rate
	// (the canonical configuration is Build(Lambda)); validation ladders
	// call it at several rates to check monotonicity in λ.
	Build func(lambda float64) (core.Model, error)
	// Sim returns the simulation options realizing the same system with n
	// processors. Horizon, Warmup, Seed, and sampling fields are left zero
	// for the caller to fill.
	Sim func(n int) sim.Options
	// TailsState marks models whose state is a single task-indexed tail
	// vector, so core.ValidateTails applies to the solved fixed point
	// directly (split-population and stage-space models carry other
	// layouts and are validated through their own invariants).
	TailsState bool
	// Dominates marks variants for which the paper's ordering argument
	// applies: task migration at unit service rates can only help, so the
	// fixed-point E[T] must not exceed the no-stealing M/M/1 value
	// 1/(1−λ). It is false for nosteal itself (equality) and for hetero
	// (its service rates differ from 1, so the comparison is meaningless).
	Dominates bool
	// UnitService marks variants whose mean service time is 1, so the
	// equilibrium busy fraction must equal λ exactly. Hetero mixes service
	// rates 1.5 and 1.0 and is the one variant where this is false.
	UnitService bool
}

// specVariant builds a Variant from a FixedPointSpec template: Build clones
// the spec at the requested rate, so the mean-field side is exactly what
// wsfixed and the serving layer would solve for the same parameters, and
// Sim is the spec's own finite-n system.
func specVariant(spec FixedPointSpec, tails, dominates bool) Variant {
	return Variant{
		Name:   spec.Model,
		Lambda: spec.Lambda,
		Build: func(lambda float64) (core.Model, error) {
			sp := spec
			sp.Lambda = lambda
			return sp.BuildModel()
		},
		Sim:         spec.SimOptions,
		TailsState:  tails,
		Dominates:   dominates,
		UnitService: true,
	}
}

// Canonical hetero parameters: the slow class alone is at utilization 1.0
// and relies on stealing headroom from the fast class. Scaling both class
// arrival rates by λ/heteroLambda preserves the shape of the configuration
// for the λ-ladder checks.
const (
	heteroQ, heteroLf, heteroLs = 0.5, 0.5, 1.0
	heteroMuF, heteroMuS        = 1.5, 1.0
	heteroT                     = 2
	heteroLambda                = heteroQ*heteroLf + (1-heteroQ)*heteroLs // 0.75
)

// h2SCV is the squared coefficient of variation of the canonical h2
// workload variant: high enough that the hyperexponential tail visibly
// separates it from exponential service, low enough that the quick-scale
// statistical checks stay well-powered.
const h2SCV = 4.0

// Variants returns the full registry in documentation order (M0 first).
// The slice is freshly allocated; callers may reorder or filter it.
func Variants() []Variant {
	const lam = 0.85
	return []Variant{
		specVariant(FixedPointSpec{Model: "nosteal", Lambda: lam}, true, false),
		specVariant(FixedPointSpec{Model: "simple", Lambda: lam}, true, true),
		specVariant(FixedPointSpec{Model: "threshold", Lambda: lam, T: 3}, true, true),
		specVariant(FixedPointSpec{Model: "preemptive", Lambda: lam, B: 1, T: 3}, true, true),
		specVariant(FixedPointSpec{Model: "repeated", Lambda: lam, T: 2, R: 1}, true, true),
		specVariant(FixedPointSpec{Model: "choices", Lambda: lam, T: 2, D: 2}, true, true),
		specVariant(FixedPointSpec{Model: "multisteal", Lambda: lam, T: 4, K: 2}, true, true),
		// Erlang(c) service is exactly the stage model's c exponential
		// stages, so sim and ODE describe the same system (no
		// constant-service approximation gap).
		specVariant(FixedPointSpec{Model: "stages", Lambda: lam, C: 4, T: 2}, true, true),
		specVariant(FixedPointSpec{Model: "transfer", Lambda: lam, T: 4, R: 0.25}, false, true),
		specVariant(FixedPointSpec{Model: "rebalance", Lambda: lam, R: 1}, true, true),
		specVariant(FixedPointSpec{Model: "stealhalf", Lambda: lam, T: 4}, true, true),
		specVariant(FixedPointSpec{Model: "spawning", Lambda: lam, LI: 0.3, T: 2}, true, true),
		specVariant(FixedPointSpec{Model: "repeated-transfer", Lambda: lam, T: 3, RA: 1, R: 0.5}, false, true),
		{
			// Workload variant: H2 service with SCV 4 under basic stealing.
			// The mean-field side is the generalized phase-type stage model,
			// the simulation samples the fitted hyperexponential exactly, so
			// the pair cross-validates the workload subsystem end to end.
			Name:   "h2",
			Lambda: lam,
			Build: func(lambda float64) (core.Model, error) {
				ph, err := dist.FitH2(1, h2SCV)
				if err != nil {
					return nil, fmt.Errorf("experiments: %v", err)
				}
				return TryBuild(func() core.Model {
					return meanfield.NewPhaseService(lambda, ph, 2, 0)
				})
			},
			Sim: func(n int) sim.Options {
				ph, err := dist.FitH2(1, h2SCV)
				if err != nil {
					panic("experiments: " + err.Error())
				}
				return sim.Options{N: n, Lambda: lam, Service: ph,
					Policy: sim.PolicySteal, T: 2}
			},
			// The state is a (level, phase) occupancy density, not a tail
			// vector, and the M/M/1 dominance bound assumes exponential
			// service; the busy fraction still equals λ at unit mean.
			UnitService: true,
		},
		{
			Name:   "hetero",
			Lambda: heteroLambda,
			Build: func(lambda float64) (core.Model, error) {
				scale := lambda / heteroLambda
				return TryBuild(func() core.Model {
					return meanfield.NewHetero(heteroQ, heteroLf*scale, heteroLs*scale,
						heteroMuF, heteroMuS, heteroT)
				})
			},
			Sim: func(n int) sim.Options {
				return sim.Options{N: n, Service: dist.NewExponential(1), Policy: sim.PolicySteal, T: heteroT,
					Classes: []sim.Class{
						{Frac: heteroQ, Lambda: heteroLf, Rate: heteroMuF},
						{Frac: 1 - heteroQ, Lambda: heteroLs, Rate: heteroMuS},
					}}
			},
		},
	}
}

// VariantNames returns the registry's names in order.
func VariantNames() []string {
	vs := Variants()
	names := make([]string, len(vs))
	for i, v := range vs {
		names[i] = v.Name
	}
	return names
}

// VariantByName looks a variant up by its registry key.
func VariantByName(name string) (Variant, bool) {
	for _, v := range Variants() {
		if v.Name == name {
			return v, true
		}
	}
	return Variant{}, false
}
