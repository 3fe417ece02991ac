package sim

// The simulator is a pluggable engine: Run and Runner accept the same
// Options for every backend and dispatch on Options.Engine. Each backend
// implements the internal backend interface — an event/state source that
// can be (re)initialized for a run and queried for its Result — so the
// replication, scheduling, and serving layers above never know which
// engine produced a Result.
//
//   - EngineDES is the exact discrete-event simulator (engine.go): every
//     arrival, service completion, and steal of all n processors is an
//     event. Cost grows linearly with n; exact for any supported Options.
//   - EngineFluid integrates the paper's mean-field ODEs (fluid.go): the
//     n → ∞ limit, deterministic and O(1) in n, means only.
//   - EngineHybrid couples a tracked sample of processors, simulated
//     event-by-event, to the fluid bulk (hybrid.go): per-processor
//     sojourn and tail samples at n far beyond DES reach.

import (
	"fmt"

	"repro/internal/rng"
)

// EngineKind selects the simulation backend. The zero value is the pure
// discrete-event engine, so existing Options run unchanged.
type EngineKind int

const (
	// EngineDES is the exact per-event simulator over all n processors.
	EngineDES EngineKind = iota
	// EngineFluid integrates the mean-field ODE system instead of
	// simulating events; deterministic, ignores Seed, O(1) in N.
	EngineFluid
	// EngineHybrid simulates a tracked sample of processors in full
	// event-by-event detail against the fluid bulk (Kurtz coupling).
	EngineHybrid

	numEngines = 3
)

// EngineNames lists the accepted engine names in EngineKind order.
var EngineNames = []string{"des", "fluid", "hybrid"}

// String returns the canonical name of the engine kind.
func (k EngineKind) String() string {
	if k < 0 || int(k) >= len(EngineNames) {
		return fmt.Sprintf("EngineKind(%d)", int(k))
	}
	return EngineNames[k]
}

// ParseEngine maps an engine name to its kind. The empty string selects
// the DES engine, matching the EngineKind zero value.
func ParseEngine(name string) (EngineKind, error) {
	switch name {
	case "", "des":
		return EngineDES, nil
	case "fluid":
		return EngineFluid, nil
	case "hybrid":
		return EngineHybrid, nil
	}
	return 0, fmt.Errorf("sim: unknown engine %q (want des, fluid, or hybrid)", name)
}

// backend is one simulation engine. init prepares a fresh run of o on the
// given stream (recycling internal state from any previous run on this
// backend), run executes it, and result returns the measurements. The
// init/run/result split mirrors the DES engine's reset/run cycle so a
// worker goroutine reuses one backend per kind for its whole lifetime.
type backend interface {
	init(o Options, stream *rng.Source)
	run()
	result() Result
}

// newBackend constructs an empty backend of the given kind. Options must
// already be validated, so unknown kinds cannot reach here.
func newBackend(k EngineKind) backend {
	switch k {
	case EngineFluid:
		return &fluidEngine{}
	case EngineHybrid:
		return &hybridEngine{}
	default:
		return &engine{}
	}
}

// Run executes one simulation of o on the stream rng.New(o.Seed) using the
// backend selected by o.Engine and returns its measurements. It is a zero
// Runner's Run.
func Run(o Options) (Result, error) {
	var r Runner
	return r.Run(o)
}
