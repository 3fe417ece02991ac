package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/rng"
)

// ArrivalKinds lists the accepted arrival-model names.
var ArrivalKinds = []string{"poisson", "mmpp", "trace"}

// Serving-side caps on arrival specs: a network request gets bounded state.
// Validate does not enforce them — a batch run may replay any trace — the
// serving conversion (experiments.SimSpec.Options) does.
const (
	// MaxMMPPPhases caps the modulating chain of an MMPP arrival spec.
	MaxMMPPPhases = 8
	// MaxTracePoints caps the arrival instants of a trace-replay spec.
	MaxTracePoints = 100_000
)

// ArrivalProcess generates the system-wide stream of task arrival instants
// for the DES engine. Implementations are immutable and safe to share
// across concurrent replications; per-replication state lives in the
// ArrivalSource returned by NewSource.
type ArrivalProcess interface {
	// NewSource returns a fresh source for one replication over n
	// processors.
	NewSource(n int) ArrivalSource
	// Name identifies the process in logs and reports.
	Name() string
}

// ArrivalSource yields successive system-wide arrival instants.
type ArrivalSource interface {
	// Next returns the next arrival instant at or after now, drawing any
	// randomness from r, or +Inf when the stream is exhausted.
	Next(now float64, r *rng.Source) float64
}

// MMPP is a Markov-modulated Poisson process: a cyclic continuous-time
// Markov chain over len(Rates) phases, where phase i produces Poisson
// arrivals at per-processor rate Rates[i] and jumps to phase (i+1) mod m at
// rate Switch[i]. Two phases with rates {λ_on, 0} are the classic on-off
// bursty source; more phases give arbitrary cyclic burst structure.
type MMPP struct {
	Rates  []float64 // per-processor arrival rate per phase
	Switch []float64 // phase-exit rate per phase
}

// Name implements ArrivalProcess.
func (m MMPP) Name() string { return fmt.Sprintf("mmpp(%d phases)", len(m.Rates)) }

// MeanRate returns the stationary per-processor arrival rate: the cyclic
// chain spends time ∝ 1/Switch[i] in phase i, so the long-run rate is the
// dwell-time-weighted average of the phase rates.
func (m MMPP) MeanRate() float64 {
	if len(m.Rates) == 1 {
		return m.Rates[0]
	}
	var wsum, rsum float64
	for i, q := range m.Switch {
		w := 1 / q
		wsum += w
		rsum += w * m.Rates[i]
	}
	return rsum / wsum
}

// NewSource implements ArrivalProcess. Every replication starts in phase 0.
func (m MMPP) NewSource(n int) ArrivalSource {
	return &mmppSource{m: m, n: float64(n)}
}

type mmppSource struct {
	m     MMPP
	n     float64
	phase int
}

// Next simulates the modulated process by competition sampling: in phase i
// the next event is exponential with the total rate λ_i·n + q_i and is an
// arrival with probability λ_i·n over that total, a phase switch otherwise.
// This is exact — no thinning bound or discretization — and consumes at
// most two RNG draws per event.
func (s *mmppSource) Next(now float64, r *rng.Source) float64 {
	t := now
	for {
		lam := s.m.Rates[s.phase] * s.n
		q := 0.0
		if len(s.m.Rates) > 1 {
			q = s.m.Switch[s.phase]
		}
		total := lam + q
		t += r.Exp(total)
		if q == 0 || r.Float64()*total < lam {
			return t
		}
		s.phase = (s.phase + 1) % len(s.m.Rates)
	}
}

// Trace replays a fixed, sorted sequence of system-wide arrival instants.
type Trace struct {
	Times []float64
}

// Name implements ArrivalProcess.
func (tr Trace) Name() string { return fmt.Sprintf("trace(%d arrivals)", len(tr.Times)) }

// NewSource implements ArrivalProcess.
func (tr Trace) NewSource(int) ArrivalSource { return &traceSource{times: tr.Times} }

type traceSource struct {
	times []float64
	idx   int
}

// Next consumes the next trace instant; +Inf once the trace is exhausted.
// The replay is deterministic — no randomness is drawn — so replications
// differ only in which processors receive the arrivals.
func (s *traceSource) Next(float64, *rng.Source) float64 {
	if s.idx >= len(s.times) {
		return math.Inf(1)
	}
	t := s.times[s.idx]
	s.idx++
	return t
}

// ArrivalSpec selects an arrival model. In JSON it is either the plain
// string "poisson" (the default: the engine's native merged Poisson stream
// at the spec's lambda) or an object:
//
//	{"kind": "mmpp", "rates": [1.6, 0.1], "switch": [0.5, 0.5]}
//	{"kind": "trace", "times": [0.1, 0.4, 1.2]}
//	{"kind": "trace", "path": "arrivals.csv"}    (CLI only)
//
// MMPP rates are per-processor, like lambda; trace times are system-wide
// absolute instants. The path form must be resolved into times by the CLI
// before the spec is validated — a server never touches the filesystem on a
// request's behalf.
type ArrivalSpec struct {
	// Kind is the arrival model name (see ArrivalKinds).
	Kind string `json:"kind"`
	// Rates is the per-processor arrival rate of each MMPP phase.
	Rates []float64 `json:"rates,omitempty"`
	// Switch is the phase-exit rate of each MMPP phase (cyclic chain).
	Switch []float64 `json:"switch,omitempty"`
	// Times is the sorted system-wide arrival instants of a trace.
	Times []float64 `json:"times,omitempty"`
	// Path is a CLI-side trace file reference (JSON or CSV); it must be
	// loaded into Times before validation.
	Path string `json:"path,omitempty"`
}

// UnmarshalJSON accepts the string form or the parameter object (strict).
func (s *ArrivalSpec) UnmarshalJSON(b []byte) error {
	t := bytes.TrimSpace(b)
	if len(t) > 0 && t[0] == '"' {
		var name string
		if err := json.Unmarshal(t, &name); err != nil {
			return err
		}
		*s = ArrivalSpec{Kind: name}
		return nil
	}
	type plain ArrivalSpec
	dec := json.NewDecoder(bytes.NewReader(t))
	dec.DisallowUnknownFields()
	var p plain
	if err := dec.Decode(&p); err != nil {
		return fmt.Errorf("arrivals: %w", err)
	}
	*s = ArrivalSpec(p)
	return nil
}

// MarshalJSON emits the canonical form: "poisson" collapses to the string,
// everything else keeps the object with struct-pinned field order.
func (s ArrivalSpec) MarshalJSON() ([]byte, error) {
	if s.Kind == "poisson" && s.Rates == nil && s.Switch == nil && s.Times == nil && s.Path == "" {
		return json.Marshal(s.Kind)
	}
	type plain ArrivalSpec
	return json.Marshal(plain(s))
}

// IsPoisson reports whether the spec (normalized or not) selects the
// default Poisson stream, i.e. carries no arrival model of its own.
func (s *ArrivalSpec) IsPoisson() bool {
	return s == nil || s.Kind == "" || s.Kind == "poisson"
}

// Normalize fills the default kind.
func (s *ArrivalSpec) Normalize() {
	if s.Kind == "" {
		s.Kind = "poisson"
	}
}

// Validate checks a normalized spec. It enforces no serving cap.
func (s *ArrivalSpec) Validate() error {
	switch s.Kind {
	case "poisson":
		if len(s.Rates) > 0 || len(s.Switch) > 0 || len(s.Times) > 0 || s.Path != "" {
			return fmt.Errorf("workload: poisson arrivals take no parameters (use lambda)")
		}
		return nil
	case "mmpp":
		if len(s.Times) > 0 || s.Path != "" {
			return fmt.Errorf("workload: mmpp arrivals take rates/switch, not a trace")
		}
		if len(s.Rates) < 1 {
			return fmt.Errorf("workload: mmpp needs at least 1 phase rate")
		}
		anyPositive := false
		for i, v := range s.Rates {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("workload: mmpp rate[%d] = %v, want finite >= 0", i, v)
			}
			if v > 0 {
				anyPositive = true
			}
		}
		if !anyPositive {
			return fmt.Errorf("workload: mmpp needs at least one positive phase rate")
		}
		if len(s.Rates) == 1 {
			if len(s.Switch) != 0 {
				return fmt.Errorf("workload: single-phase mmpp takes no switch rates")
			}
			return nil
		}
		if len(s.Switch) != len(s.Rates) {
			return fmt.Errorf("workload: mmpp needs one switch rate per phase, got %d for %d phases", len(s.Switch), len(s.Rates))
		}
		for i, v := range s.Switch {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return fmt.Errorf("workload: mmpp switch[%d] = %v, want finite > 0", i, v)
			}
		}
		return nil
	case "trace":
		if len(s.Rates) > 0 || len(s.Switch) > 0 {
			return fmt.Errorf("workload: trace arrivals take times, not rates")
		}
		if s.Path != "" {
			return fmt.Errorf("workload: trace path %q must be loaded client-side (inline the times)", s.Path)
		}
		if len(s.Times) < 1 {
			return fmt.Errorf("workload: trace needs at least 1 arrival time")
		}
		prev := math.Inf(-1)
		for i, v := range s.Times {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("workload: trace time[%d] = %v, want finite >= 0", i, v)
			}
			if v < prev {
				return fmt.Errorf("workload: trace times must be sorted (time[%d] = %v < %v)", i, v, prev)
			}
			prev = v
		}
		return nil
	default:
		return fmt.Errorf("workload: unknown arrival kind %q", s.Kind)
	}
}

// Process normalizes, validates, and builds the arrival process. Poisson
// (and a nil spec) returns (nil, nil): the engines keep their native
// merged-Poisson stream, so the workload layer is zero-cost when no bursty
// model is requested.
func (s *ArrivalSpec) Process() (ArrivalProcess, error) {
	if s == nil {
		return nil, nil
	}
	s.Normalize()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	switch s.Kind {
	case "mmpp":
		return MMPP{Rates: s.Rates, Switch: s.Switch}, nil
	case "trace":
		return Trace{Times: s.Times}, nil
	}
	return nil, nil // poisson: Validate has rejected every other kind
}
