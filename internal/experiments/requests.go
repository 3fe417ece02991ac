package experiments

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/meanfield"
	"repro/internal/metrics"
	"repro/internal/numeric"
	"repro/internal/ode"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// This file holds the request-shaped entry points: plain structs that
// describe one unit of work — a fixed-point solve, an ODE integration, or a
// finite-n simulation — with JSON tags mirroring the CLI flags. The cmd/
// tools (wsfixed, wsode, wssim) build them from flags; the serving layer
// (internal/serve) decodes them from request bodies, so a CLI invocation
// and an HTTP request with the same parameters run the same code and
// render the same report structs. The one split is SimSpec's resource
// caps: network callers convert with Options, wssim with BatchOptions.

// FixedPointModels lists the -model names accepted by FixedPointSpec, in
// the order wsfixed documents them.
var FixedPointModels = []string{
	"nosteal", "simple", "threshold", "preemptive", "repeated", "choices",
	"multisteal", "stages", "transfer", "rebalance", "stealhalf",
	"spawning", "repeated-transfer",
}

// FixedPointSpec selects a mean-field model and its parameters, exactly as
// the wsfixed flags do. The zero value of every parameter field means "use
// the wsfixed default"; Normalize fills those in.
type FixedPointSpec struct {
	// Model is the model name (see FixedPointModels).
	Model string `json:"model"`
	// Lambda is the arrival rate, in (0, 1).
	Lambda float64 `json:"lambda"`
	// T is the victim threshold (default 2).
	T int `json:"t,omitempty"`
	// B is the preemptive steal-begin level.
	B int `json:"b,omitempty"`
	// D is the number of victim choices (default 2).
	D int `json:"d,omitempty"`
	// K is the number of tasks per steal (default 2).
	K int `json:"k,omitempty"`
	// C is the number of Erlang stages per task (default 10).
	C int `json:"c,omitempty"`
	// R is the model's rate parameter — retry, transfer, or rebalance rate
	// depending on the model (default 1).
	R float64 `json:"r,omitempty"`
	// RA is the retry rate for model "repeated-transfer" (default 1).
	RA float64 `json:"ra,omitempty"`
	// LI is the internal spawn fraction for model "spawning" (default 0.3).
	LI float64 `json:"li,omitempty"`
	// Tails is how many leading tail entries to report (default 12).
	Tails int `json:"tails,omitempty"`
	// MaxIter, when positive, caps the solver's outer iterations (default
	// 0 = the solver's own budget). It is a serving-side cost knob: a
	// caller that would rather get a fast typed 422 (not converged) than
	// wait out the full budget near λ = 1 sets it low. It participates in
	// the cache key because it can change the outcome.
	MaxIter int `json:"max_iter,omitempty"`
}

// Normalize fills defaulted fields in place, mirroring the wsfixed flag
// defaults. It is idempotent, so hashing a normalized spec is stable.
func (s *FixedPointSpec) Normalize() {
	if s.Model == "" {
		s.Model = "simple"
	}
	if s.T == 0 {
		s.T = 2
	}
	if s.D == 0 {
		s.D = 2
	}
	if s.K == 0 {
		s.K = 2
	}
	if s.C == 0 {
		s.C = 10
	}
	if s.R == 0 {
		s.R = 1
	}
	if s.RA == 0 {
		s.RA = 1
	}
	if s.LI == 0 {
		s.LI = 0.3
	}
	if s.Tails == 0 {
		s.Tails = 12
	}
}

// Validate checks a normalized spec without building the model, returning
// a descriptive error for out-of-range parameters (NaN and ±Inf included).
// A spec it accepts builds.
func (s *FixedPointSpec) Validate() error {
	known := false
	for _, m := range FixedPointModels {
		if s.Model == m {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("experiments: unknown model %q", s.Model)
	}
	if !numeric.Finite(s.Lambda) || s.Lambda <= 0 || s.Lambda >= 1 {
		return fmt.Errorf("experiments: arrival rate lambda = %v outside (0, 1)", s.Lambda)
	}
	if !numeric.Finite(s.R) || s.R <= 0 {
		return fmt.Errorf("experiments: rate r = %v, want > 0", s.R)
	}
	if !numeric.Finite(s.RA) || s.RA <= 0 {
		return fmt.Errorf("experiments: retry rate ra = %v, want > 0", s.RA)
	}
	if !numeric.Finite(s.LI) || s.LI < 0 || s.LI >= 1 {
		return fmt.Errorf("experiments: spawn fraction li = %v outside [0, 1)", s.LI)
	}
	if s.T < 2 {
		return fmt.Errorf("experiments: threshold T = %d, want >= 2", s.T)
	}
	if s.B < 0 || s.D < 1 || s.K < 1 || s.C < 1 || s.Tails < 1 {
		return fmt.Errorf("experiments: negative or zero structural parameter (b=%d d=%d k=%d c=%d tails=%d)",
			s.B, s.D, s.K, s.C, s.Tails)
	}
	if s.MaxIter < 0 || s.MaxIter > MaxSolveIter {
		return fmt.Errorf("experiments: max_iter = %d outside [0, %d]", s.MaxIter, MaxSolveIter)
	}
	if s.Model == "multisteal" && 2*s.K > s.T {
		return fmt.Errorf("experiments: multisteal needs 2k <= T, got k=%d T=%d", s.K, s.T)
	}
	if s.Model == "preemptive" && s.T < s.B+2 {
		return fmt.Errorf("experiments: preemptive needs T >= b+2, got b=%d T=%d", s.B, s.T)
	}
	return nil
}

// MaxSolveIter caps the per-request solver iteration budget a network
// caller may demand.
const MaxSolveIter = 100_000

// BuildModel normalizes, validates, and constructs the mean-field model.
// A constructor panic is converted into an error by TryBuild, so a
// parameter combination Validate missed cannot crash a server.
func (s *FixedPointSpec) BuildModel() (core.Model, error) {
	s.Normalize()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return TryBuild(func() core.Model {
		switch s.Model {
		case "nosteal":
			return meanfield.NewNoSteal(s.Lambda)
		case "simple":
			return meanfield.NewSimpleWS(s.Lambda)
		case "threshold":
			return meanfield.NewThreshold(s.Lambda, s.T)
		case "preemptive":
			return meanfield.NewPreemptive(s.Lambda, s.B, s.T)
		case "repeated":
			return meanfield.NewRepeated(s.Lambda, s.T, s.R)
		case "choices":
			return meanfield.NewChoices(s.Lambda, s.T, s.D)
		case "multisteal":
			return meanfield.NewMultiSteal(s.Lambda, s.T, s.K)
		case "stages":
			return meanfield.NewStages(s.Lambda, s.C, s.T)
		case "transfer":
			return meanfield.NewTransfer(s.Lambda, s.T, s.R)
		case "rebalance":
			return meanfield.NewRebalance(s.Lambda, meanfield.ConstRate(s.R), s.R)
		case "stealhalf":
			return meanfield.NewStealHalf(s.Lambda, s.T)
		case "spawning":
			return meanfield.NewSpawning(s.Lambda*(1-s.LI), s.LI, s.T)
		case "repeated-transfer":
			return meanfield.NewRepeatedTransfer(s.Lambda, s.T, s.RA, s.R)
		}
		return nil
	})
}

// SimOptions returns the n-processor system whose mean-field limit
// BuildModel constructs: the same arrival rate, stealing discipline and
// parameters, with Exp(1) service (Erlang with C stages of total mean 1
// for "stages"). Horizon, Warmup, Seed and the sampling fields are left
// zero for the caller to fill. It does not validate: sim.Options.Validate
// rejects a bad combination when the cell runs.
func (s FixedPointSpec) SimOptions(n int) sim.Options {
	s.Normalize()
	o := sim.Options{N: n, Lambda: s.Lambda, Service: dist.NewExponential(1), Policy: sim.PolicySteal, T: s.T}
	switch s.Model {
	case "nosteal":
		o.Policy, o.T = sim.PolicyNone, 0
	case "preemptive":
		o.B = s.B
	case "repeated":
		o.RetryRate = s.R
	case "choices":
		o.D = s.D
	case "multisteal":
		o.K = s.K
	case "stages":
		o.Service = dist.ErlangWithMean(s.C, 1)
	case "transfer":
		o.TransferRate = s.R
	case "rebalance":
		o.Policy, o.T, o.RebalanceRate = sim.PolicyRebalance, 0, s.R
	case "stealhalf":
		o.Half = true
	case "spawning":
		// λ is the effective utilization, as in BuildModel: external
		// arrivals at λ(1−li), and busy processors spawn at rate li.
		o.Lambda, o.LambdaInt = s.Lambda*(1-s.LI), s.LI
	case "repeated-transfer":
		o.RetryRate, o.TransferRate = s.RA, s.R
	}
	return o
}

// TryBuild calls a model constructor and returns its model, or an error
// carrying the panic value when the constructor rejects its parameters.
func TryBuild(build func() core.Model) (m core.Model, err error) {
	defer func() {
		if r := recover(); r != nil {
			m, err = nil, fmt.Errorf("experiments: invalid model parameters: %v", r)
		}
	}()
	return build(), nil
}

// FixedPointReport is the JSON shape of one solved fixed point — the exact
// struct wsfixed -json emits, so serving the report bytes and running the
// CLI produce identical output.
type FixedPointReport struct {
	Model       string    `json:"model"`
	Lambda      float64   `json:"lambda"`
	Dim         int       `json:"dim"`
	Residual    float64   `json:"residual"`
	MeanTasks   float64   `json:"mean_tasks"`
	SojournTime float64   `json:"sojourn_time"`
	Utilization float64   `json:"utilization"`
	TailRatio   float64   `json:"tail_ratio"`
	Tails       []float64 `json:"tails"`
}

// Solve builds the model, finds its fixed point, and renders the report.
// The raw fixed point is returned alongside for callers (wsfixed's text
// mode) that need the full state vector.
func (s *FixedPointSpec) Solve() (FixedPointReport, core.FixedPoint, error) {
	return s.SolveWith(meanfield.SolveOptions{})
}

// SolveWith is Solve with explicit solver options for callers that thread
// serving-side concerns — a chaos Perturb hook, mainly — into the numeric
// layer. The spec's own MaxIter (a request field) takes precedence over
// opt.MaxIter so that CLI and HTTP callers of the same spec agree.
func (s *FixedPointSpec) SolveWith(opt meanfield.SolveOptions) (FixedPointReport, core.FixedPoint, error) {
	m, err := s.BuildModel()
	if err != nil {
		return FixedPointReport{}, core.FixedPoint{}, err
	}
	if s.MaxIter > 0 {
		opt.MaxIter = s.MaxIter
	}
	fp, err := meanfield.Solve(m, opt)
	if err != nil {
		return FixedPointReport{}, core.FixedPoint{}, err
	}
	nTails := s.Tails
	if nTails > m.Dim() {
		nTails = m.Dim()
	}
	return FixedPointReport{
		Model:       m.Name(),
		Lambda:      s.Lambda,
		Dim:         m.Dim(),
		Residual:    fp.Residual,
		MeanTasks:   fp.MeanTasks(),
		SojournTime: fp.SojournTime(),
		Utilization: fp.BusyFraction(),
		TailRatio:   core.TailRatio(fp.State, s.T+1, 1e-6),
		Tails:       fp.State[:nTails],
	}, fp, nil
}

// ODEModels lists the -model names accepted by ODESpec (the subset wsode
// integrates).
var ODEModels = []string{"nosteal", "simple", "threshold", "choices"}

// ODESpec describes one mean-field trajectory integration, mirroring the
// wsode flags.
type ODESpec struct {
	// Model is the model name (see ODEModels).
	Model string `json:"model"`
	// Lambda is the arrival rate, in (0, 1).
	Lambda float64 `json:"lambda"`
	// T is the victim threshold (default 2).
	T int `json:"t,omitempty"`
	// D is the number of victim choices (default 2).
	D int `json:"d,omitempty"`
	// Span is the integration span (default 200).
	Span float64 `json:"span,omitempty"`
	// Dt is the output sampling interval (default 1).
	Dt float64 `json:"dt,omitempty"`
}

// maxODEPoints bounds the trajectory length a single request can demand
// (span/dt points), protecting servers from pathological span/dt ratios.
const maxODEPoints = 200_000

// Normalize fills defaulted fields in place, mirroring the wsode flags.
func (s *ODESpec) Normalize() {
	if s.Model == "" {
		s.Model = "simple"
	}
	if s.T == 0 {
		s.T = 2
	}
	if s.D == 0 {
		s.D = 2
	}
	if s.Span == 0 {
		s.Span = 200
	}
	if s.Dt == 0 {
		s.Dt = 1
	}
}

// Validate checks a normalized spec.
func (s *ODESpec) Validate() error {
	known := false
	for _, m := range ODEModels {
		if s.Model == m {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("experiments: unknown ODE model %q", s.Model)
	}
	if !numeric.Finite(s.Lambda) || s.Lambda <= 0 || s.Lambda >= 1 {
		return fmt.Errorf("experiments: arrival rate lambda = %v outside (0, 1)", s.Lambda)
	}
	if s.T < 2 || s.D < 1 {
		return fmt.Errorf("experiments: invalid threshold/choices (t=%d d=%d)", s.T, s.D)
	}
	if !numeric.Finite(s.Span) || s.Span <= 0 || !numeric.Finite(s.Dt) || s.Dt <= 0 {
		return fmt.Errorf("experiments: span and dt must be positive and finite (span=%v dt=%v)", s.Span, s.Dt)
	}
	if s.Span/s.Dt > maxODEPoints {
		return fmt.Errorf("experiments: span/dt = %v points exceeds the %d-point limit", s.Span/s.Dt, maxODEPoints)
	}
	return nil
}

// BuildModel normalizes, validates, and constructs the model. The ODE
// models are a subset of the fixed-point models with the same defaults, so
// construction is FixedPointSpec's.
func (s *ODESpec) BuildModel() (core.Model, error) {
	s.Normalize()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	fp := FixedPointSpec{Model: s.Model, Lambda: s.Lambda, T: s.T, D: s.D}
	return fp.BuildModel()
}

// ODEPoint is one sampled trajectory point: the state at time T, its mean
// load, the sojourn-time estimate via Little's law, and the L1 distance to
// the fixed point.
type ODEPoint struct {
	T        float64 `json:"t"`
	Load     float64 `json:"mean_tasks"`
	Sojourn  float64 `json:"sojourn_estimate"`
	Distance float64 `json:"l1_distance"`
}

// Trajectory integrates the model from the empty system, invoking yield for
// every sampled point (wsode's CSV rows, the streaming endpoint's NDJSON
// lines). Integration stops early if yield returns false.
func (s *ODESpec) Trajectory(yield func(p ODEPoint) bool) error {
	_, err := s.trajectory(yield)
	return err
}

// trajectory is Trajectory's body. It also returns the fixed point the
// distances are measured to, so Integrate solves the model only once.
func (s *ODESpec) trajectory(yield func(p ODEPoint) bool) (core.FixedPoint, error) {
	m, err := s.BuildModel()
	if err != nil {
		return core.FixedPoint{}, err
	}
	fp, err := meanfield.Solve(m, meanfield.SolveOptions{})
	if err != nil {
		return core.FixedPoint{}, err
	}
	x := m.Initial()
	next := 0.0
	h := s.Dt
	if h > 0.05 {
		h = 0.05
	}
	ode.SolveObserved(m.Derivs, x, s.Span, h, func(t float64, y []float64) bool {
		if t+1e-12 < next && t < s.Span {
			return true
		}
		next = t + s.Dt
		load := m.MeanTasks(y)
		return yield(ODEPoint{
			T:        t,
			Load:     load,
			Sojourn:  load / m.ArrivalRate(),
			Distance: numeric.Dist1(y, fp.State),
		})
	})
	return fp, nil
}

// ODEReport is the JSON shape of one integrated trajectory — the exact
// struct wsode -json emits.
type ODEReport struct {
	Model         string    `json:"model"`
	Lambda        float64   `json:"lambda"`
	FixedPoint    float64   `json:"fixed_point_mean_tasks"`
	SettleTime    float64   `json:"settle_time"`
	FinalLoad     float64   `json:"final_load"`
	FinalDistance float64   `json:"final_distance"`
	Times         []float64 `json:"times"`
	Loads         []float64 `json:"loads"`
	Distances     []float64 `json:"distances"`
}

// Integrate runs the trajectory to completion and renders the report,
// including the 1% settle time relative to the fixed point's mean load.
func (s *ODESpec) Integrate() (ODEReport, error) {
	var rep ODEReport
	fp, err := s.trajectory(func(p ODEPoint) bool {
		rep.Times = append(rep.Times, p.T)
		rep.Loads = append(rep.Loads, p.Load)
		rep.Distances = append(rep.Distances, p.Distance)
		return true
	})
	if err != nil {
		return ODEReport{}, err
	}
	rep.Model, rep.Lambda, rep.FixedPoint, rep.SettleTime = fp.Model.Name(), s.Lambda, fp.MeanTasks(), -1
	tol := 0.01 * rep.FixedPoint
	for i := range rep.Times {
		if rep.Distances[i] <= tol {
			rep.SettleTime = rep.Times[i]
			break
		}
	}
	rep.FinalLoad = rep.Loads[len(rep.Loads)-1]
	rep.FinalDistance = rep.Distances[len(rep.Distances)-1]
	return rep, nil
}

// parsePolicy maps a policy name (the wssim -policy values) to its
// sim.PolicyKind.
func parsePolicy(name string) (sim.PolicyKind, error) {
	switch name {
	case "none":
		return sim.PolicyNone, nil
	case "steal":
		return sim.PolicySteal, nil
	case "rebalance":
		return sim.PolicyRebalance, nil
	default:
		return 0, fmt.Errorf("experiments: unknown policy %q", name)
	}
}

// Serving-side resource caps for SimSpec, enforced by Options only. A
// batch CLI may simulate anything it likes (BatchOptions), but a network
// request gets bounded work.
const (
	// MaxSimN caps the processor count of one DES request, whose cost is
	// linear in n.
	MaxSimN = 4096
	// MaxSimScaledN caps n for the fluid and hybrid engines, whose cost
	// is independent of n (fluid) or linear in tracked only (hybrid).
	MaxSimScaledN = 10_000_000
	// MaxSimTracked caps the hybrid tracked sample — the event-by-event
	// part of a hybrid request — at the DES processor cap.
	MaxSimTracked = MaxSimN
	// MaxSimReps caps the replications of one request.
	MaxSimReps = 64
	// MaxSimHorizon caps the simulated time span of one request.
	MaxSimHorizon = 1_000_000
)

// ErrEngineSpec tags engine-selection problems in a SimSpec: an unknown
// engine name, a tracked count the engine cannot honor, or an option
// combination outside the selected engine's supported set. The serving
// layer maps it to 422 Unprocessable Entity — the request is well-formed,
// but no backend can run it.
var ErrEngineSpec = errors.New("experiments: unprocessable engine spec")

// ErrWorkloadSpec tags workload-model problems in a SimSpec: an unknown
// service distribution, fit parameters outside the model's domain (an h2
// with SCV < 1, a Pareto with ratio <= 1), or an arrival spec beyond the
// serving caps. The serving layer maps it to 422 Unprocessable Entity with
// code "bad_workload", mirroring the bad_engine treatment: the request is
// well-formed, but names a workload no model provides.
var ErrWorkloadSpec = errors.New("experiments: unprocessable workload spec")

// SimSpec describes one finite-n simulation cell. wssim fills it from its
// flags and /v1/simulate decodes it from the request body; both convert it
// with the same body (Options for network callers, BatchOptions for the
// CLI) and render it with BuildSimReport. Defaults are sized for
// interactive serving (QuickScale-like), not the paper's 100,000-second
// batch runs. The Max* caps bind only Options.
type SimSpec struct {
	// Engine selects the simulation backend: des (default), fluid, or
	// hybrid. See sim.EngineKind.
	Engine string `json:"engine,omitempty"`
	// Tracked is the hybrid engine's event-simulated sample size
	// (default min(256, n), max MaxSimTracked; must be 0 for the other
	// engines).
	Tracked int `json:"tracked,omitempty"`
	// N is the processor count (default 64; max MaxSimN for the DES
	// engine, MaxSimScaledN for fluid and hybrid).
	N int `json:"n,omitempty"`
	// Lambda is the external per-processor arrival rate (0 for static runs).
	Lambda float64 `json:"lambda,omitempty"`
	// LambdaInt is the internal spawn rate while busy.
	LambdaInt float64 `json:"lambda_int,omitempty"`
	// Policy is the stealing discipline: none, steal (default), rebalance.
	Policy string `json:"policy,omitempty"`
	// Service is the service-time model: either a plain name — exp
	// (default), const, erlang, hyper, uniform, h2, pareto — or a
	// parameter object such as {"dist": "h2", "scv": 4}. See
	// workload.ServiceSpec for the full JSON forms.
	Service workload.ServiceSpec `json:"service"`
	// Arrivals is the arrival model: "poisson" (the default, equivalent
	// to omitting the field), an MMPP object, or an inline trace. Custom
	// arrival processes are DES-only and own the rate: Lambda must be 0.
	// See workload.ArrivalSpec for the JSON forms.
	Arrivals *workload.ArrivalSpec `json:"arrivals,omitempty"`
	// T, B, D, K and Half are the stealing parameters (defaults 2,0,1,1).
	T    int  `json:"t,omitempty"`
	B    int  `json:"b,omitempty"`
	D    int  `json:"d,omitempty"`
	K    int  `json:"k,omitempty"`
	Half bool `json:"half,omitempty"`
	// Retry, Transfer and Rebalance are the rate parameters.
	Retry     float64 `json:"retry,omitempty"`
	Transfer  float64 `json:"transfer,omitempty"`
	Rebalance float64 `json:"rebalance,omitempty"`
	// Initial is the initial tasks per processor (static runs).
	Initial int `json:"initial,omitempty"`
	// Horizon is the simulated time (default 8000, max MaxSimHorizon);
	// Warmup the discarded prefix (default 0).
	Horizon float64 `json:"horizon,omitempty"`
	Warmup  float64 `json:"warmup,omitempty"`
	// Reps is the number of replications (default 4, max MaxSimReps).
	Reps int `json:"reps,omitempty"`
	// Seed selects the random streams (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// QHist, when positive, samples a queue-length histogram of this depth.
	QHist int `json:"qhist,omitempty"`
}

// Normalize fills defaulted fields in place. Like sim.Options.normalize it
// also pins D and K to 1 under the steal policy, so specs that differ only
// in explicit-versus-implied defaults canonicalize identically.
func (s *SimSpec) Normalize() {
	if s.N == 0 {
		s.N = 64
	}
	if s.Engine == "" {
		s.Engine = "des"
	}
	if s.Engine == "hybrid" && s.Tracked == 0 {
		// Explicit and implied defaults canonicalize to the same cache key.
		s.Tracked = sim.DefaultTracked(s.N)
	}
	if s.Policy == "" {
		s.Policy = "steal"
	}
	s.Service.Normalize()
	if s.Arrivals != nil {
		s.Arrivals.Normalize()
		if s.Arrivals.IsPoisson() &&
			len(s.Arrivals.Rates) == 0 && len(s.Arrivals.Switch) == 0 &&
			len(s.Arrivals.Times) == 0 && s.Arrivals.Path == "" {
			// A parameter-free "poisson" is the default spelled out; drop it
			// so implied and explicit defaults share one cache entry.
			s.Arrivals = nil
		}
	}
	if s.Policy == "steal" {
		if s.T == 0 {
			s.T = 2
		}
		if s.D == 0 {
			s.D = 1
		}
		if s.K == 0 {
			s.K = 1
		}
	}
	if s.Horizon == 0 {
		s.Horizon = 8_000
	}
	if s.Reps == 0 {
		s.Reps = 4
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
}

// Options normalizes and validates the spec and converts it into runnable
// sim.Options, enforcing the serving-side resource caps (MaxSimN,
// MaxSimScaledN, MaxSimTracked, MaxSimReps, MaxSimHorizon) on top of the
// simulator's own validation. Network callers — the daemon and the
// cluster — use it.
func (s *SimSpec) Options() (sim.Options, error) { return s.options(true) }

// BatchOptions is Options without the serving caps, for the batch CLI: a
// wssim run may simulate any n, horizon, sample or replication count the
// simulator accepts.
func (s *SimSpec) BatchOptions() (sim.Options, error) { return s.options(false) }

// options is the one spec-to-options conversion behind Options and
// BatchOptions; capped adds the serving caps. Without them, a negative
// tracked count still fails in the simulator's own validation.
func (s *SimSpec) options(capped bool) (sim.Options, error) {
	s.Normalize()
	for name, v := range map[string]float64{
		"lambda": s.Lambda, "lambda_int": s.LambdaInt, "retry": s.Retry,
		"transfer": s.Transfer, "rebalance": s.Rebalance,
		"horizon": s.Horizon, "warmup": s.Warmup,
	} {
		if !numeric.Finite(v) {
			return sim.Options{}, fmt.Errorf("experiments: field %s = %v is not finite", name, v)
		}
	}
	if s.Lambda < 0 {
		return sim.Options{}, fmt.Errorf("experiments: negative arrival rate lambda = %v", s.Lambda)
	}
	kind, err := sim.ParseEngine(s.Engine)
	if err != nil {
		return sim.Options{}, fmt.Errorf("%w: %v", ErrEngineSpec, err)
	}
	if capped {
		if s.Tracked < 0 || s.Tracked > MaxSimTracked {
			return sim.Options{}, fmt.Errorf("%w: tracked = %d outside [0, %d]", ErrEngineSpec, s.Tracked, MaxSimTracked)
		}
		nCap := MaxSimN
		if kind != sim.EngineDES {
			nCap = MaxSimScaledN
		}
		if s.N > nCap {
			return sim.Options{}, fmt.Errorf("experiments: n = %d exceeds the %s-engine serving cap %d", s.N, kind, nCap)
		}
		if s.Reps < 1 || s.Reps > MaxSimReps {
			return sim.Options{}, fmt.Errorf("experiments: reps = %d outside [1, %d]", s.Reps, MaxSimReps)
		}
		if s.Horizon > MaxSimHorizon {
			return sim.Options{}, fmt.Errorf("experiments: horizon = %v exceeds the serving cap %v", s.Horizon, float64(MaxSimHorizon))
		}
	}
	if s.Reps < 1 {
		// Reached only uncapped; checked here so that the engine-tagged
		// validation below does not claim a bad count as an engine problem.
		return sim.Options{}, fmt.Errorf("experiments: reps = %d, want >= 1", s.Reps)
	}
	svc, err := s.Service.Distribution()
	if err != nil {
		return sim.Options{}, fmt.Errorf("%w: %v", ErrWorkloadSpec, err)
	}
	pk, err := parsePolicy(s.Policy)
	if err != nil {
		return sim.Options{}, err
	}
	o := sim.Options{
		Engine:         kind,
		Tracked:        s.Tracked,
		N:              s.N,
		Lambda:         s.Lambda,
		LambdaInt:      s.LambdaInt,
		Service:        svc,
		Policy:         pk,
		T:              s.T,
		B:              s.B,
		D:              s.D,
		K:              s.K,
		Half:           s.Half,
		RetryRate:      s.Retry,
		TransferRate:   s.Transfer,
		RebalanceRate:  s.Rebalance,
		InitialLoad:    s.Initial,
		Horizon:        s.Horizon,
		Warmup:         s.Warmup,
		Seed:           s.Seed,
		QueueHistDepth: s.QHist,
	}
	if s.Arrivals != nil {
		if capped {
			if err := arrivalCaps(s.Arrivals); err != nil {
				return sim.Options{}, fmt.Errorf("%w: %v", ErrWorkloadSpec, err)
			}
		}
		proc, err := s.Arrivals.Process()
		if err != nil {
			return sim.Options{}, fmt.Errorf("%w: %v", ErrWorkloadSpec, err)
		}
		o.Arrivals = proc
	}
	if err := (sim.Replication{Reps: s.Reps}).Validate(&o); err != nil {
		if kind != sim.EngineDES {
			// Option combinations the fluid/hybrid engines cannot
			// represent are engine-capability problems (422), not
			// malformed requests.
			return sim.Options{}, fmt.Errorf("%w: %v", ErrEngineSpec, err)
		}
		return sim.Options{}, err
	}
	return o, nil
}

// arrivalCaps enforces the serving caps on an arrival spec's size (MMPP
// phases, trace points) where ArrivalSpec.Validate used to check them —
// after the kind's parameter-mismatch checks, before any value is read —
// and with the same messages, so a served rejection reads as it always
// has. Sizes below one are Validate's to reject; here they keep the old
// capped message for the same reason.
func arrivalCaps(a *workload.ArrivalSpec) error {
	a.Normalize()
	switch a.Kind {
	case "mmpp":
		if len(a.Times) == 0 && a.Path == "" && (len(a.Rates) < 1 || len(a.Rates) > workload.MaxMMPPPhases) {
			return fmt.Errorf("workload: mmpp needs 1 to %d phase rates, got %d", workload.MaxMMPPPhases, len(a.Rates))
		}
	case "trace":
		if len(a.Rates) == 0 && len(a.Switch) == 0 && a.Path == "" && (len(a.Times) < 1 || len(a.Times) > workload.MaxTracePoints) {
			return fmt.Errorf("workload: trace needs 1 to %d arrival times, got %d", workload.MaxTracePoints, len(a.Times))
		}
	}
	return nil
}

// SimReport is the JSON shape of one aggregated simulation cell — the same
// layout wssim -json emits.
type SimReport struct {
	Engine   string          `json:"engine"`
	Tracked  int             `json:"tracked,omitempty"`
	N        int             `json:"n"`
	Lambda   float64         `json:"lambda"`
	Policy   string          `json:"policy"`
	Service  string          `json:"service"`
	Arrivals string          `json:"arrivals,omitempty"`
	Reps     int             `json:"reps"`
	Horizon  float64         `json:"horizon"`
	Warmup   float64         `json:"warmup"`
	Sojourn  stats.Summary   `json:"sojourn"`
	Load     stats.Summary   `json:"load"`
	Drain    stats.Summary   `json:"drain"`
	Tails    []float64       `json:"tails,omitempty"`
	Metrics  metrics.Summary `json:"metrics"`
}

// BuildSimReport renders the aggregate of a spec's replication set. The
// spec must be normalized and valid (Options does both). Service and
// Arrivals render as the built models' own descriptions, which the
// aggregate carries from the options it ran — "Exp(rate=1)",
// "mmpp(2 phases)" — so the CLI's -json output and the served report
// bytes stay identical.
func BuildSimReport(s *SimSpec, agg sim.Aggregate) SimReport {
	return SimReport{
		Engine:   s.Engine,
		Tracked:  s.Tracked,
		N:        s.N,
		Lambda:   s.Lambda,
		Policy:   s.Policy,
		Service:  agg.Service,
		Arrivals: agg.Arrivals,
		Reps:     s.Reps,
		Horizon:  s.Horizon,
		Warmup:   s.Warmup,
		Sojourn:  agg.Sojourn,
		Load:     agg.Load,
		Drain:    agg.Drain,
		Tails:    agg.Tails,
		Metrics:  agg.Metrics,
	}
}
