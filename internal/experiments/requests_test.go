package experiments

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/meanfield"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestFixedPointSpecDefaults(t *testing.T) {
	s := FixedPointSpec{Model: "simple", Lambda: 0.9}
	s.Normalize()
	if s.T != 2 || s.D != 2 || s.K != 2 || s.C != 10 || s.Tails != 12 {
		t.Errorf("defaults not filled: %+v", s)
	}
	if s.R != 1 || s.RA != 1 || s.LI != 0.3 {
		t.Errorf("rate defaults not filled: %+v", s)
	}
}

// TestFixedPointSolveMatchesDirect: the request path must agree with
// driving the meanfield package by hand.
func TestFixedPointSolveMatchesDirect(t *testing.T) {
	s := FixedPointSpec{Model: "threshold", Lambda: 0.8, T: 3}
	rep, fp, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	m := meanfield.NewThreshold(0.8, 3)
	want, err := meanfield.Solve(m, meanfield.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Model != m.Name() || rep.Dim != m.Dim() {
		t.Errorf("report identity = %s/%d, want %s/%d", rep.Model, rep.Dim, m.Name(), m.Dim())
	}
	if rep.MeanTasks != want.MeanTasks() || rep.SojournTime != want.SojournTime() {
		t.Errorf("report means = %v/%v, want %v/%v",
			rep.MeanTasks, rep.SojournTime, want.MeanTasks(), want.SojournTime())
	}
	if fp.Residual != want.Residual {
		t.Errorf("residual = %v, want %v", fp.Residual, want.Residual)
	}
	if len(rep.Tails) != min(12, m.Dim()) {
		t.Errorf("len(tails) = %d", len(rep.Tails))
	}
}

func TestFixedPointSpecRejects(t *testing.T) {
	cases := []FixedPointSpec{
		{Model: "simple", Lambda: -0.5},
		{Model: "simple", Lambda: 1.5},
		{Model: "simple", Lambda: math.NaN()},
		{Model: "simple", Lambda: math.Inf(1)},
		{Model: "nosuch", Lambda: 0.5},
		{Model: "threshold", Lambda: 0.5, T: -1},
		{Model: "multisteal", Lambda: 0.5, T: 2, K: 2}, // constructor panic: T < 2K
	}
	for _, s := range cases {
		if _, err := s.BuildModel(); err == nil {
			t.Errorf("BuildModel(%+v) accepted", s)
		}
	}
}

func TestODESpecValidate(t *testing.T) {
	good := ODESpec{Model: "choices", Lambda: 0.95, D: 3}
	if _, err := good.BuildModel(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	bad := []ODESpec{
		{Model: "transfer", Lambda: 0.9},           // not in the ODE set
		{Model: "simple", Lambda: 0.9, Span: -1},   // negative span
		{Model: "simple", Lambda: 0.9, Dt: 1e-308}, // span/dt explodes
		{Model: "simple", Lambda: 0},               // zero rate survives Normalize
	}
	for _, s := range bad {
		if _, err := s.BuildModel(); err == nil {
			t.Errorf("BuildModel(%+v) accepted", s)
		}
	}
}

// TestODEIntegrateConverges: the trajectory must approach the fixed point
// and report a settle time within the span.
func TestODEIntegrateConverges(t *testing.T) {
	s := ODESpec{Model: "simple", Lambda: 0.9}
	rep, err := s.Integrate()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Times) == 0 || len(rep.Times) != len(rep.Loads) || len(rep.Times) != len(rep.Distances) {
		t.Fatalf("ragged trajectory: %d/%d/%d points", len(rep.Times), len(rep.Loads), len(rep.Distances))
	}
	if rep.SettleTime < 0 {
		t.Errorf("trajectory never settled within span %v", s.Span)
	}
	if rep.FinalDistance > 0.01*rep.FixedPoint {
		t.Errorf("final distance %v still above the 1%% band of %v", rep.FinalDistance, rep.FixedPoint)
	}
}

// TestTrajectoryEarlyStop: yield returning false halts integration.
func TestTrajectoryEarlyStop(t *testing.T) {
	s := ODESpec{Model: "simple", Lambda: 0.9}
	n := 0
	if err := s.Trajectory(func(p ODEPoint) bool {
		n++
		return n < 5
	}); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("yield ran %d times, want 5", n)
	}
}

func TestSimSpecOptions(t *testing.T) {
	s := SimSpec{N: 16, Lambda: 0.8, Horizon: 1200, Warmup: 100, Reps: 2, Seed: 7}
	o, err := s.Options()
	if err != nil {
		t.Fatal(err)
	}
	if o.N != 16 || o.Lambda != 0.8 || o.Horizon != 1200 || o.Warmup != 100 || o.Seed != 7 {
		t.Errorf("options mismatch: %+v", o)
	}
	if err := o.Validate(); err != nil {
		t.Errorf("emitted options invalid: %v", err)
	}
	// Replications through the spec path match the direct path.
	agg, err := sim.Replication{Reps: 2}.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	rep := BuildSimReport(&s, agg)
	if rep.N != 16 || rep.Reps != 2 || rep.Policy != "steal" {
		t.Errorf("report identity: %+v", rep)
	}
	if rep.Sojourn.Mean != agg.Sojourn.Mean || rep.Load.Mean != agg.Load.Mean {
		t.Errorf("report stats diverge from aggregate")
	}
}

func TestSimSpecCaps(t *testing.T) {
	cases := []struct {
		name string
		s    SimSpec
	}{
		{"n over cap", SimSpec{N: MaxSimN + 1, Lambda: 0.8}},
		{"reps over cap", SimSpec{N: 16, Lambda: 0.8, Reps: MaxSimReps + 1}},
		{"horizon over cap", SimSpec{N: 16, Lambda: 0.8, Horizon: MaxSimHorizon + 1}},
		{"negative lambda", SimSpec{N: 16, Lambda: -0.8}},
		{"nan warmup", SimSpec{N: 16, Lambda: 0.8, Warmup: math.NaN()}},
		{"unknown policy", SimSpec{N: 16, Lambda: 0.8, Policy: "nosuch"}},
		{"unknown service", SimSpec{N: 16, Lambda: 0.8, Service: workload.ServiceSpec{Dist: "nosuch"}}},
	}
	for _, tc := range cases {
		if _, err := tc.s.Options(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestSimSpecArrivalCaps: the serving caps on arrival specs — trace points
// and MMPP phases — bind Options with the messages ArrivalSpec.Validate
// used to give, and leave BatchOptions free: a batch run replays any trace.
func TestSimSpecArrivalCaps(t *testing.T) {
	long := make([]float64, workload.MaxTracePoints+1)
	for i := range long {
		long[i] = float64(i) / 100
	}
	phases := make([]float64, workload.MaxMMPPPhases+1)
	for i := range phases {
		phases[i] = 1
	}
	for _, tc := range []struct {
		arr  workload.ArrivalSpec
		want string
	}{
		{workload.ArrivalSpec{Kind: "trace", Times: long},
			"workload: trace needs 1 to 100000 arrival times, got 100001"},
		{workload.ArrivalSpec{Kind: "trace"},
			"workload: trace needs 1 to 100000 arrival times, got 0"},
		{workload.ArrivalSpec{Kind: "mmpp", Rates: phases, Switch: phases},
			"workload: mmpp needs 1 to 8 phase rates, got 9"},
	} {
		arr := tc.arr
		s := SimSpec{N: 16, Horizon: 100, Warmup: 10, Reps: 1, Arrivals: &arr}
		_, err := s.Options()
		if !errors.Is(err, ErrWorkloadSpec) || !strings.HasSuffix(err.Error(), ": "+tc.want) {
			t.Errorf("Options(%s, %d points): %v, want ErrWorkloadSpec ending %q", arr.Kind, len(arr.Times)+len(arr.Rates), err, tc.want)
		}
		if len(arr.Times)+len(arr.Rates) == 0 {
			continue // empty: rejected uncapped too
		}
		b := tc.arr
		s = SimSpec{N: 16, Horizon: 100, Warmup: 10, Reps: 1, Arrivals: &b}
		if _, err := s.BatchOptions(); err != nil {
			t.Errorf("BatchOptions(%s, %d points): %v", b.Kind, len(b.Times)+len(b.Rates), err)
		}
	}
}

// TestSimSpecBatchOptions: the batch entry point runs the same conversion
// without the serving caps. Specs beyond a cap convert, specs within the
// caps convert to the same options as Options, and the simulator's own
// validation still rejects what no engine can run.
func TestSimSpecBatchOptions(t *testing.T) {
	for _, s := range []SimSpec{
		{N: MaxSimN + 1, Lambda: 0.8},
		{N: 16, Lambda: 0.8, Reps: MaxSimReps + 1},
		{N: 16, Lambda: 0.8, Horizon: MaxSimHorizon + 1},
		{Engine: "hybrid", N: 2 * MaxSimTracked, Tracked: MaxSimTracked + 1, Lambda: 0.8},
	} {
		capped := s
		if _, err := capped.Options(); err == nil {
			t.Errorf("Options accepted %+v beyond a serving cap", s)
		}
		if _, err := s.BatchOptions(); err != nil {
			t.Errorf("BatchOptions rejected %+v: %v", s, err)
		}
	}

	a := SimSpec{N: 16, Service: workload.ServiceSpec{Dist: "erlang", Stages: 4},
		Arrivals: &workload.ArrivalSpec{Kind: "mmpp", Rates: []float64{1.6, 0.1}, Switch: []float64{0.5, 0.5}}}
	b := a
	oa, errA := a.Options()
	ob, errB := b.BatchOptions()
	if errA != nil || errB != nil {
		t.Fatalf("in-cap spec: Options %v, BatchOptions %v", errA, errB)
	}
	if !reflect.DeepEqual(oa, ob) {
		t.Errorf("Options and BatchOptions differ within the caps:\n%+v\n%+v", oa, ob)
	}

	for _, s := range []SimSpec{
		{N: 16, Lambda: 0.8, Reps: -1},
		{N: 16, Lambda: 0.8, Tracked: -1},
		{Engine: "hybrid", N: 16, Lambda: 0.8, Tracked: 32},
	} {
		if _, err := s.BatchOptions(); err == nil {
			t.Errorf("BatchOptions accepted %+v", s)
		}
	}
	h := SimSpec{Engine: "hybrid", N: 64, Lambda: 0.8, Reps: -1}
	if _, err := h.BatchOptions(); err == nil || errors.Is(err, ErrEngineSpec) {
		t.Errorf("hybrid reps = -1: got %v, want a plain spec error", err)
	}
}

// TestSimSpecWorkload covers the workload threading: parameter-free
// poisson arrivals collapse to the implied default, workload failures
// carry ErrWorkloadSpec, and a custom arrival process reaches the
// simulator and the report.
func TestSimSpecWorkload(t *testing.T) {
	p := SimSpec{N: 16, Lambda: 0.8, Arrivals: &workload.ArrivalSpec{Kind: "poisson"}}
	p.Normalize()
	if p.Arrivals != nil {
		t.Error("parameter-free poisson arrivals did not collapse to nil")
	}

	s := SimSpec{N: 16, Lambda: 0.8, Service: workload.ServiceSpec{Dist: "h2", SCV: -1}}
	if _, err := s.Options(); !errors.Is(err, ErrWorkloadSpec) {
		t.Errorf("negative SCV error %v does not wrap ErrWorkloadSpec", err)
	}
	a := SimSpec{N: 16, Arrivals: &workload.ArrivalSpec{Kind: "trace"}}
	if _, err := a.Options(); !errors.Is(err, ErrWorkloadSpec) {
		t.Errorf("empty trace error %v does not wrap ErrWorkloadSpec", err)
	}

	m := SimSpec{N: 16,
		Arrivals: &workload.ArrivalSpec{Kind: "mmpp", Rates: []float64{1.4, 0}, Switch: []float64{1, 1}},
		Horizon:  300, Warmup: 50, Reps: 1}
	o, err := m.Options()
	if err != nil {
		t.Fatal(err)
	}
	if o.Arrivals == nil || o.Arrivals.Name() != "mmpp(2 phases)" {
		t.Errorf("arrival process not threaded: %+v", o.Arrivals)
	}
	agg, err := sim.Replication{Reps: 1}.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	rep := BuildSimReport(&m, agg)
	if rep.Arrivals != "mmpp(2 phases)" || !strings.HasPrefix(rep.Service, "Exp(") {
		t.Errorf("report workload labels: service %q arrivals %q", rep.Service, rep.Arrivals)
	}
}

func TestServiceDistAndPolicy(t *testing.T) {
	dist := func(name string, stages int) error {
		_, err := (&workload.ServiceSpec{Dist: name, Stages: stages}).Distribution()
		return err
	}
	for _, name := range []string{"exp", "const", "erlang", "hyper", "uniform"} {
		if err := dist(name, 10); err != nil {
			t.Errorf("service %q: %v", name, err)
		}
	}
	if dist("bogus", 0) == nil {
		t.Error("accepted bogus service name")
	}
	if dist("erlang", -1) == nil {
		t.Error("accepted negative stage count")
	}
	for _, name := range []string{"none", "steal", "rebalance"} {
		if _, err := parsePolicy(name); err != nil {
			t.Errorf("parsePolicy(%q): %v", name, err)
		}
	}
	if _, err := parsePolicy("bogus"); err == nil {
		t.Error("parsePolicy accepted bogus name")
	}
}

// TestSpecErrorsNamePackage: request-validation errors surface to HTTP
// clients, so they must be prefixed and descriptive, never raw panics.
func TestSpecErrorsNamePackage(t *testing.T) {
	s := FixedPointSpec{Model: "multisteal", Lambda: 0.5, T: 2, K: 2}
	_, err := s.BuildModel()
	if err == nil || !strings.Contains(err.Error(), "experiments:") {
		t.Errorf("constructor panic not converted to package error: %v", err)
	}
}
