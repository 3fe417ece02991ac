package sim

// Byte-identity regression goldens for the pure-DES engine. Every stealing
// policy variant is run at three fixed seeds with every sampler enabled
// (tails, queue histogram, sojourn histogram, load series) and the full
// Result — measurements, counters, tail vectors, histograms — is compared
// byte-for-byte against a committed golden file.
//
// The goldens were generated BEFORE the engine-interface refactor that made
// the simulator pluggable (DES / fluid / hybrid), so a pass proves the
// restructuring preserved the DES event sequence and sampling exactly: the
// refactor is a pure refactor. Do not regenerate them as part of an engine
// restructuring; regenerate (go test -run TestDESGolden -update) only for an
// intentional behavior change.

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dist"
	"repro/internal/workload"
)

var updateGoldens = flag.Bool("update", false, "rewrite the DES golden files under testdata/goldens/")

// goldenSeeds are the pinned random seeds; 1998 is the suite-wide default,
// 7 and 42 guard against a seed-dependent accident.
var goldenSeeds = []uint64{7, 42, 1998}

// goldenCases enumerates one configuration per stealing discipline and
// option family at a small, fast scale (n=32, horizon 1500).
func goldenCases() map[string]Options {
	exp1 := dist.NewExponential(1)
	base := Options{
		N: 32, Lambda: 0.85, Service: exp1, Policy: PolicySteal, T: 2,
		Horizon: 1500, Warmup: 200,
		TailDepth: 6, QueueHistDepth: 8, SojournHistMax: 50, SeriesEvery: 100,
	}
	mut := func(f func(o *Options)) Options {
		o := base
		f(&o)
		return o
	}
	return map[string]Options{
		"steal":      base,
		"nosteal":    mut(func(o *Options) { o.Policy = PolicyNone; o.T = 0 }),
		"choices":    mut(func(o *Options) { o.D = 2 }),
		"multisteal": mut(func(o *Options) { o.T = 4; o.K = 2 }),
		"half":       mut(func(o *Options) { o.T = 4; o.Half = true }),
		"retry":      mut(func(o *Options) { o.RetryRate = 1 }),
		"transfer":   mut(func(o *Options) { o.T = 4; o.TransferRate = 0.25 }),
		"preemptive": mut(func(o *Options) { o.B = 1; o.T = 3 }),
		"spawning":   mut(func(o *Options) { o.Lambda = 0.85 * 0.7; o.LambdaInt = 0.3 }),
		"rebalance": mut(func(o *Options) {
			o.Policy = PolicyRebalance
			o.T = 0
			o.RebalanceRate = 1
		}),
		"hetero": mut(func(o *Options) {
			o.Lambda = 0
			o.Classes = []Class{
				{Frac: 0.5, Lambda: 0.5, Rate: 1.5},
				{Frac: 0.5, Lambda: 1.0, Rate: 1.0},
			}
		}),
		"static": mut(func(o *Options) {
			o.Lambda = 0
			o.InitialLoad = 4
			o.RetryRate = 5
			o.Warmup = 0
		}),
		// ties: a trace on the integer grid with unit deterministic
		// service keeps every event time integral, so departures tie
		// exactly with arrivals and only the calendar's seq tie-break
		// orders them.
		"ties": mut(func(o *Options) {
			o.Lambda = 0
			o.Arrivals = workload.Trace{Times: gridTrace(1, 1500)}
			o.Service = dist.NewDeterministic(1)
		}),
		// exp2: a service rate other than 1 keeps the division of the
		// exponential sample by its rate pinned.
		"exp2": mut(func(o *Options) {
			o.Lambda = 1.7
			o.Service = dist.NewExponential(2)
		}),
	}
}

// gridTrace returns system-wide arrival instants on the integer grid
// [from, to): between 23 and 31 arrivals at each instant, 27 on average
// (per-processor load about 0.85 at n=32).
func gridTrace(from, to int) []float64 {
	var times []float64
	for i := from; i < to; i++ {
		for k := 0; k < 23+(i*7)%9; k++ {
			times = append(times, float64(i))
		}
	}
	return times
}

// scrubResult zeroes the wall-clock fields, the only nondeterministic part
// of a Result.
func scrubResult(r *Result) {
	r.Metrics.WallSeconds = 0
	r.Metrics.EventsPerSec = 0
}

// goldenResult renders a Result in the layout the goldens were generated
// with, when Result still carried five counters mirrored from Metrics
// right after MeanLoad. The outer fields shadow the embedded Result's first
// three, so encoding/json keeps them in front; the mirrors are rebuilt from
// Metrics.
type goldenResult struct {
	MeanSojourn                                                   float64
	Measured                                                      int64
	MeanLoad                                                      float64
	Arrived, Completed, StealAttempts, StealSuccesses, Rebalances int64
	Result
}

func newGoldenResult(r Result) goldenResult {
	m := r.Metrics
	return goldenResult{r.MeanSojourn, r.Measured, r.MeanLoad,
		m.Arrivals + m.Spawns, m.Departures, m.StealAttempts, m.StealSuccesses, m.Rebalances, r}
}

// goldenRun executes the pinned seeds of one configuration and renders the
// scrubbed results as deterministic JSON.
func goldenRun(t *testing.T, o Options) []byte {
	t.Helper()
	out := make(map[string]goldenResult, len(goldenSeeds))
	for _, seed := range goldenSeeds {
		o.Seed = seed
		res, err := Run(o)
		if err != nil {
			t.Fatalf("Run(seed=%d): %v", seed, err)
		}
		scrubResult(&res)
		out[seedKey(seed)] = newGoldenResult(res)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func seedKey(seed uint64) string {
	switch seed {
	case 7:
		return "seed7"
	case 42:
		return "seed42"
	default:
		return "seed1998"
	}
}

func TestDESGoldenByteIdentity(t *testing.T) {
	for name, o := range goldenCases() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			got := goldenRun(t, o)
			golden := filepath.Join("testdata", "goldens", name+".golden.json")
			if *updateGoldens {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s", golden)
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (generate with -update BEFORE refactoring): %v", err)
			}
			if string(got) != string(want) {
				t.Errorf("DES output for %q drifted from its pre-refactor pin %s — the engine restructure changed behavior", name, golden)
			}
		})
	}
}

// TestDESGoldenFilesCommitted fails loudly if the pinned files disappear.
func TestDESGoldenFilesCommitted(t *testing.T) {
	if *updateGoldens {
		t.Skip("regenerating")
	}
	for name := range goldenCases() {
		p := filepath.Join("testdata", "goldens", name+".golden.json")
		if _, err := os.Stat(p); err != nil {
			t.Errorf("golden file %s missing: %v", p, err)
		}
	}
}

// hybridGoldenCases pins the hybrid engine the same way: a 16-processor
// tracked sample inside a 64-processor system, every sampler on, one case
// per coupling path — plain steal, idle retries, steal-half, and
// multi-task steals against the bulk and within the sample.
func hybridGoldenCases() map[string]Options {
	base := Options{
		Engine: EngineHybrid, Tracked: 16,
		N: 64, Lambda: 0.85, Service: dist.NewExponential(1), Policy: PolicySteal, T: 2,
		Horizon: 1500, Warmup: 200,
		TailDepth: 6, QueueHistDepth: 8, SojournHistMax: 50, SeriesEvery: 100,
	}
	mut := func(f func(o *Options)) Options {
		o := base
		f(&o)
		return o
	}
	return map[string]Options{
		"steal":      base,
		"retry":      mut(func(o *Options) { o.RetryRate = 1 }),
		"half":       mut(func(o *Options) { o.T = 4; o.Half = true }),
		"multisteal": mut(func(o *Options) { o.T = 4; o.K = 2 }),
	}
}

// TestHybridGoldenByteIdentity compares every hybrid case at the pinned
// seeds against testdata/goldens/hybrid.golden.json. The file was
// generated before the DES and hybrid engines were folded onto one shared
// processor core; regenerate (go test ./internal/sim -run TestHybridGolden
// -update) only for an intentional behavior change.
func TestHybridGoldenByteIdentity(t *testing.T) {
	out := make(map[string]json.RawMessage)
	for name, o := range hybridGoldenCases() {
		out[name] = goldenRun(t, o)
	}
	got, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "goldens", "hybrid.golden.json")
	if *updateGoldens {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing hybrid golden: %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("hybrid output drifted from its pin %s", golden)
	}
}
