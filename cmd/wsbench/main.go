// Command wsbench measures the repository's performance numbers and writes
// them to a machine-readable JSON file (BENCH_PR10.json at the repo root, by
// convention), so the perf trajectory across PRs is recorded next to the
// code rather than in commit messages.
//
// It reports two families of numbers:
//
//   - Engine throughput: ns per simulated event and heap allocations per
//     event for steady-state runs on a warmed (reused) engine — the numbers
//     the zero-alloc discipline in internal/sim pins.
//   - Experiment wall times: how long the paper's Tables 1–4 take at
//     QuickScale with 1 worker versus GOMAXPROCS workers on the global
//     scheduler, individually and with all four sharing one pool.
//
// It can also act as a regression gate: -compare OLD.json re-reads a
// committed baseline report and fails (exit 1) if any throughput config
// regressed by more than -maxregress (default 25%) in ns/event. Config
// matching is by name, so baselines from PRs with fewer configs still
// gate the ones they have. The generous threshold absorbs the run-to-run
// jitter of shared CI machines; catching a 2x cliff is the goal, not
// detecting single-digit drift.
//
// Usage:
//
//	wsbench [-out BENCH_PR10.json] [-runs 6] [-horizon 2000]
//	wsbench -tables=false -compare BENCH_PR8.json [-maxregress 0.25]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/table"
)

func main() {
	os.Exit(run())
}

// Throughput is one steady-state engine measurement.
type Throughput struct {
	Name           string  `json:"name"`
	Runs           int     `json:"runs"`
	Events         int64   `json:"events"`
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`
	AllocsPerRun   float64 `json:"allocs_per_run"`
}

// TableTiming is the wall time of one table builder at two worker counts.
type TableTiming struct {
	Table      string  `json:"table"`
	Workers1   float64 `json:"workers_1_sec"`
	WorkersMax float64 `json:"workers_max_sec"`
	Speedup    float64 `json:"speedup"`
}

// Report is the full BENCH file schema.
type Report struct {
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Horizon    float64 `json:"throughput_horizon"`

	Throughput []Throughput  `json:"throughput"`
	Tables     []TableTiming `json:"tables"`
	// TablesConcurrent is the wall time of building Tables 1–4 at once on
	// one shared GOMAXPROCS pool (the `wstables -table all` path) versus
	// the sum of the 1-worker times.
	TablesConcurrent float64 `json:"tables_concurrent_sec"`
	TablesSequential float64 `json:"tables_sequential_sec"`
	OverallSpeedup   float64 `json:"overall_speedup"`
}

func run() int {
	out := flag.String("out", "BENCH_PR10.json", "output JSON file (- for stdout)")
	runs := flag.Int("runs", 6, "measured steady-state runs per throughput config")
	horizon := flag.Float64("horizon", 2_000, "simulated horizon per throughput run")
	tables := flag.Bool("tables", true, "also time Tables 1-4 at QuickScale (the slow part)")
	compare := flag.String("compare", "", "baseline BENCH_*.json; exit 1 if ns/event regresses past -maxregress")
	maxRegress := flag.Float64("maxregress", 0.25, "allowed fractional ns/event regression against -compare")
	flag.Parse()

	rep := Report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Horizon:    *horizon,
	}

	base := sim.Options{
		N:       128,
		Lambda:  0.9,
		Service: dist.NewExponential(1),
		Policy:  sim.PolicySteal,
		T:       2,
		Horizon: *horizon,
		Warmup:  0,
		Seed:    1,
	}
	configs := []struct {
		name string
		mod  func(*sim.Options)
	}{
		{"steal K=1", func(o *sim.Options) {}},
		{"steal half", func(o *sim.Options) { o.Half = true }},
		{"two choices", func(o *sim.Options) { o.D = 2 }},
		{"no stealing", func(o *sim.Options) { o.Policy = sim.PolicyNone; o.T = 0 }},
	}
	for _, c := range configs {
		o := base
		c.mod(&o)
		t, err := measureThroughput(c.name, o, *runs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wsbench:", err)
			return 1
		}
		rep.Throughput = append(rep.Throughput, t)
	}

	if *tables {
		timeTables(&rep)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "wsbench:", err)
		return 1
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "wsbench:", err)
			return 1
		}
	}

	for _, t := range rep.Throughput {
		fmt.Printf("%-12s  %7.1f ns/event  %8.5f allocs/event  (%d events)\n",
			t.Name, t.NsPerEvent, t.AllocsPerEvent, t.Events)
	}
	for _, t := range rep.Tables {
		fmt.Printf("table %-2s      %6.2fs @ 1 worker   %6.2fs @ %d workers  (%.2fx)\n",
			t.Table, t.Workers1, t.WorkersMax, rep.GOMAXPROCS, t.Speedup)
	}
	if *tables {
		fmt.Printf("tables 1-4    %6.2fs sequential   %6.2fs shared pool    (%.2fx, %d CPUs)\n",
			rep.TablesSequential, rep.TablesConcurrent, rep.OverallSpeedup, rep.NumCPU)
	}
	if *out != "-" {
		fmt.Printf("wrote %s\n", *out)
	}
	if *compare != "" {
		if err := compareBaseline(&rep, *compare, *maxRegress); err != nil {
			fmt.Fprintln(os.Stderr, "wsbench:", err)
			return 1
		}
	}
	return 0
}

// compareBaseline checks the fresh throughput numbers against a committed
// baseline report and errors if any config sharing a name regressed in
// ns/event beyond the allowed fraction. Configs present on only one side
// are reported and skipped — the gate compares what both reports measured.
func compareBaseline(rep *Report, path string, maxRegress float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	old := make(map[string]Throughput, len(base.Throughput))
	for _, t := range base.Throughput {
		old[t.Name] = t
	}
	fmt.Printf("\nvs %s (max allowed regression %+.0f%%):\n", path, 100*maxRegress)
	var failed []string
	for _, t := range rep.Throughput {
		b, ok := old[t.Name]
		if !ok {
			fmt.Printf("%-12s  %7.1f ns/event  (no baseline, skipped)\n", t.Name, t.NsPerEvent)
			continue
		}
		delta := t.NsPerEvent/b.NsPerEvent - 1
		verdict := "ok"
		if delta > maxRegress {
			verdict = "REGRESSION"
			failed = append(failed, t.Name)
		}
		fmt.Printf("%-12s  %7.1f -> %6.1f ns/event  %+6.1f%%  %s\n",
			t.Name, b.NsPerEvent, t.NsPerEvent, 100*delta, verdict)
	}
	if len(failed) > 0 {
		return fmt.Errorf("ns/event regressed past %.0f%% on: %v", 100*maxRegress, failed)
	}
	return nil
}

// timeTables fills in the experiment wall-time section of the report.
func timeTables(rep *Report) {
	sc := experiments.QuickScale
	builders := []struct {
		name  string
		build func(experiments.Scale) *table.Table
	}{
		{"1", experiments.Table1},
		{"2", experiments.Table2},
		{"3", experiments.Table3},
		{"4", experiments.Table4},
	}
	var seq float64
	for _, b := range builders {
		t1 := timeTable(b.build, sc, 1)
		tn := timeTable(b.build, sc, 0)
		seq += t1
		rep.Tables = append(rep.Tables, TableTiming{
			Table:      b.name,
			Workers1:   t1,
			WorkersMax: tn,
			Speedup:    t1 / tn,
		})
	}
	rep.TablesSequential = seq

	// All four tables concurrently on one shared pool, as `wstables -table
	// all` runs them.
	pool := sched.New(0)
	scShared := sc
	scShared.Pool = pool
	start := time.Now()
	var wg sync.WaitGroup
	for _, b := range builders {
		b := b
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.build(scShared)
		}()
	}
	wg.Wait()
	pool.Close()
	rep.TablesConcurrent = time.Since(start).Seconds()
	rep.OverallSpeedup = rep.TablesSequential / rep.TablesConcurrent
}

// measureThroughput runs opts on one warmed Runner `runs` times and reports
// per-event cost. The first run (which grows the engine's buffers) is
// excluded, so the numbers reflect the steady reuse path that replications
// 2..R of every cell take.
func measureThroughput(name string, o sim.Options, runs int) (Throughput, error) {
	if err := (sim.Replication{Reps: 1}).Validate(&o); err != nil {
		return Throughput{}, err
	}
	var r sim.Runner
	r.RunRep(o, 0) // warm: allocate engine, grow buffers

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var events int64
	for i := 0; i < runs; i++ {
		res := r.RunRep(o, i+1)
		events += res.Metrics.Events
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	allocs := float64(after.Mallocs - before.Mallocs)
	bytes := float64(after.TotalAlloc - before.TotalAlloc)
	return Throughput{
		Name:           name,
		Runs:           runs,
		Events:         events,
		NsPerEvent:     float64(elapsed.Nanoseconds()) / float64(events),
		AllocsPerEvent: allocs / float64(events),
		BytesPerEvent:  bytes / float64(events),
		AllocsPerRun:   allocs / float64(runs),
	}, nil
}

// timeTable builds one table with a private pool of the given size and
// returns the wall time in seconds, pool start-up and shutdown included.
func timeTable(build func(experiments.Scale) *table.Table, sc experiments.Scale, workers int) float64 {
	start := time.Now()
	sc.Pool = sched.New(workers)
	build(sc)
	sc.Pool.Close()
	return time.Since(start).Seconds()
}
