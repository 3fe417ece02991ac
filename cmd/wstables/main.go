// Command wstables regenerates the paper's evaluation tables (and the
// extension studies) by running the discrete-event simulator against the
// mean-field fixed-point estimates.
//
// Usage:
//
//	wstables [-table all|1|2|3|4|tails|threshold|repeated|multisteal|
//	          preemptive|rebalance|hetero|static|stability|convergence|
//	          transient|empirical-tails|relaxation|latency]
//	         [-full] [-reps N] [-horizon T] [-workers N] [-csv] [-json]
//	         [-metrics] [-cpuprofile FILE] [-memprofile FILE]
//
// By default a reduced scale runs in seconds; -full reproduces the paper's
// 10 × 100,000-second simulations for 16–128 processors (minutes).
//
// All requested tables share one global experiment scheduler: every
// (table, cell, replication) work item is flattened onto -workers pool
// workers (GOMAXPROCS by default), so `-table all` keeps every core busy
// instead of running cells one after another. The output is byte-identical
// for every worker count.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/table"
)

func main() {
	os.Exit(run())
}

// run holds the whole program so that deferred cleanups — most importantly
// the profile flushes — execute on every exit path; main's os.Exit would
// skip them.
func run() (code int) {
	// order is the canonical emission order of -table all, and names every
	// table in the -table help and the unknown-table error.
	order := []string{"1", "2", "3", "4", "tails", "threshold", "repeated", "multisteal", "preemptive", "rebalance", "hetero", "static", "stability", "convergence", "transient", "empirical-tails", "relaxation", "latency"}
	which := flag.String("table", "all", "which table to produce: all, "+strings.Join(order, ", "))
	full := flag.Bool("full", false, "use the paper's full simulation scale (10 reps × 100k seconds, n up to 128)")
	reps := flag.Int("reps", 0, "override the number of replications")
	horizon := flag.Float64("horizon", 0, "override the simulated horizon")
	seed := flag.Uint64("seed", 1998, "random seed")
	workers := flag.Int("workers", 0, "parallel simulation workers (0 = GOMAXPROCS)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	jsonFlag := flag.Bool("json", false, "emit JSON instead of aligned text")
	metricsFlag := flag.Bool("metrics", false, "append the simulation-metrics table (λ = 0.9)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	stopCPU, err := cliutil.StartCPUProfile(*cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wstables:", err)
		return 1
	}
	defer func() {
		stopCPU()
		if err := cliutil.WriteMemProfile(*memprofile); err != nil {
			fmt.Fprintln(os.Stderr, "wstables:", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	sc := experiments.QuickScale
	if *full {
		sc = experiments.PaperScale
	}
	sc.Seed = *seed
	if *reps > 0 {
		sc.Reps = *reps
	}
	if *horizon > 0 {
		sc.Horizon = *horizon
		sc.Warmup = *horizon / 10
	}

	// One scheduler for everything this invocation runs: all cells of all
	// tables interleave across its workers.
	pool := sched.New(*workers)
	defer pool.Close()
	sc.Pool = pool

	emit := func(t *table.Table) error {
		var err error
		switch {
		case *jsonFlag:
			err = t.WriteJSON(os.Stdout)
		case *csv:
			err = t.WriteCSV(os.Stdout)
		default:
			err = t.WriteText(os.Stdout)
		}
		if err != nil {
			return err
		}
		fmt.Println()
		return nil
	}

	builders := map[string]func() *table.Table{
		"1":          func() *table.Table { return experiments.Table1(sc) },
		"2":          func() *table.Table { return experiments.Table2(sc) },
		"3":          func() *table.Table { return experiments.Table3(sc) },
		"4":          func() *table.Table { return experiments.Table4(sc) },
		"tails":      func() *table.Table { return experiments.TailDecay(0.9) },
		"threshold":  func() *table.Table { return experiments.ThresholdSweep(0.9, []int{2, 3, 4, 5, 6, 8}) },
		"repeated":   func() *table.Table { return experiments.RepeatedSweep(0.9, 2, []float64{0, 0.5, 1, 2, 4, 8, 16}) },
		"multisteal": func() *table.Table { return experiments.MultiStealSweep(0.9, 8) },
		"preemptive": func() *table.Table { return experiments.PreemptiveSweep(0.9, []int{0, 1, 2, 3}, 5) },
		"rebalance":  func() *table.Table { return experiments.RebalanceStudy(0.9, []float64{0.5, 1, 2, 4}, sc) },
		"hetero":     func() *table.Table { return experiments.HeteroStudy(sc) },
		"static":     func() *table.Table { return experiments.StaticDrain(8, sc) },
		"stability":  func() *table.Table { return experiments.StabilityStudy([]float64{0.3, 0.5, 0.7, 0.8, 0.9, 0.95}) },
		"convergence": func() *table.Table {
			return experiments.ConvergenceInN(0.9, []int{8, 16, 32, 64, 128}, sc)
		},
		"transient": func() *table.Table {
			return experiments.TransientTable(0.9, 256, 60, 2, sc.Reps, sc.Seed)
		},
		"empirical-tails": func() *table.Table { return experiments.EmpiricalTails(0.9, 12, sc) },
		"relaxation":      func() *table.Table { return experiments.RelaxationStudy([]float64{0.3, 0.5, 0.7, 0.8, 0.9, 0.95}) },
		"latency":         func() *table.Table { return experiments.TailLatency(0.9, sc) },
	}

	switch *which {
	case "all":
		// Build every table concurrently — each builder enqueues its cells
		// on the shared pool and assembles its rows — then emit in the
		// canonical order.
		tables := make([]*table.Table, len(order))
		var wg sync.WaitGroup
		for i, k := range order {
			i, k := i, k
			wg.Add(1)
			go func() {
				defer wg.Done()
				tables[i] = builders[k]()
			}()
		}
		wg.Wait()
		for _, t := range tables {
			if err := emit(t); err != nil {
				fmt.Fprintln(os.Stderr, "wstables:", err)
				return 1
			}
		}
	default:
		b, ok := builders[*which]
		if !ok {
			fmt.Fprintf(os.Stderr, "wstables: unknown table %q (options: all, %s)\n", *which, strings.Join(order, ", "))
			return 2
		}
		if err := emit(b()); err != nil {
			fmt.Fprintln(os.Stderr, "wstables:", err)
			return 1
		}
	}
	if *metricsFlag {
		if err := emit(experiments.MetricsTable(0.9, sc)); err != nil {
			fmt.Fprintln(os.Stderr, "wstables:", err)
			return 1
		}
	}
	return 0
}
