// Command wssweep sweeps one model parameter and prints E[T] from the
// mean-field fixed point for each value — the quick way to explore design
// questions like "what threshold should I use for my transfer latency?".
//
// Examples:
//
//	wssweep -sweep threshold -lambda 0.9 -max 8
//	wssweep -sweep transfer-threshold -lambda 0.8 -r 0.25 -max 8
//	wssweep -sweep choices -lambda 0.95 -max 5
//	wssweep -sweep retry -lambda 0.9 -T 2
//	wssweep -sweep multisteal -lambda 0.9 -T 10
//	wssweep -sweep lambda -model simple
//
// Every row is the experiments.FixedPointSpec wsfixed would solve for the
// same model and parameters. A row the spec rejects exits 2 before any
// solve; a solve that fails exits 1.
//
// The swept values solve independently, so they run in parallel on -workers
// pool workers (GOMAXPROCS by default); rows are emitted in sweep order
// regardless of which solve finishes first.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/table"
)

func main() {
	os.Exit(run())
}

// run holds the whole program so that deferred cleanups — most importantly
// the profile flushes — execute on every exit path; main's os.Exit would
// skip them.
func run() (code int) {
	sweep := flag.String("sweep", "threshold", "parameter to sweep: threshold, transfer-threshold, choices, retry, multisteal, lambda")
	model := flag.String("model", "simple", "model for -sweep lambda: nosteal, simple, choices")
	lambda := flag.Float64("lambda", 0.9, "arrival rate")
	tFlag := flag.Int("T", 2, "victim threshold (for retry and multisteal sweeps)")
	rFlag := flag.Float64("r", 0.25, "transfer rate (for transfer-threshold sweep)")
	maxV := flag.Int("max", 8, "largest swept integer value")
	workers := flag.Int("workers", 0, "parallel solver workers (0 = GOMAXPROCS)")
	metricsFlag := flag.Bool("metrics", false, "add fixed-point metrics columns (E[L], utilization, steal success s_T)")
	jsonFlag := flag.Bool("json", false, "emit the table as JSON")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	stopCPU, err := cliutil.StartCPUProfile(*cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wssweep:", err)
		return 1
	}
	defer func() {
		stopCPU()
		if err := cliutil.WriteMemProfile(*memprofile); err != nil {
			fmt.Fprintln(os.Stderr, "wssweep:", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	// A zero spec field means "use the default", so a zero -T or -r would
	// be solved at the spec's default instead of being rejected.
	if *tFlag == 0 || *rFlag == 0 {
		fmt.Fprintln(os.Stderr, "wssweep: -T and -r must be nonzero")
		return 2
	}

	// Each swept value is one fixed-point spec, labelled in sweep order.
	type row struct {
		label string
		spec  experiments.FixedPointSpec
	}
	var rows []row
	add := func(label string, spec experiments.FixedPointSpec) { rows = append(rows, row{label, spec}) }
	lam := *lambda
	switch *sweep {
	case "threshold":
		for T := 2; T <= *maxV; T++ {
			add(fmt.Sprintf("T=%d", T), experiments.FixedPointSpec{Model: "threshold", Lambda: lam, T: T})
		}
	case "transfer-threshold":
		for T := 2; T <= *maxV; T++ {
			add(fmt.Sprintf("T=%d", T), experiments.FixedPointSpec{Model: "transfer", Lambda: lam, T: T, R: *rFlag})
		}
	case "choices":
		for d := 1; d <= *maxV; d++ {
			add(fmt.Sprintf("d=%d", d), experiments.FixedPointSpec{Model: "choices", Lambda: lam, T: 2, D: d})
		}
	case "retry":
		for _, r := range []float64{0, 0.25, 0.5, 1, 2, 4, 8, 16} {
			spec := experiments.FixedPointSpec{Model: "repeated", Lambda: lam, T: *tFlag, R: r}
			if r == 0 {
				// Repeated stealing without retries is threshold stealing
				// (same kernel and start); a zero R would mean r = 1.
				spec = experiments.FixedPointSpec{Model: "threshold", Lambda: lam, T: *tFlag}
			}
			add(fmt.Sprintf("r=%g", r), spec)
		}
	case "multisteal":
		for k := 1; 2*k <= *tFlag; k++ {
			add(fmt.Sprintf("k=%d", k), experiments.FixedPointSpec{Model: "multisteal", Lambda: lam, T: *tFlag, K: k})
		}
		add("k=⌈j/2⌉", experiments.FixedPointSpec{Model: "stealhalf", Lambda: lam, T: *tFlag})
	case "lambda":
		switch *model {
		case "nosteal", "simple", "choices":
		default:
			fmt.Fprintf(os.Stderr, "wssweep: unknown model %q\n", *model)
			return 2
		}
		for _, l := range []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99} {
			add(fmt.Sprintf("λ=%g", l), experiments.FixedPointSpec{Model: *model, Lambda: l})
		}
	default:
		fmt.Fprintf(os.Stderr, "wssweep: unknown sweep %q\n", *sweep)
		return 2
	}
	// Reject the whole sweep on the first bad row, before any solve.
	for i := range rows {
		if _, err := rows[i].spec.BuildModel(); err != nil {
			fmt.Fprintf(os.Stderr, "wssweep: %s: %v\n", rows[i].label, err)
			return 2
		}
	}

	// The rows solve in parallel on the shared pool, each into its
	// sweep-order slot.
	fps := make([]core.FixedPoint, len(rows))
	errs := make([]error, len(rows))
	pool := sched.New(*workers)
	for i := range rows {
		pool.Go(func(*sim.Runner) { _, fps[i], errs[i] = rows[i].spec.Solve() })
	}
	pool.Close() // waits for every job

	headers := []string{"value", "E[T]"}
	if *metricsFlag {
		headers = append(headers, "E[L]", "utilization", "s_T")
	}
	t := table.New(fmt.Sprintf("Sweep %s (λ = %g)", *sweep, *lambda), headers...)
	for i, r := range rows {
		if errs[i] != nil {
			fmt.Fprintf(os.Stderr, "wssweep: %s: %v\n", r.label, errs[i])
			return 1
		}
		fp := fps[i]
		cells := []string{r.label, fmt.Sprintf("%.4f", fp.SojournTime())}
		if *metricsFlag {
			sT := "-"
			if p, ok := fp.StealSuccessProb(r.spec.T); ok {
				sT = fmt.Sprintf("%.4f", p)
			}
			cells = append(cells, fmt.Sprintf("%.4f", fp.MeanTasks()),
				fmt.Sprintf("%.4f", fp.BusyFraction()), sT)
		}
		t.AddRow(cells...)
	}

	if *jsonFlag {
		err = t.WriteJSON(os.Stdout)
	} else {
		err = t.WriteText(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wssweep:", err)
		return 1
	}
	return 0
}
