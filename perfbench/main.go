// Command perfbench is the repository's serving benchmark. It brings up an
// in-process serve.Server behind a loopback listener, drives it with a
// fixed, seed-generated request sequence from one closed-loop caller per
// CPU, checks every response against an in-process oracle, and prints one
// JSON result line.
//
// Run it from the root of a checkout through the build wrapper:
//
//	bash perfbench/run.sh --workload solve-hot --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// per-layer run instead. NOTES.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config holds the knobs of one run. Only seed, seconds and the trace mode
// come from the command line; tests shrink the rest to smoke size and
// plant a wrong oracle answer.
type config struct {
	seed    uint64
	seconds float64
	spanDir string // where the traced run writes its spans
	// mutate, when non-nil, corrupts every oracle answer before comparison.
	mutate func([]byte) []byte
}

func defaultConfig() config {
	return config{seed: 1, seconds: 10, spanDir: filepath.Join(".bench_build", "spans")}
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.seed, "seed", cfg.seed, "seed of the generated request sequence")
	seconds := fs.Int("seconds", int(cfg.seconds), "nominal length of the timed phase; fixes the request count")
	trace := fs.Int("trace", 0, "0 for the end-to-end run, 1 for the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg.seconds = float64(*seconds)
	runFn := endToEnd
	if *trace == 1 {
		runFn = traced
	}
	res, err := runFn(w, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s is %v\n", w.name, k, m.Value)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
