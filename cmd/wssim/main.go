// Command wssim runs one work-stealing simulation configuration and prints
// its measurements with 95% confidence intervals over replications.
//
// The flags fill an experiments.SimSpec, the same spec a POST /v1/simulate
// body decodes into, and the run goes through the spec's conversion and
// report: a wssim run and a request with the same parameters run the same
// code. Two things differ from the daemon. wssim skips the serving caps
// (any n, horizon, tracked sample or replication count the simulator
// accepts runs), and its DES defaults are batch-sized: under -engine fluid
// or hybrid, unset -lambda, -horizon, -warmup and -reps fall back to
// serving-sized values. A static run (-initial without -lambda) drops the
// warmup. Zero-valued -n, -horizon, -reps and -seed take the spec defaults
// (64, 8000, 4 and 1), as an omitted request field does; so do an empty
// -policy (steal) and -T 0 under -policy steal (2).
//
// Exit status: 0 on success, 2 for a usage or spec error (flag parsing,
// an unreadable trace, or any combination the spec or engine rejects), 1
// when the run or the output fails.
//
// Examples:
//
//	wssim -n 128 -lambda 0.9 -policy steal -T 2
//	wssim -n 128 -lambda 0.9 -policy steal -T 2 -d 2
//	wssim -n 128 -lambda 0.8 -policy steal -T 4 -transfer 0.25
//	wssim -n 64 -policy steal -T 2 -retry 10 -initial 8    (static drain)
//	wssim -n 64 -lambda 0.9 -policy rebalance -rebalance 2
//	wssim -n 64 -lambda 0.9 -policy steal -T 2 -service const
//	wssim -n 64 -lambda 0.9 -T 2 -service h2 -scv 4     (bursty task sizes)
//	wssim -n 64 -lambda 0.9 -T 2 -service pareto -shape 1.5 -ratio 1000
//	wssim -n 64 -T 2 -arrivals mmpp -mmpp-rates 1.6,0.1 -mmpp-switch 0.5,0.5
//	wssim -n 64 -T 2 -trace arrivals.csv                (deterministic replay)
//	wssim -engine hybrid -n 1000000 -lambda 0.9 -T 2    (fluid bulk + tracked sample)
//	wssim -engine fluid -n 1000000 -lambda 0.9 -T 2     (pure mean-field integration)
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	os.Exit(run())
}

// run holds the whole program so that deferred cleanups — most importantly
// the profile flushes — execute on every exit path; main's os.Exit would
// skip them.
func run() (code int) {
	// The flags fill the spec directly, with wssim's batch-sized defaults.
	var spec experiments.SimSpec
	flag.StringVar(&spec.Engine, "engine", "des", "simulation engine: des, fluid, hybrid")
	flag.IntVar(&spec.Tracked, "tracked", 0, "hybrid tracked sample size (0 = min(256, n))")
	flag.IntVar(&spec.N, "n", 128, "number of processors")
	flag.Float64Var(&spec.Lambda, "lambda", 0, "external per-processor arrival rate")
	flag.Float64Var(&spec.LambdaInt, "lambda-int", 0, "internal spawn rate while busy")
	flag.StringVar(&spec.Policy, "policy", "steal", "policy: none, steal, rebalance")
	flag.StringVar(&spec.Service.Dist, "service", "exp", "service distribution: "+strings.Join(workload.ServiceDists, ", "))
	flag.IntVar(&spec.Service.Stages, "stages", 10, "stages for -service erlang")
	flag.Float64Var(&spec.Service.SCV, "scv", 0, "squared coefficient of variation for -service h2 (0 = default)")
	flag.Float64Var(&spec.Service.Shape, "shape", 0, "tail exponent for -service pareto (0 = default)")
	flag.Float64Var(&spec.Service.Ratio, "ratio", 0, "hi/lo bound ratio for -service pareto (0 = default)")
	arrivals := flag.String("arrivals", "", "arrival model: "+strings.Join(workload.ArrivalKinds, ", ")+" (empty = poisson)")
	mmppRates := flag.String("mmpp-rates", "", "comma-separated per-processor phase rates for -arrivals mmpp")
	mmppSwitch := flag.String("mmpp-switch", "", "comma-separated phase-exit rates for -arrivals mmpp")
	trace := flag.String("trace", "", "arrival trace file (JSON or CSV) for -arrivals trace")
	flag.IntVar(&spec.T, "T", 2, "victim threshold")
	flag.IntVar(&spec.B, "B", 0, "preemptive steal-begin level")
	flag.IntVar(&spec.D, "d", 1, "victim choices per attempt")
	flag.IntVar(&spec.K, "k", 1, "tasks per steal")
	flag.BoolVar(&spec.Half, "half", false, "steal half the victim's queue per success")
	flag.Float64Var(&spec.Retry, "retry", 0, "retry rate for idle thieves")
	flag.Float64Var(&spec.Transfer, "transfer", 0, "transfer completion rate (0 = instantaneous)")
	flag.Float64Var(&spec.Rebalance, "rebalance", 0, "rebalancing rate (policy rebalance)")
	flag.IntVar(&spec.Initial, "initial", 0, "initial tasks per processor (static runs)")
	flag.Float64Var(&spec.Horizon, "horizon", 100_000, "simulated time")
	flag.Float64Var(&spec.Warmup, "warmup", 10_000, "warmup time excluded from stats")
	flag.IntVar(&spec.Reps, "reps", 10, "independent replications")
	workers := flag.Int("workers", 0, "parallel replication workers (0 = GOMAXPROCS)")
	flag.Uint64Var(&spec.Seed, "seed", 1, "random seed")
	metricsFlag := flag.Bool("metrics", false, "report the observability metrics (utilization, steal rates, queue-length histogram)")
	qhist := flag.Int("qhist", 16, "queue-length histogram depth for -metrics")
	jsonFlag := flag.Bool("json", false, "emit results as JSON")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	arr, err := arrivalSpec(*arrivals, *mmppRates, *mmppSwitch, *trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wssim:", err)
		return 2
	}
	spec.Arrivals = arr
	if spec.Engine == "fluid" || spec.Engine == "hybrid" {
		// The DES batch defaults (λ = 0 static, 10⁵-second horizon, 10
		// replications) either reject outright or waste work under the
		// scaled engines; swap in serving-sized defaults for any flag the
		// user did not set. Explicit flags always win.
		set := make(map[string]bool)
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["lambda"] && arr.IsPoisson() {
			spec.Lambda = 0.9
			fmt.Fprintf(os.Stderr, "wssim: -engine %s defaulting to -lambda 0.9\n", spec.Engine)
		}
		if !set["horizon"] {
			spec.Horizon = 8000
		}
		if !set["warmup"] {
			spec.Warmup = 1000
		}
		if !set["reps"] {
			spec.Reps = 4
			if spec.Engine == "fluid" {
				spec.Reps = 1 // the fluid trajectory is deterministic
			}
		}
	}
	// Static runs drop the warmup by default.
	if spec.Lambda == 0 && spec.Initial > 0 {
		spec.Warmup = 0
	}
	if *metricsFlag {
		spec.QHist = *qhist
	}
	opts, err := spec.BatchOptions()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wssim:", err)
		return 2
	}

	stopCPU, err := cliutil.StartCPUProfile(*cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wssim:", err)
		return 1
	}
	defer func() {
		stopCPU()
		if err := cliutil.WriteMemProfile(*memprofile); err != nil {
			fmt.Fprintln(os.Stderr, "wssim:", err)
			if code == 0 {
				code = 1
			}
		}
	}()
	agg, err := sim.Replication{Reps: spec.Reps, Workers: *workers}.Run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wssim:", err)
		return 1
	}

	rep := experiments.BuildSimReport(&spec, agg)
	if *jsonFlag {
		if err := cliutil.WriteJSON(os.Stdout, rep); err != nil {
			fmt.Fprintln(os.Stderr, "wssim:", err)
			return 1
		}
		return 0
	}

	fmt.Printf("processors:       %d    service: %s    policy: %s\n", rep.N, rep.Service, rep.Policy)
	if rep.Arrivals != "" {
		fmt.Printf("arrivals:         %s\n", rep.Arrivals)
	}
	if rep.Engine != "des" {
		fmt.Printf("engine:           %s", rep.Engine)
		if rep.Engine == "hybrid" {
			fmt.Printf("    tracked sample: %d of %d", rep.Tracked, rep.N)
		}
		fmt.Println()
	}
	fmt.Printf("replications:     %d × horizon %.0f (warmup %.0f)\n", rep.Reps, rep.Horizon, rep.Warmup)
	if rep.Sojourn.N > 0 {
		fmt.Printf("time in system:   %s\n", rep.Sojourn)
	}
	fmt.Printf("tasks/processor:  %s\n", rep.Load)
	if rep.Drain.N > 0 {
		fmt.Printf("drain time:       %s\n", rep.Drain)
	}
	m := agg.Results[0].Metrics
	fmt.Printf("rep[0] detail:    arrived=%d completed=%d stealAttempts=%d stealSuccesses=%d rebalances=%d\n",
		m.Arrivals+m.Spawns, m.Departures, m.StealAttempts, m.StealSuccesses, m.Rebalances)

	if *metricsFlag {
		fmt.Println()
		if err := rep.Metrics.Table("Simulation metrics (95% CIs over replications)").WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "wssim:", err)
			return 1
		}
		if ht := rep.Metrics.HistTable("Queue-length distribution (sampled)"); ht != nil {
			fmt.Println()
			if err := ht.WriteText(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "wssim:", err)
				return 1
			}
		}
	}
	return 0
}

// arrivalSpec builds the arrival model from the workload flags, loading a
// -trace file into inline times. The kind is inferred when parameters
// imply it (-mmpp-rates → mmpp, -trace → trace); a nil result means the
// engine's native Poisson stream.
func arrivalSpec(kind, rates, switches, trace string) (*workload.ArrivalSpec, error) {
	if kind == "" {
		switch {
		case trace != "":
			kind = "trace"
		case rates != "":
			kind = "mmpp"
		case switches != "":
			return nil, fmt.Errorf("-mmpp-switch needs -arrivals mmpp")
		default:
			return nil, nil
		}
	}
	spec := &workload.ArrivalSpec{Kind: kind}
	var err error
	if rates != "" {
		if spec.Rates, err = parseFloats(rates); err != nil {
			return nil, fmt.Errorf("-mmpp-rates: %v", err)
		}
	}
	if switches != "" {
		if spec.Switch, err = parseFloats(switches); err != nil {
			return nil, fmt.Errorf("-mmpp-switch: %v", err)
		}
	}
	if trace != "" {
		if spec.Times, err = workload.LoadTrace(trace); err != nil {
			return nil, err
		}
	}
	return spec, nil
}

// parseFloats parses a comma-separated float list.
func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
