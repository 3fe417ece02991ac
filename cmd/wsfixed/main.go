// Command wsfixed computes the mean-field fixed point of any model in the
// repository and prints its key metrics and leading tail entries.
//
// Usage:
//
//	wsfixed -model simple -lambda 0.9
//	wsfixed -model threshold -lambda 0.9 -T 3
//	wsfixed -model preemptive -lambda 0.9 -B 1 -T 4
//	wsfixed -model repeated -lambda 0.9 -T 2 -r 4
//	wsfixed -model choices -lambda 0.9 -T 2 -d 2
//	wsfixed -model multisteal -lambda 0.9 -T 6 -k 3
//	wsfixed -model stages -lambda 0.9 -c 20
//	wsfixed -model transfer -lambda 0.9 -T 4 -r 0.25
//	wsfixed -model rebalance -lambda 0.9 -r 2
//	wsfixed -model nosteal -lambda 0.9
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/meanfield"
)

func main() {
	os.Exit(run())
}

// run returns the process exit code instead of calling os.Exit so that
// deferred cleanups always execute and tests can drive it directly.
func run() int {
	// The flags fill the spec directly; their defaults are the spec's own,
	// except λ, which the spec leaves to the caller.
	var spec, def experiments.FixedPointSpec
	def.Normalize()
	flag.StringVar(&spec.Model, "model", def.Model, "model: "+strings.Join(experiments.FixedPointModels, ", "))
	flag.Float64Var(&spec.Lambda, "lambda", 0.9, "arrival rate λ in (0,1)")
	flag.IntVar(&spec.T, "T", def.T, "victim threshold")
	flag.IntVar(&spec.B, "B", def.B, "preemptive steal-begin level")
	flag.IntVar(&spec.D, "d", def.D, "victim choices")
	flag.IntVar(&spec.K, "k", def.K, "tasks per steal")
	flag.IntVar(&spec.C, "c", def.C, "Erlang stages per task")
	flag.Float64Var(&spec.R, "r", def.R, "rate parameter (retry, transfer, or rebalance rate)")
	flag.Float64Var(&spec.RA, "ra", def.RA, "retry rate for -model repeated-transfer")
	flag.Float64Var(&spec.LI, "li", def.LI, "internal spawn rate for -model spawning")
	flag.IntVar(&spec.Tails, "tails", def.Tails, "how many tail entries to print")
	metricsFlag := flag.Bool("metrics", false, "print the fixed point's observable metrics (utilization, idle fraction, steal success s_T)")
	jsonFlag := flag.Bool("json", false, "emit the fixed point as JSON")
	flag.Parse()

	// The spec reads a zero field as "use the default", so an explicit zero
	// would solve a model other than the one asked for.
	if name := cliutil.ExplicitZero("T", "d", "k", "c", "r", "ra", "li", "tails"); name != "" {
		msg := "-" + name + " must be nonzero"
		if name == "li" {
			msg = "-li 0 is threshold stealing: use -model threshold"
		}
		fmt.Fprintln(os.Stderr, "wsfixed:", msg)
		return 2
	}

	rep, fp, err := spec.Solve()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wsfixed:", err)
		return 1
	}
	if *jsonFlag {
		if err := cliutil.WriteJSON(os.Stdout, rep); err != nil {
			fmt.Fprintln(os.Stderr, "wsfixed:", err)
			return 1
		}
		return 0
	}
	fmt.Printf("model:            %s\n", rep.Model)
	fmt.Printf("dimension:        %d\n", rep.Dim)
	fmt.Printf("residual:         %.3e\n", rep.Residual)
	fmt.Printf("mean tasks E[L]:  %.6f\n", rep.MeanTasks)
	fmt.Printf("time in sys E[T]: %.6f   (no stealing: %.6f)\n",
		rep.SojournTime, meanfield.MM1SojournTime(spec.Lambda))
	fmt.Printf("tail decay ratio: %.6f   (no stealing: %.6f)\n", rep.TailRatio, spec.Lambda)
	if *metricsFlag {
		// The observable counterparts of the simulator's metrics layer:
		// what `wssim -metrics` should converge to for this model. The
		// FixedPoint helpers defer to core.Observer for the models whose
		// state is not a single tails vector (transfer, stages, ...).
		busy := fp.BusyFraction()
		fmt.Printf("utilization:      %.6f   (busy fraction)\n", busy)
		fmt.Printf("idle fraction:    %.6f\n", 1-busy)
		if sT, ok := fp.StealSuccessProb(spec.T); ok {
			fmt.Printf("steal success:    %.6f   (victim above threshold, T=%d)\n", sT, spec.T)
		}
	}
	fmt.Println("tails:")
	for i := 0; i < spec.Tails && i < rep.Dim; i++ {
		fmt.Printf("  π_%-3d = %.8f\n", i, fp.State[i])
	}
	return 0
}
