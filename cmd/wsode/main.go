// Command wsode integrates a mean-field model's differential equations from
// the empty system and prints the trajectory as CSV — time, expected time in
// system (via Little's law once warm), mean tasks per processor, and the
// distance to the fixed point. Useful for studying convergence behavior
// (Section 4 of the paper).
//
// Example:
//
//	wsode -model simple -lambda 0.9 -span 200 -dt 1
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/asciiplot"
	"repro/internal/cliutil"
	"repro/internal/experiments"
)

func main() {
	os.Exit(run())
}

// run returns the process exit code instead of calling os.Exit so that
// deferred cleanups always execute and tests can drive it directly.
func run() int {
	// The flags fill the spec directly; their defaults are the spec's own,
	// except λ, which the spec leaves to the caller.
	var spec, def experiments.ODESpec
	def.Normalize()
	flag.StringVar(&spec.Model, "model", def.Model, "model: "+strings.Join(experiments.ODEModels, ", "))
	flag.Float64Var(&spec.Lambda, "lambda", 0.9, "arrival rate")
	flag.IntVar(&spec.T, "T", def.T, "victim threshold")
	flag.IntVar(&spec.D, "d", def.D, "victim choices")
	flag.Float64Var(&spec.Span, "span", def.Span, "integration span")
	flag.Float64Var(&spec.Dt, "dt", def.Dt, "output sampling interval")
	plot := flag.Bool("plot", false, "render an ASCII chart of the mean load instead of CSV")
	metricsFlag := flag.Bool("metrics", false, "print convergence metrics of the trajectory instead of CSV")
	jsonFlag := flag.Bool("json", false, "emit the trajectory (and metrics) as JSON")
	flag.Parse()

	// The spec reads a zero field as "use the default", so an explicit zero
	// would solve a model other than the one asked for.
	if name := cliutil.ExplicitZero("T", "d", "span", "dt"); name != "" {
		fmt.Fprintf(os.Stderr, "wsode: -%s must be nonzero\n", name)
		return 2
	}

	rep, err := spec.Integrate()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wsode:", err)
		return 1
	}
	times, loads, dists := rep.Times, rep.Loads, rep.Distances

	if *plot {
		chart, err := asciiplot.Render(asciiplot.Options{
			Title:  fmt.Sprintf("%s: mean load from empty (fixed point %.4f)", rep.Model, rep.FixedPoint),
			Width:  72,
			Height: 18,
		}, asciiplot.Series{Name: "mean tasks per processor", Xs: times, Ys: loads})
		if err != nil {
			fmt.Fprintln(os.Stderr, "wsode:", err)
			return 1
		}
		fmt.Print(chart)
		return 0
	}

	if *jsonFlag {
		if err := cliutil.WriteJSON(os.Stdout, rep); err != nil {
			fmt.Fprintln(os.Stderr, "wsode:", err)
			return 1
		}
		return 0
	}
	if *metricsFlag {
		fmt.Printf("model:             %s\n", rep.Model)
		fmt.Printf("fixed point E[L]:  %.6f\n", rep.FixedPoint)
		fmt.Printf("final load:        %.6f  (at t = %.1f)\n", rep.FinalLoad, times[len(times)-1])
		fmt.Printf("final L1 distance: %.3e\n", rep.FinalDistance)
		if rep.SettleTime >= 0 {
			fmt.Printf("settle time (1%%):  %.1f\n", rep.SettleTime)
		} else {
			fmt.Printf("settle time (1%%):  not reached within span %.1f\n", spec.Span)
		}
		return 0
	}
	fmt.Println("t,mean_tasks,sojourn_estimate,l1_distance_to_fixed_point")
	for i := range times {
		fmt.Printf("%.3f,%.6f,%.6f,%.6e\n",
			times[i], loads[i], loads[i]/spec.Lambda, dists[i])
	}
	return 0
}
