package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/eventq"
	"repro/internal/experiments"
	"repro/internal/meanfield"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The layer panel times each compute layer on fixed probes, identical on
// every workload, by calling the layer's public functions. A change to a
// layer moves its panel numbers on every workload; the workload then shows
// whether that reaches the end-to-end metrics.

// sink keeps measured results alive so the compiler cannot drop the calls.
var sink float64

// timeCalls calls fn at least minCalls times and until minTotal has
// elapsed, and returns the median call time.
func timeCalls(minCalls int, minTotal time.Duration, fn func()) time.Duration {
	var ts []time.Duration
	var total time.Duration
	for len(ts) < minCalls || total < minTotal {
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		ts = append(ts, d)
		total += d
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts[len(ts)/2]
}

// hostRef times a fixed pure-Go kernel that calls no repository code: a
// 160×160 float64 matrix product, median of five. A slow reading marks a
// slow host phase, not a regression.
func hostRef() float64 {
	const n = 160
	a, b, c := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%97) / 97
		b[i] = float64(i%89) / 89
	}
	d := timeCalls(5, 0, func() {
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				aik := a[i*n+k]
				for j := 0; j < n; j++ {
					c[i*n+j] += aik * b[k*n+j]
				}
			}
		}
	})
	sink += c[n*n-1]
	return ms(d)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// panelLambda is the probe arrival rate of the mean-field panel; models
// with a cold-workload cap use the cap.
const panelLambda = 0.8

func panelSolves(out map[string]metric) error {
	for _, m := range experiments.FixedPointModels {
		l := panelLambda
		if v, ok := coldLambdaMax[m]; ok {
			l = v
		}
		var err error
		d := timeCalls(3, 50*time.Millisecond, func() {
			s := experiments.FixedPointSpec{Model: m, Lambda: l}
			if m == "multisteal" {
				s.T = 4
			}
			var rep experiments.FixedPointReport
			rep, _, err = s.SolveWith(meanfield.SolveOptions{})
			sink += rep.MeanTasks
		})
		if err != nil {
			return fmt.Errorf("panel solve %s: %w", m, err)
		}
		out["meanfield.solve_ms."+m] = metric{ms(d), "ms"}
	}
	for _, m := range experiments.ODEModels {
		var err error
		d := timeCalls(3, 50*time.Millisecond, func() {
			s := experiments.ODESpec{Model: m, Lambda: panelLambda}
			var rep experiments.ODEReport
			rep, err = s.Integrate()
			sink += rep.FinalLoad
		})
		if err != nil {
			return fmt.Errorf("panel ODE %s: %w", m, err)
		}
		out["meanfield.ode_ms."+m] = metric{ms(d), "ms"}
	}
	return nil
}

// panelEvents is the approximate event count of one DES probe run.
const panelEvents = 300_000

func desProbe(n int) (sim.Options, error) {
	s := experiments.SimSpec{N: n, Lambda: panelLambda, Policy: "steal", T: 2,
		Horizon: float64(panelEvents / (2 * n)), Reps: 1, Seed: 7}
	return s.Options()
}

func panelSim(out map[string]metric) error {
	var r sim.Runner
	for _, n := range []int{16, 64, 128, 4096} {
		o, err := desProbe(n)
		if err != nil {
			return err
		}
		r.RunRep(o, 0) // size the runner's engine for n
		var per []float64
		for rep := 1; rep <= 3; rep++ {
			t0 := time.Now()
			res := r.RunRep(o, rep)
			per = append(per, float64(time.Since(t0))/float64(res.Metrics.Events))
		}
		out[fmt.Sprintf("sim.des_ns_per_event.n%d", n)] = metric{stats.Median(per), "ns"}
	}
	o, err := desProbe(128)
	if err != nil {
		return err
	}
	r.RunRep(o, 0)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.RunRep(o, 1)
	runtime.ReadMemStats(&m1)
	out["sim.des_allocs_per_run"] = metric{float64(m1.Mallocs - m0.Mallocs), "count"}

	hs := experiments.SimSpec{Engine: "hybrid", Tracked: scaleTracked, N: scaleHybridN,
		Lambda: scaleLambdaHigh, Policy: "steal", T: 2, Horizon: scaleHybHorizon,
		Warmup: scaleHybWarmup, Reps: 1, Seed: 7}
	ho, err := hs.Options()
	if err != nil {
		return err
	}
	var wall, perEvent []float64
	for k := 0; k < 3; k++ {
		t0 := time.Now()
		res, err := sim.Run(ho)
		if err != nil {
			return err
		}
		d := time.Since(t0)
		wall = append(wall, ms(d))
		perEvent = append(perEvent, float64(d)/float64(res.Metrics.Events))
	}
	out["sim.hybrid_ms_per_rep"] = metric{stats.Median(wall), "ms"}
	out["sim.hybrid_ns_per_event"] = metric{stats.Median(perEvent), "ns"}
	return nil
}

// holdOps is the number of hold operations (PopMin, then Push of the
// event with an exponential time increment) per event-queue probe.
const holdOps = 1 << 20

func panelQueueRNG(out map[string]metric) {
	src := rng.New(7)
	incs := make([]float64, 1<<16)
	for i := range incs {
		incs[i] = src.Exp(1)
	}
	for _, n := range []int{64, 4096} {
		q := eventq.NewCalendar(n)
		for i := 0; i < n; i++ {
			q.Push(eventq.Event{Time: incs[i] * float64(n), Proc: int32(i)})
		}
		t0 := time.Now()
		for i := 0; i < holdOps; i++ {
			e := q.PopMin()
			e.Time += incs[i&(len(incs)-1)] * float64(n)
			q.Push(e)
		}
		out[fmt.Sprintf("eventq.hold_ns.n%d", n)] = metric{float64(time.Since(t0)) / holdOps, "ns"}
	}
	const draws = 1 << 22
	t0 := time.Now()
	var s float64
	for i := 0; i < draws; i++ {
		s += src.Exp(1)
	}
	out["rng.exp_ns"] = metric{float64(time.Since(t0)) / draws, "ns"}
	b := rng.NewBounded(4096)
	t0 = time.Now()
	var k int
	for i := 0; i < draws; i++ {
		k += b.Next(src)
	}
	out["rng.bounded_ns"] = metric{float64(time.Since(t0)) / draws, "ns"}
	sink += s + float64(k)
}

// panel runs every layer probe and returns its metrics.
func panel() (map[string]metric, error) {
	out := map[string]metric{}
	if err := panelSolves(out); err != nil {
		return nil, err
	}
	if err := panelSim(out); err != nil {
		return nil, err
	}
	panelQueueRNG(out)
	return out, nil
}
