package sim

// Tests of the custom arrival-process threading (package workload) through
// the DES engine: Poisson degeneration, bursty MMPP, and trace replay.

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/workload"
)

func arrivalsBase() Options {
	return Options{
		N: 32, Service: dist.NewExponential(1),
		Policy: PolicySteal, T: 2,
		Horizon: 500, Warmup: 100, Seed: 1998,
		TailDepth: 4, SojournHistMax: 50,
	}
}

// A single-phase MMPP is definitionally the merged Poisson stream, and its
// source consumes the identical RNG draw sequence (one uniform for the
// processor, one exponential for the gap), so the run must be byte-identical
// to the native Lambda path: the arrival layer costs nothing when it
// degenerates to Poisson.
func TestArrivalsSinglePhaseMMPPMatchesPoisson(t *testing.T) {
	a := arrivalsBase()
	a.Lambda = 0.7
	ra, err := Run(a)
	if err != nil {
		t.Fatal(err)
	}
	b := arrivalsBase()
	b.Arrivals = workload.MMPP{Rates: []float64{0.7}}
	rb, err := Run(b)
	if err != nil {
		t.Fatal(err)
	}
	scrubResult(&ra)
	scrubResult(&rb)
	if !reflect.DeepEqual(ra, rb) {
		t.Errorf("single-phase MMPP differs from native Poisson:\n%+v\n%+v", ra, rb)
	}
}

// An on-off MMPP at the same mean rate must deliver the same long-run
// arrival volume but, by bunching arrivals into bursts, a strictly higher
// mean load than the Poisson stream.
func TestArrivalsMMPPBursty(t *testing.T) {
	o := arrivalsBase()
	o.Arrivals = workload.MMPP{Rates: []float64{1.4, 0}, Switch: []float64{1, 1}}
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.7 * float64(o.N) * o.Horizon
	if d := math.Abs(float64(arrived(r))-want) / want; d > 0.15 {
		t.Errorf("bursty arrivals %d, want ≈ %.0f (mean rate 0.7)", arrived(r), want)
	}
	p := arrivalsBase()
	p.Lambda = 0.7
	rp, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanLoad <= rp.MeanLoad {
		t.Errorf("bursty MeanLoad %v not above Poisson %v at equal mean rate", r.MeanLoad, rp.MeanLoad)
	}
}

// Trace replay delivers exactly the listed instants — deterministically in
// number across seeds — and the run ends at the horizon, not at drain.
func TestArrivalsTraceReplay(t *testing.T) {
	times := make([]float64, 200)
	for i := range times {
		times[i] = 0.25 * float64(i+1)
	}
	o := arrivalsBase()
	o.Warmup = 0
	o.Arrivals = workload.Trace{Times: times}
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if arrived(r) != int64(len(times)) {
		t.Errorf("trace delivered %d arrivals, want %d", arrived(r), len(times))
	}
	if r.End != o.Horizon {
		t.Errorf("trace run ended at %v, want horizon %v", r.End, o.Horizon)
	}
	o2 := o
	o2.Seed = 7
	r2, err := Run(o2)
	if err != nil {
		t.Fatal(err)
	}
	if arrived(r2) != arrived(r) {
		t.Errorf("trace arrival count varies with seed: %d vs %d", arrived(r2), arrived(r))
	}
	if r.Metrics.Departures != arrived(r) {
		t.Errorf("trace run completed %d of %d (horizon leaves ample drain time)", r.Metrics.Departures, arrived(r))
	}
	if !(r.MeanSojourn > 0) {
		t.Errorf("degenerate sojourn %v", r.MeanSojourn)
	}
}

// The arrival process owns the rate: combining it with Lambda or with
// heterogeneous classes is rejected up front.
func TestArrivalsValidate(t *testing.T) {
	o := arrivalsBase()
	o.Lambda = 0.5
	o.Arrivals = workload.MMPP{Rates: []float64{0.5}}
	if _, err := Run(o); err == nil {
		t.Error("Arrivals + Lambda accepted")
	}
	o = arrivalsBase()
	o.Arrivals = workload.Trace{Times: []float64{1}}
	o.Classes = []Class{{Frac: 0.5, Lambda: 0.5, Rate: 1.5}, {Frac: 0.5, Lambda: 0.5, Rate: 1}}
	if _, err := Run(o); err == nil {
		t.Error("Arrivals + Classes accepted")
	}
}
