package sim

// Without stealing, each simulated processor is an independent M/G/1 queue,
// so the Pollaczek–Khinchine formula predicts the mean sojourn time exactly
// for ANY service distribution. These tests validate the simulator's
// service-time machinery against that independent baseline.

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/numeric"
)

// pkSojourn is the Pollaczek–Khinchine mean sojourn time of an M/G/1
// queue with arrival rate λ: E[S] + λ·E[S²] / (2(1−ρ)), ρ = λ·E[S].
func pkSojourn(lambda float64, svc dist.Distribution) float64 {
	m := svc.Mean()
	es2 := svc.Var() + m*m
	return m + lambda*es2/(2*(1-lambda*m))
}

// erlangC is the Erlang-C waiting probability of an M/M/c queue with
// arrival rate λ and c unit-rate servers, from the stable Erlang-B
// recurrence B(k) = a·B(k−1) / (k + a·B(k−1)), a = λ.
func erlangC(lambda float64, c int) float64 {
	b := 1.0
	for k := 1; k <= c; k++ {
		b = lambda * b / (float64(k) + lambda*b)
	}
	rho := lambda / float64(c)
	return b / (1 - rho*(1-b))
}

// mmcSojourn is the mean sojourn time of an M/M/c queue with arrival rate
// λ and c unit-rate servers: the Erlang-C waiting probability over the
// spare capacity c − λ, plus one service.
func mmcSojourn(lambda float64, c int) float64 {
	return erlangC(lambda, c)/(float64(c)-lambda) + 1
}

func checkMG1(t *testing.T, svc dist.Distribution, lambda float64) {
	t.Helper()
	want := pkSojourn(lambda, svc)
	agg, err := Replication{Reps: 4}.Run(Options{
		N: 16, Lambda: lambda, Service: svc, Policy: PolicyNone,
		Warmup: 2000, Horizon: 30000, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if numeric.RelErr(agg.Sojourn.Mean, want) > 0.04 {
		t.Errorf("%s at λ=%v: sim %.4f vs P-K %.4f", svc, lambda, agg.Sojourn.Mean, want)
	}
}

func TestMG1Exponential(t *testing.T)   { checkMG1(t, dist.NewExponential(1), 0.7) }
func TestMG1Deterministic(t *testing.T) { checkMG1(t, dist.NewDeterministic(1), 0.7) }
func TestMG1Erlang(t *testing.T)        { checkMG1(t, dist.ErlangWithMean(4, 1), 0.7) }
func TestMG1HyperExponential(t *testing.T) {
	checkMG1(t, dist.NewHyperExponential(0.3, 0.5, 1.9444444444444444), 0.5)
}
func TestMG1Uniform(t *testing.T) { checkMG1(t, dist.NewUniform(0.5, 1.5), 0.7) }

// Stealing interpolates between split M/M/1 queues and a pooled M/M/c
// queue: the simulated sojourn must fall strictly between the two bounds.
func TestStealingBetweenMM1AndMMc(t *testing.T) {
	lambda, n := 0.9, 64
	lower := mmcSojourn(lambda*float64(n), n)
	upper := 1 / (1 - lambda) // M/M/1 at unit service rate
	agg, err := Replication{Reps: 4}.Run(Options{
		N: n, Lambda: lambda, Service: dist.NewExponential(1),
		Policy: PolicySteal, T: 2, RetryRate: 4,
		Warmup: 2000, Horizon: 20000, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := agg.Sojourn.Mean
	if !(lower < got && got < upper) {
		t.Errorf("sojourn %v outside (M/M/c %v, M/M/1 %v)", got, lower, upper)
	}
}

// The closed forms above, pinned against known values.

func TestMG1Known(t *testing.T) {
	// M/D/1 with λ = 0.5, S = 1: E[W] = 0.5·1/(2·0.5) = 0.5, E[T] = 1.5.
	if got := pkSojourn(0.5, dist.NewDeterministic(1)); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("M/D/1 E[T] = %v, want 1.5", got)
	}
}

func TestMG1ReducesToMM1(t *testing.T) {
	// Exponential service: P-K must reproduce M/M/1 exactly.
	for _, lambda := range []float64{0.3, 0.7, 0.95} {
		g, m := pkSojourn(lambda, dist.NewExponential(1)), 1/(1-lambda)
		if math.Abs(g-m) > 1e-12 {
			t.Errorf("λ=%v: M/G/1 %v vs M/M/1 %v", lambda, g, m)
		}
	}
}

func TestMMcReducesToMM1(t *testing.T) {
	if c1, m := mmcSojourn(0.7, 1), 1/(1-0.7); math.Abs(c1-m) > 1e-12 {
		t.Errorf("M/M/1 via M/M/c: %v vs %v", c1, m)
	}
	// Erlang C for c = 1 equals ρ.
	if c := erlangC(0.7, 1); math.Abs(c-0.7) > 1e-12 {
		t.Errorf("ErlangC(1) = %v, want 0.7", c)
	}
}

func TestMMcKnownValue(t *testing.T) {
	// Classic: c = 2, λ = 1.5, μ = 1 (a = 1.5, ρ = 0.75):
	// C = 9/14, E[W] = C/(2−1.5) = 9/7.
	if c := erlangC(1.5, 2); math.Abs(c-9.0/14) > 1e-12 {
		t.Errorf("ErlangC = %v, want %v", c, 9.0/14)
	}
	if w := mmcSojourn(1.5, 2) - 1; math.Abs(w-9.0/7) > 1e-12 {
		t.Errorf("MeanWait = %v, want %v", w, 9.0/7)
	}
}
