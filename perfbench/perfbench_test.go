package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// contract is the part of BENCHMARK.json the program must agree with.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	return c
}

// smoke is a run at the smallest size: one round of each sequence.
func smoke(t *testing.T) config {
	cfg := defaultConfig()
	cfg.seconds = 0.001
	cfg.spanDir = t.TempDir()
	return cfg
}

// checkMetrics requires exactly the named metrics, each with its unit.
func checkMetrics(t *testing.T, w string, got map[string]metric, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d", w, len(got), len(want))
	}
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s missing", w, name)
		} else if m.Unit != unit {
			t.Errorf("%s: metric %s has unit %q, want %q", w, name, m.Unit, unit)
		}
	}
}

// BENCHMARK.json lists the workloads whose end-to-end metrics are gated;
// the program also runs the ones left out for unsteadiness (NOTES.md).
func TestContractWorkloadsExist(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json lists %d workloads, want at least 2", len(c.Workloads))
	}
	for _, w := range c.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is not one of the program's: %s", w.Name, strings.Join(workloadNames(), ", "))
		}
	}
}

func TestWorkloadsAtSmokeSize(t *testing.T) {
	c := readContract(t)
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range c.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range c.PerLayer {
		layers[m.Name] = m.Unit
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			res, err := endToEnd(w, smoke(t), &out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("end-to-end run: correct %v, %d of %d failed\n%s", res.Correct, res.Failed, res.Attempted, out.String())
			}
			checkMetrics(t, w.name, res.Metrics, e2e)

			out.Reset()
			res, err = traced(w, smoke(t), &out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: correct %v, %d of %d failed\n%s", res.Correct, res.Failed, res.Attempted, out.String())
			}
			checkMetrics(t, w.name, res.Metrics, layers)
			if !strings.Contains(out.String(), "reconcile "+w.name+": traced p50") {
				t.Errorf("traced run printed no reconciliation line:\n%s", out.String())
			}
		})
	}
}

func TestSequenceDependsOnlyOnSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := w.sequence(1, 2), w.sequence(1, 2)
		if digest(a) != digest(b) {
			t.Errorf("%s: two sequences from seed 1 differ", w.name)
		}
		if digest(a) == digest(w.sequence(2, 2)) {
			t.Errorf("%s: seeds 1 and 2 give the same sequence", w.name)
		}
	}
}

func TestColdKeysNeverRepeat(t *testing.T) {
	seq := coldSequence(3, 20).distinct
	seen := map[string]bool{}
	odes := 0
	for _, q := range seq {
		key := q.route + string(q.body)
		if seen[key] {
			t.Fatalf("request %s %s repeats", q.route, q.body)
		}
		seen[key] = true
		if q.route == routeODE {
			odes++
		}
	}
	if frac := float64(odes) / float64(len(seq)); frac < 0.1 || frac > 0.15 {
		t.Errorf("ODE share %.3f, want about 1 in 8", frac)
	}
}

func TestWrongOracleBodyCountsAsFailure(t *testing.T) {
	for _, name := range []string{"solve-hot", "solve-cold", "simulate"} {
		t.Run(name, func(t *testing.T) {
			w, _ := workloadByName(name)
			cfg := smoke(t)
			cfg.mutate = func(b []byte) []byte { return append(append([]byte(nil), b...), ' ') }
			var out bytes.Buffer
			res, err := endToEnd(w, cfg, &out)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("a wrong oracle body passed: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
		})
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "solve-hot", "--trace", "2"},
		{"--workload", "solve-hot", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run %v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("run %v printed a result: %s", args, stdout.String())
		}
	}
}

func TestShapeGuardsReportEveryDrift(t *testing.T) {
	hot, _ := workloadByName("solve-hot")
	cold, _ := workloadByName("solve-cold")
	sim, _ := workloadByName("simulate")
	for _, tc := range []struct {
		name string
		w    workload
		p    passStats
		want string
	}{
		{"hot pass with a miss", hot, passStats{hits: 9, misses: 1}, "want every request a hit"},
		{"cold pass with a hit", cold, passStats{hits: 1, misses: 9}, "cache hits 1: want 0"},
		{"coalesced request", sim, passStats{coalesced: 1}, "coalesced"},
		{"rejected request", sim, passStats{rejected: 2}, "rejected by admission control"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := shapeGuards(tc.w, 10, tc.p)
			if len(got) != 1 || !strings.Contains(got[0], tc.want) {
				t.Errorf("guards %q, want one containing %q", got, tc.want)
			}
		})
	}
	if got := shapeGuards(hot, 10, passStats{hits: 10}); len(got) != 0 {
		t.Errorf("a clean hot pass tripped %q", got)
	}
	if got := shapeGuards(cold, 10, passStats{misses: 10}); len(got) != 0 {
		t.Errorf("a clean cold pass tripped %q", got)
	}
}

func TestUtilizationFarFromLambdaFails(t *testing.T) {
	body := func(lambda, util float64) []byte {
		return []byte(fmt.Sprintf(`{"lambda": %g, "metrics": {"utilization": {"mean": %g}}}`, lambda, util))
	}
	if err := checkUtilization(body(0.8, 0.79)); err != nil {
		t.Errorf("utilization 0.79 at lambda 0.8: %v", err)
	}
	if err := checkUtilization(body(0.8, 0.75)); err == nil {
		t.Error("utilization 0.75 at lambda 0.8 passed")
	}
	o := outcome{bodies: [][]byte{body(0.5, 0.5), body(0.95, 0.9)}, bad: newFailures()}
	checkUtilizations(&o)
	if o.bad.count() != 1 || o.bad.reason(1) == "" {
		t.Errorf("checkUtilizations marked %v, want request 1 only", o.bad.why)
	}
}
