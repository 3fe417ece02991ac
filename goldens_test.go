package repro

// Golden-table regression tests: each of the paper's four tables (the
// M0–M3 model variants — no stealing baseline inside Table 1's estimate,
// constant service, transfer delays, two choices) is regenerated through
// the real wstables binary at a tiny fixed-seed scale and compared
// byte-for-byte against a committed golden file. The simulator is
// deterministic given a seed regardless of worker scheduling, so any
// diff means the engine's sampling sequence, the solvers, or the table
// formatting changed behavior.
//
// After an intentional change, regenerate with:
//
//	go test -run TestGoldenTables -update

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenArgs keeps the run cheap: 2 replications of a short horizon. The
// seed matches wstables' default so the command line is reproducible by
// hand.
func goldenArgs(tbl string) []string {
	return []string{"-table", tbl, "-reps", "2", "-horizon", "1500", "-seed", "1998", "-csv"}
}

func TestGoldenTables(t *testing.T) {
	for _, tbl := range []string{"1", "2", "3", "4"} {
		t.Run("table"+tbl, func(t *testing.T) {
			t.Parallel()
			out := run(t, "wstables", goldenArgs(tbl)...)
			golden := filepath.Join("testdata", "wstables", "table"+tbl+".golden.csv")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s", golden)
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run `go test -run TestGoldenTables -update`): %v", err)
			}
			if out != string(want) {
				t.Errorf("table %s drifted from %s.\nGot:\n%s\nWant:\n%s\n(regenerate with -update if the change is intentional)",
					tbl, golden, out, want)
			}
		})
	}
}

// wssimGoldenArgs is the engine-parameterized sibling of goldenArgs: the
// same tiny fixed-seed configuration run through each simulation backend.
func wssimGoldenArgs(engine string) []string {
	args := []string{"-engine", engine, "-n", "32", "-lambda", "0.85", "-policy", "steal", "-T", "2",
		"-horizon", "1500", "-warmup", "200", "-reps", "2", "-seed", "1998", "-metrics", "-json"}
	if engine == "hybrid" {
		args = append(args, "-tracked", "16")
	}
	return args
}

// wssimGoldenCases names every wssim golden: one exponential case per
// engine (the PR 6 baselines, which must never drift) plus the workload
// cases — phase-type service and bursty MMPP arrivals through the DES
// sampling path.
func wssimGoldenCases() map[string][]string {
	return map[string][]string{
		"des":    wssimGoldenArgs("des"),
		"fluid":  wssimGoldenArgs("fluid"),
		"hybrid": wssimGoldenArgs("hybrid"),
		"des-h2": append(wssimGoldenArgs("des"), "-service", "h2", "-scv", "4"),
		"des-mmpp": {"-engine", "des", "-n", "32", "-policy", "steal", "-T", "2",
			"-arrivals", "mmpp", "-mmpp-rates", "1.6,0.1", "-mmpp-switch", "0.5,0.5",
			"-horizon", "1500", "-warmup", "200", "-reps", "2", "-seed", "1998", "-metrics", "-json"},
	}
}

// scrubWallClock recursively removes the wall-clock-dependent keys from a
// decoded JSON value, so the goldens pin the sampling sequence and the
// report structure without pinning machine speed.
func scrubWallClock(v any) any {
	switch x := v.(type) {
	case map[string]any:
		delete(x, "wall_seconds")
		delete(x, "events_per_sec")
		for k, e := range x {
			x[k] = scrubWallClock(e)
		}
	case []any:
		for i, e := range x {
			x[i] = scrubWallClock(e)
		}
	}
	return v
}

// TestGoldenWssimEngines regenerates one wssim -json report per golden
// case and compares the wall-clock-scrubbed structure byte-for-byte
// against a committed golden. Any diff means an engine's sampling
// sequence (des, hybrid), an integration (fluid), or a workload model's
// sampling path (des-h2, des-mmpp) changed behavior.
func TestGoldenWssimEngines(t *testing.T) {
	for name, args := range wssimGoldenCases() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			out := run(t, "wssim", args...)
			var v any
			if err := json.Unmarshal([]byte(out), &v); err != nil {
				t.Fatalf("wssim golden %s -json invalid: %v\n%s", name, err, out)
			}
			canon, err := json.MarshalIndent(scrubWallClock(v), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			canon = append(canon, '\n')
			golden := filepath.Join("testdata", "wssim", name+".golden.json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, canon, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s", golden)
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run `go test -run TestGoldenWssimEngines -update`): %v", err)
			}
			if string(canon) != string(want) {
				t.Errorf("wssim golden %s drifted from %s.\nGot:\n%s\nWant:\n%s\n(regenerate with -update if the change is intentional)",
					name, golden, canon, want)
			}
		})
	}
}

// TestGoldenRunDeterminism guards the premise of the golden files: two
// fresh processes with the same seed must produce identical bytes.
func TestGoldenRunDeterminism(t *testing.T) {
	a := run(t, "wstables", goldenArgs("1")...)
	b := run(t, "wstables", goldenArgs("1")...)
	if a != b {
		t.Fatalf("wstables is not deterministic across runs:\n%s\nvs\n%s", a, b)
	}
}

// TestGoldenFilesCommitted fails loudly if someone deletes testdata/
// without removing the tests.
func TestGoldenFilesCommitted(t *testing.T) {
	for _, tbl := range []string{"1", "2", "3", "4"} {
		p := filepath.Join("testdata", "wstables", fmt.Sprintf("table%s.golden.csv", tbl))
		if _, err := os.Stat(p); err != nil && !*update {
			t.Errorf("golden file %s missing: %v", p, err)
		}
	}
	for name := range wssimGoldenCases() {
		p := filepath.Join("testdata", "wssim", name+".golden.json")
		if _, err := os.Stat(p); err != nil && !*update {
			t.Errorf("golden file %s missing: %v", p, err)
		}
	}
	text := filepath.Join("testdata", "wssim", "text.golden.txt")
	if _, err := os.Stat(text); err != nil && !*update {
		t.Errorf("golden file %s missing: %v", text, err)
	}
	for name := range cliGoldenCases {
		p := filepath.Join("testdata", name, "cli.golden.txt")
		if _, err := os.Stat(p); err != nil && !*update {
			t.Errorf("golden file %s missing: %v", p, err)
		}
	}
}

// wssimTextCase is one text-mode wssim invocation pinned by the text
// golden.
type wssimTextCase struct {
	name string
	args []string
}

// wssimTextCases lists the text-mode golden cases at a tiny fixed-seed
// scale: each engine (hybrid with an explicit tracked sample), a static
// drain (the default warmup is dropped), the non-stealing policies, a
// phase-type service, bursty MMPP arrivals, and a replayed trace file.
// -metrics stays out: its table prints the wall-clock events/sec.
func wssimTextCases(trace string) []wssimTextCase {
	base := func(extra ...string) []string {
		args := []string{"-n", "16", "-lambda", "0.8", "-T", "2",
			"-horizon", "600", "-warmup", "100", "-reps", "2", "-seed", "1998"}
		return append(args, extra...)
	}
	return []wssimTextCase{
		{"des", base()},
		{"fluid", base("-engine", "fluid")},
		{"hybrid", base("-engine", "hybrid", "-n", "64", "-tracked", "16")},
		{"static", []string{"-n", "16", "-T", "2", "-retry", "5", "-initial", "4",
			"-horizon", "600", "-reps", "2", "-seed", "1998"}},
		{"rebalance", base("-policy", "rebalance", "-rebalance", "2")},
		{"none", base("-policy", "none")},
		{"erlang", base("-service", "erlang", "-stages", "4")},
		{"mmpp", []string{"-n", "16", "-T", "2",
			"-arrivals", "mmpp", "-mmpp-rates", "1.6,0.1", "-mmpp-switch", "0.5,0.5",
			"-horizon", "600", "-warmup", "100", "-reps", "2", "-seed", "1998"}},
		{"trace", []string{"-n", "16", "-T", "2", "-trace", trace,
			"-horizon", "200", "-warmup", "20", "-reps", "2", "-seed", "1998"}},
	}
}

// traceTimes is the deterministic arrival trace of the trace cases: 1500
// instants 0.1 apart, 10 arrivals per unit time system-wide.
func traceTimes() []string {
	times := make([]string, 1500)
	for i := range times {
		times[i] = fmt.Sprintf("%.1f", float64(i+1)/10)
	}
	return times
}

// writeTraceCSV writes traceTimes under a header line, one instant per
// line, and returns the file's path.
func writeTraceCSV(t *testing.T) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "arrivals.csv")
	csv := "time\n" + strings.Join(traceTimes(), "\n") + "\n"
	if err := os.WriteFile(p, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestGoldenWssimText pins wssim's plain-text report — every line,
// including the rep[0] detail counters — across engines, policies and
// workloads. The cases render into one file, each under a "== name"
// header. Regenerate with `go test -run TestGoldenWssimText -update`.
func TestGoldenWssimText(t *testing.T) {
	var b strings.Builder
	for _, c := range wssimTextCases(writeTraceCSV(t)) {
		fmt.Fprintf(&b, "== %s\n%s", c.name, run(t, "wssim", c.args...))
	}
	got := b.String()
	golden := filepath.Join("testdata", "wssim", "text.golden.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run TestGoldenWssimText -update`): %v", err)
	}
	if got != string(want) {
		t.Errorf("wssim text output drifted from %s.\nGot:\n%s\nWant:\n%s\n(regenerate with -update if the change is intentional)",
			golden, got, want)
	}
}

// cliGoldenCases lists, per CLI, the invocations its golden pins: for
// the mean-field CLIs each output mode (text or CSV, -metrics, -json, and
// wsode's -plot), and for every tool the -h usage text, which fixes every
// flag and default.
var cliGoldenCases = map[string][]wssimTextCase{
	"wsfixed": {
		{"usage", []string{"-h"}},
		{"default", nil},
		{"threshold-metrics", []string{"-model", "threshold", "-lambda", "0.8", "-T", "3", "-metrics"}},
		{"transfer-metrics", []string{"-model", "transfer", "-T", "4", "-r", "0.25", "-tails", "5", "-metrics"}},
		{"stages-metrics", []string{"-model", "stages", "-lambda", "0.7", "-c", "4", "-tails", "4", "-metrics"}},
		{"choices-json", []string{"-model", "choices", "-lambda", "0.7", "-d", "3", "-tails", "4", "-json"}},
		{"spawning-json", []string{"-model", "spawning", "-lambda", "0.6", "-li", "0.2", "-tails", "3", "-json"}},
	},
	"wsode": {
		{"usage", []string{"-h"}},
		{"csv", []string{"-model", "simple", "-lambda", "0.8", "-span", "40", "-dt", "5"}},
		{"threshold-metrics", []string{"-model", "threshold", "-T", "3", "-span", "60", "-metrics"}},
		{"choices-json", []string{"-model", "choices", "-lambda", "0.7", "-d", "3", "-span", "10", "-dt", "2.5", "-json"}},
		{"nosteal-plot", []string{"-model", "nosteal", "-lambda", "0.5", "-span", "30", "-plot"}},
	},
	"wsserved": {
		{"usage", []string{"-h"}},
	},
}

// TestGoldenMeanFieldCLIs pins wsfixed's and wsode's whole output in
// every mode, and wsserved's usage, one file per binary with each case under a "== name"
// header. The usage text names the binary by its path, which is
// normalised to the bare name. Regenerate with
// `go test -run TestGoldenMeanFieldCLIs -update`.
func TestGoldenMeanFieldCLIs(t *testing.T) {
	for name, cases := range cliGoldenCases {
		t.Run(name, func(t *testing.T) {
			var b strings.Builder
			for _, c := range cases {
				out := run(t, name, c.args...)
				out = strings.ReplaceAll(out, filepath.Join(buildCmds(t), name), name)
				fmt.Fprintf(&b, "== %s\n%s", c.name, out)
			}
			got := b.String()
			golden := filepath.Join("testdata", name, "cli.golden.txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s", golden)
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run `go test -run TestGoldenMeanFieldCLIs -update`): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s output drifted from %s.\nGot:\n%s\nWant:\n%s\n(regenerate with -update if the change is intentional)",
					name, golden, got, want)
			}
		})
	}
}
