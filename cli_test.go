package repro

// End-to-end tests of the command-line tools: each binary is built once
// into a temporary directory and exercised with fast flag combinations,
// checking exit status and the shape of its output.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/workload"
)

var buildDir string

// TestMain builds every command once into a shared temporary directory that
// outlives individual tests.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "repro-cli")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cli_test:", err)
		os.Exit(1)
	}
	for _, name := range []string{"wstables", "wssim", "wsfixed", "wsode", "wssweep", "wsbench", "wsserved", "wscheck"} {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		if msg, err := cmd.CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "cli_test: building %s: %v\n%s", name, err, msg)
			os.RemoveAll(dir)
			os.Exit(1)
		}
	}
	buildDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// buildCmds returns the shared binary directory.
func buildCmds(t *testing.T) string {
	t.Helper()
	return buildDir
}

// run executes a built command and returns its combined output.
func run(t *testing.T, name string, args ...string) string {
	t.Helper()
	dir := buildCmds(t)
	out, err := exec.Command(filepath.Join(dir, name), args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestCLIWsfixed(t *testing.T) {
	out := run(t, "wsfixed", "-model", "simple", "-lambda", "0.5", "-tails", "3")
	if !strings.Contains(out, "1.618034") {
		t.Errorf("wsfixed missing golden-ratio estimate:\n%s", out)
	}
	if !strings.Contains(out, "π_0") {
		t.Errorf("wsfixed missing tails:\n%s", out)
	}
}

func TestCLIWsfixedAllModels(t *testing.T) {
	for _, m := range []string{"nosteal", "threshold", "preemptive", "repeated",
		"choices", "multisteal", "stealhalf", "spawning", "transfer", "rebalance", "repeated-transfer"} {
		args := []string{"-model", m, "-lambda", "0.7", "-tails", "2", "-T", "4", "-B", "1", "-k", "2"}
		out := run(t, "wsfixed", args...)
		if !strings.Contains(out, "time in sys") {
			t.Errorf("wsfixed -model %s produced no metrics:\n%s", m, out)
		}
	}
}

func TestCLIWsfixedRejectsUnknownModel(t *testing.T) {
	dir := buildCmds(t)
	out, err := exec.Command(filepath.Join(dir, "wsfixed"), "-model", "bogus").CombinedOutput()
	if err == nil {
		t.Errorf("unknown model accepted:\n%s", out)
	}
}

func TestCLIWssim(t *testing.T) {
	out := run(t, "wssim", "-n", "16", "-lambda", "0.7", "-policy", "steal", "-T", "2",
		"-horizon", "2000", "-warmup", "200", "-reps", "2")
	if !strings.Contains(out, "time in system") || !strings.Contains(out, "stealSuccesses") {
		t.Errorf("wssim output malformed:\n%s", out)
	}
}

// wssimEngineArgs returns a fast wssim invocation of one engine; the shared
// flag set keeps the engine subtests comparable.
func wssimEngineArgs(engine string, extra ...string) []string {
	args := []string{"-engine", engine, "-n", "64", "-lambda", "0.85", "-policy", "steal", "-T", "2",
		"-horizon", "2000", "-warmup", "500", "-reps", "2", "-seed", "7"}
	return append(args, extra...)
}

// TestCLIWssimEngines runs each backend through the binary and checks the
// text report names the engine it ran.
func TestCLIWssimEngines(t *testing.T) {
	for _, engine := range []string{"des", "fluid", "hybrid"} {
		t.Run(engine, func(t *testing.T) {
			out := run(t, "wssim", wssimEngineArgs(engine, "-tracked", map[string]string{
				"des": "0", "fluid": "0", "hybrid": "32"}[engine])...)
			if !strings.Contains(out, "time in system") {
				t.Errorf("wssim -engine %s output malformed:\n%s", engine, out)
			}
			if engine != "des" && !strings.Contains(out, "engine:           "+engine) {
				t.Errorf("wssim -engine %s does not report its engine:\n%s", engine, out)
			}
			if engine == "hybrid" && !strings.Contains(out, "tracked sample: 32 of 64") {
				t.Errorf("hybrid report missing tracked sample line:\n%s", out)
			}
		})
	}
}

// TestCLIWssimEngineJSON pins the engine/tracked echo in -json output and
// the default-substitution path (no explicit lambda/horizon for hybrid).
func TestCLIWssimEngineJSON(t *testing.T) {
	out := run(t, "wssim", "-engine", "hybrid", "-n", "10000", "-horizon", "800", "-warmup", "200",
		"-reps", "1", "-json")
	// The combined output starts with the stderr default note; the JSON
	// object begins at the first brace.
	if i := strings.Index(out, "{"); i >= 0 {
		out = out[i:]
	}
	var rep struct {
		Engine  string  `json:"engine"`
		Tracked int     `json:"tracked"`
		N       int     `json:"n"`
		Lambda  float64 `json:"lambda"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("wssim hybrid -json is not valid JSON: %v\n%s", err, out)
	}
	if rep.Engine != "hybrid" || rep.Tracked != 256 || rep.N != 10000 {
		t.Errorf("hybrid -json echo wrong: %+v", rep)
	}
	if rep.Lambda != 0.9 {
		t.Errorf("hybrid lambda default %v, want 0.9", rep.Lambda)
	}
}

// TestCLIWssimEngineErrors: unknown engines and impossible combinations are
// usage errors, not crashes.
func TestCLIWssimEngineErrors(t *testing.T) {
	dir := buildCmds(t)
	cases := [][]string{
		{"-engine", "warp", "-n", "16", "-lambda", "0.5"},
		{"-engine", "fluid", "-n", "16", "-lambda", "0.5", "-tracked", "8"},
		{"-engine", "hybrid", "-n", "16", "-lambda", "0.5", "-tracked", "32"},
		{"-engine", "hybrid", "-n", "64", "-lambda", "0.5", "-d", "2"},
	}
	for _, args := range cases {
		out, err := exec.Command(filepath.Join(dir, "wssim"), args...).CombinedOutput()
		if err == nil {
			t.Errorf("wssim %v succeeded, want usage error:\n%s", args, out)
		}
	}
}

func TestCLIWssimStatic(t *testing.T) {
	out := run(t, "wssim", "-n", "16", "-policy", "steal", "-T", "2", "-retry", "5",
		"-initial", "4", "-horizon", "1000", "-reps", "2")
	if !strings.Contains(out, "drain time") {
		t.Errorf("static wssim missing drain time:\n%s", out)
	}
}

func TestCLIWstablesSingle(t *testing.T) {
	out := run(t, "wstables", "-table", "threshold")
	if !strings.Contains(out, "Threshold sweep") {
		t.Errorf("wstables -table threshold:\n%s", out)
	}
}

func TestCLIWstablesCSV(t *testing.T) {
	out := run(t, "wstables", "-table", "tails", "-csv")
	if !strings.Contains(out, "model,measured ratio") {
		t.Errorf("CSV header missing:\n%s", out)
	}
}

func TestCLIWstablesRejectsUnknown(t *testing.T) {
	dir := buildCmds(t)
	out, err := exec.Command(filepath.Join(dir, "wstables"), "-table", "nope").CombinedOutput()
	if err == nil {
		t.Errorf("unknown table accepted:\n%s", out)
	}
}

// TestCLIWstablesHelpNamesTables checks that the -table help lists the
// tables added last to -table all, which it once left out.
func TestCLIWstablesHelpNamesTables(t *testing.T) {
	out := run(t, "wstables", "-h")
	for _, name := range []string{"relaxation", "latency"} {
		if !strings.Contains(out, ", "+name) {
			t.Errorf("wstables -h does not name table %q:\n%s", name, out)
		}
	}
}

func TestCLIWsode(t *testing.T) {
	out := run(t, "wsode", "-model", "simple", "-lambda", "0.8", "-span", "10", "-dt", "2")
	if !strings.Contains(out, "t,mean_tasks") {
		t.Errorf("wsode CSV header missing:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) < 6 {
		t.Errorf("wsode produced too few rows:\n%s", out)
	}
}

func TestCLIWsodePlot(t *testing.T) {
	out := run(t, "wsode", "-model", "simple", "-lambda", "0.8", "-span", "20", "-dt", "1", "-plot")
	if !strings.Contains(out, "mean tasks per processor") || !strings.Contains(out, "*") {
		t.Errorf("wsode -plot chart missing:\n%s", out)
	}
}

func TestCLIWssweep(t *testing.T) {
	out := run(t, "wssweep", "-sweep", "multisteal", "-lambda", "0.9", "-T", "6")
	if !strings.Contains(out, "k=1") || !strings.Contains(out, "⌈j/2⌉") {
		t.Errorf("wssweep multisteal output:\n%s", out)
	}
	out = run(t, "wssweep", "-sweep", "lambda", "-model", "simple")
	if !strings.Contains(out, "λ=0.99") {
		t.Errorf("wssweep lambda output:\n%s", out)
	}
}

// TestCLIWssweepBadRowExits2 checks that a sweep with an invalid row fails
// with the spec's error before any solve, instead of printing blank rows.
func TestCLIWssweepBadRowExits2(t *testing.T) {
	for _, args := range [][]string{
		{"-sweep", "retry", "-T", "1"},
		{"-sweep", "threshold", "-lambda", "1.2"},
		{"-sweep", "multisteal", "-T", "1"},
	} {
		cmd := exec.Command(filepath.Join(buildCmds(t), "wssweep"), args...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("wssweep %v: want exit 2, got %v", args, err)
		}
		if len(out) != 0 || !strings.Contains(stderr.String(), "experiments:") {
			t.Errorf("wssweep %v: want no table and the spec's error, got\n%s%s", args, out, stderr.String())
		}
	}
}

// TestCLIExplicitZeroExits2 checks that wsfixed and wsode reject a flag
// set to zero on the command line: the spec would read the zero as "use
// the default" and solve a different model (r = 1, T = 2, span 200).
func TestCLIExplicitZeroExits2(t *testing.T) {
	for _, c := range []struct {
		cmd  string
		args []string
		msg  string
	}{
		{"wsfixed", []string{"-model", "repeated", "-r", "0"}, "-r must be nonzero"},
		{"wsfixed", []string{"-model", "threshold", "-T", "0"}, "-T must be nonzero"},
		{"wsfixed", []string{"-model", "spawning", "-li", "0"}, "use -model threshold"},
		{"wsode", []string{"-span", "0"}, "-span must be nonzero"},
	} {
		cmd := exec.Command(filepath.Join(buildCmds(t), c.cmd), c.args...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("%s %v: want exit 2, got %v", c.cmd, c.args, err)
		}
		if len(out) != 0 || !strings.Contains(stderr.String(), c.msg) {
			t.Errorf("%s %v: want no output and %q, got\n%s%s", c.cmd, c.args, c.msg, out, stderr.String())
		}
	}
}

// TestCLIWsservedBadFlagsExit2 checks that wsserved rejects out-of-range
// settings at startup with one line on stderr, not a panic.
func TestCLIWsservedBadFlagsExit2(t *testing.T) {
	for _, c := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-chaos.p.error", "2"}, "wsserved: chaos: probability for error = 2 outside [0, 1]"},
		{[]string{"-queue", "-1"}, "wsserved: -queue must not be negative"},
		{[]string{"-drain", "-1s"}, "wsserved: -drain must not be negative"},
	} {
		// A daemon that accepts the setting would serve until killed.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		args := append([]string{"-addr", "127.0.0.1:0"}, c.args...)
		cmd := exec.CommandContext(ctx, filepath.Join(buildCmds(t), "wsserved"), args...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("wsserved %v: want exit 2, got %v", c.args, err)
		}
		if got := stderr.String(); got != c.msg+"\n" || strings.Contains(got, "goroutine") {
			t.Errorf("wsserved %v: want the one line %q on stderr, got\n%s", c.args, c.msg, got)
		}
		cancel()
	}
}

func TestCLIWssimMetrics(t *testing.T) {
	out := run(t, "wssim", "-n", "16", "-lambda", "0.7", "-policy", "steal", "-T", "2",
		"-horizon", "2000", "-warmup", "200", "-reps", "2", "-metrics")
	for _, want := range []string{"Simulation metrics", "utilization", "steal success rate",
		"Queue-length distribution", ">="} {
		if !strings.Contains(out, want) {
			t.Errorf("wssim -metrics output missing %q:\n%s", want, out)
		}
	}
}

// TestCLIWssimJSON checks the -json report parses and its metrics agree
// with the flags that produced it.
func TestCLIWssimJSON(t *testing.T) {
	out := run(t, "wssim", "-n", "16", "-lambda", "0.7", "-policy", "steal", "-T", "2",
		"-horizon", "4000", "-warmup", "400", "-reps", "2", "-metrics", "-json")
	var rep struct {
		N       int     `json:"n"`
		Lambda  float64 `json:"lambda"`
		Policy  string  `json:"policy"`
		Metrics struct {
			Reps        int `json:"reps"`
			Utilization struct {
				Mean float64 `json:"mean"`
			} `json:"utilization"`
			QueueHist []float64 `json:"queue_hist"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("wssim -json is not valid JSON: %v\n%s", err, out)
	}
	if rep.N != 16 || rep.Lambda != 0.7 || rep.Policy != "steal" || rep.Metrics.Reps != 2 {
		t.Errorf("wssim -json round trip lost fields: %+v", rep)
	}
	if u := rep.Metrics.Utilization.Mean; u < 0.6 || u > 0.8 {
		t.Errorf("wssim -json utilization %v implausible for λ=0.7", u)
	}
	if len(rep.Metrics.QueueHist) == 0 {
		t.Errorf("wssim -json has no queue histogram:\n%s", out)
	}
}

// TestCLIProfiles verifies the pprof flags of each tool that has them
// actually write non-empty profile files.
func TestCLIProfiles(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		args []string
	}{
		{"wssim", []string{"-n", "8", "-lambda", "0.5", "-policy", "steal", "-T", "2",
			"-horizon", "500", "-warmup", "50", "-reps", "1"}},
		{"wstables", []string{"-table", "tails"}},
		{"wssweep", []string{"-sweep", "threshold", "-max", "3"}},
	}
	for _, c := range cases {
		cpu := filepath.Join(dir, c.name+".cpu.pprof")
		mem := filepath.Join(dir, c.name+".mem.pprof")
		run(t, c.name, append(c.args, "-cpuprofile", cpu, "-memprofile", mem)...)
		for _, p := range []string{cpu, mem} {
			fi, err := os.Stat(p)
			if err != nil {
				t.Errorf("%s did not write %s: %v", c.name, p, err)
			} else if fi.Size() == 0 {
				t.Errorf("%s wrote an empty profile %s", c.name, p)
			}
		}
	}
}

// TestCLIProfilesWrittenOnError pins the bug the run() restructure fixed:
// a usage error must still flush the profiles, because the deferred
// stopCPU/WriteMemProfile now run on every exit path instead of being
// skipped by os.Exit.
func TestCLIProfilesWrittenOnError(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		args []string
	}{
		{"wstables", []string{"-table", "nope"}},
		{"wssweep", []string{"-sweep", "nope"}},
	}
	for _, c := range cases {
		cpu := filepath.Join(dir, c.name+".err.cpu.pprof")
		mem := filepath.Join(dir, c.name+".err.mem.pprof")
		cmd := exec.Command(filepath.Join(buildCmds(t), c.name),
			append(c.args, "-cpuprofile", cpu, "-memprofile", mem)...)
		out, err := cmd.Output()
		if err == nil {
			t.Errorf("%s %v succeeded, want usage error:\n%s", c.name, c.args, out)
		}
		for _, p := range []string{cpu, mem} {
			fi, statErr := os.Stat(p)
			if statErr != nil {
				t.Errorf("%s error path did not write %s: %v", c.name, p, statErr)
			} else if fi.Size() == 0 {
				t.Errorf("%s error path wrote an empty profile %s", c.name, p)
			}
		}
	}
}

// TestCLIWstablesWorkersDeterministic checks the scheduler's promise at
// the binary boundary: the same table rendered with different -workers
// counts is byte-identical.
func TestCLIWstablesWorkersDeterministic(t *testing.T) {
	args := []string{"-table", "1", "-reps", "2", "-horizon", "1000", "-csv"}
	one := run(t, "wstables", append(args, "-workers", "1")...)
	four := run(t, "wstables", append(args, "-workers", "4")...)
	if one != four {
		t.Errorf("wstables output depends on -workers:\n--- workers=1\n%s--- workers=4\n%s", one, four)
	}
}

// TestCLIWssimWorkersDeterministic does the same for wssim's replication
// runner.
func TestCLIWssimWorkersDeterministic(t *testing.T) {
	// Plain text output only: the -json report embeds the wall-clock
	// events/sec summary, which legitimately varies run to run.
	args := []string{"-n", "16", "-lambda", "0.7", "-policy", "steal", "-T", "2",
		"-horizon", "1000", "-warmup", "100", "-reps", "3"}
	one := run(t, "wssim", append(args, "-workers", "1")...)
	four := run(t, "wssim", append(args, "-workers", "4")...)
	if one != four {
		t.Errorf("wssim output depends on -workers:\n--- workers=1\n%s--- workers=4\n%s", one, four)
	}
}

// TestCLIWsbench smoke-tests the perf recorder (throughput section only;
// the table timings are minutes of work) and sanity-checks its numbers.
func TestCLIWsbench(t *testing.T) {
	out := run(t, "wsbench", "-tables=false", "-runs", "1", "-horizon", "150", "-out", "-")
	// Output is the JSON report followed by the human summary; parse the
	// JSON prefix.
	dec := json.NewDecoder(strings.NewReader(out))
	var rep struct {
		NumCPU     int `json:"num_cpu"`
		Throughput []struct {
			Name           string  `json:"name"`
			Events         int64   `json:"events"`
			NsPerEvent     float64 `json:"ns_per_event"`
			AllocsPerEvent float64 `json:"allocs_per_event"`
		} `json:"throughput"`
	}
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("wsbench emitted invalid JSON: %v\n%s", err, out)
	}
	if rep.NumCPU < 1 || len(rep.Throughput) == 0 {
		t.Fatalf("wsbench report incomplete: %+v", rep)
	}
	for _, tp := range rep.Throughput {
		if tp.Events <= 0 || tp.NsPerEvent <= 0 {
			t.Errorf("%s: implausible measurement %+v", tp.Name, tp)
		}
		if tp.AllocsPerEvent > 0.01 {
			t.Errorf("%s: allocs/event = %v, want ~0 (reuse path regressed)", tp.Name, tp.AllocsPerEvent)
		}
	}
}

// tableJSON is the shape table.WriteJSON emits.
type tableJSON struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

func TestCLIWstablesJSON(t *testing.T) {
	out := run(t, "wstables", "-table", "tails", "-json")
	var tb tableJSON
	if err := json.Unmarshal([]byte(out), &tb); err != nil {
		t.Fatalf("wstables -json is not valid JSON: %v\n%s", err, out)
	}
	if tb.Title == "" || len(tb.Headers) == 0 || len(tb.Rows) == 0 {
		t.Errorf("wstables -json table is empty: %+v", tb)
	}
	for i, row := range tb.Rows {
		if len(row) != len(tb.Headers) {
			t.Errorf("row %d has %d cells, want %d", i, len(row), len(tb.Headers))
		}
	}
}

func TestCLIWstablesMetricsTable(t *testing.T) {
	out := run(t, "wstables", "-table", "stability", "-metrics",
		"-reps", "1", "-horizon", "800")
	if !strings.Contains(out, "Simulation metrics") || !strings.Contains(out, "M1 simple WS") {
		t.Errorf("wstables -metrics table missing:\n%s", out)
	}
}

func TestCLIWssweepMetricsJSON(t *testing.T) {
	out := run(t, "wssweep", "-sweep", "threshold", "-max", "4", "-metrics", "-json")
	var tb tableJSON
	if err := json.Unmarshal([]byte(out), &tb); err != nil {
		t.Fatalf("wssweep -json is not valid JSON: %v\n%s", err, out)
	}
	want := []string{"value", "E[T]", "E[L]", "utilization", "s_T"}
	if strings.Join(tb.Headers, "|") != strings.Join(want, "|") {
		t.Errorf("wssweep -metrics headers %v, want %v", tb.Headers, want)
	}
}

func TestCLIWsfixedMetricsJSON(t *testing.T) {
	out := run(t, "wsfixed", "-model", "simple", "-lambda", "0.9", "-metrics")
	if !strings.Contains(out, "utilization") || !strings.Contains(out, "steal success") {
		t.Errorf("wsfixed -metrics output:\n%s", out)
	}
	out = run(t, "wsfixed", "-model", "simple", "-lambda", "0.9", "-json")
	var fp struct {
		Model       string    `json:"model"`
		Utilization float64   `json:"utilization"`
		Tails       []float64 `json:"tails"`
	}
	if err := json.Unmarshal([]byte(out), &fp); err != nil {
		t.Fatalf("wsfixed -json is not valid JSON: %v\n%s", err, out)
	}
	// s₁ = λ at any stable fixed point.
	if fp.Utilization < 0.899 || fp.Utilization > 0.901 {
		t.Errorf("wsfixed -json utilization %v, want λ=0.9", fp.Utilization)
	}
	if len(fp.Tails) == 0 || fp.Tails[0] != 1 {
		t.Errorf("wsfixed -json tails malformed: %v", fp.Tails)
	}
}

func TestCLIWsodeMetricsJSON(t *testing.T) {
	out := run(t, "wsode", "-model", "simple", "-lambda", "0.8", "-span", "200", "-dt", "5", "-metrics")
	if !strings.Contains(out, "settle time") || !strings.Contains(out, "fixed point") {
		t.Errorf("wsode -metrics output:\n%s", out)
	}
	out = run(t, "wsode", "-model", "simple", "-lambda", "0.8", "-span", "200", "-dt", "5", "-json")
	var tr struct {
		SettleTime float64   `json:"settle_time"`
		Times      []float64 `json:"times"`
		Loads      []float64 `json:"loads"`
	}
	if err := json.Unmarshal([]byte(out), &tr); err != nil {
		t.Fatalf("wsode -json is not valid JSON: %v\n%s", err, out)
	}
	if tr.SettleTime <= 0 {
		t.Errorf("wsode -json settle time %v, want positive (span 200 should converge)", tr.SettleTime)
	}
	if len(tr.Times) != len(tr.Loads) || len(tr.Times) < 10 {
		t.Errorf("wsode -json trajectory malformed: %d times, %d loads", len(tr.Times), len(tr.Loads))
	}
}

// startServed boots the real wsserved daemon on an ephemeral port and
// returns its listen address; the daemon is torn down with the test.
func startServed(t *testing.T) string {
	t.Helper()
	dir := buildCmds(t)

	cmd := exec.Command(filepath.Join(dir, "wsserved"), "-addr", "127.0.0.1:0", "-log", "text")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM)
		if err := cmd.Wait(); err != nil {
			t.Errorf("wsserved did not exit cleanly after SIGTERM: %v", err)
		}
	})

	// The daemon logs its bound address once listening; scrape it.
	var addr string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if _, rest, ok := strings.Cut(sc.Text(), "addr="); ok {
			addr = strings.Fields(rest)[0]
			break
		}
	}
	if addr == "" {
		t.Fatal("wsserved never reported its listen address")
	}
	go io.Copy(io.Discard, stderr) // keep the pipe drained
	return addr
}

// TestServeMatchesWsfixed boots the real wsserved daemon and asserts the
// HTTP fixed-point response is byte-identical to wsfixed -json: the serving
// layer and the CLI render the same report through the same encoder.
func TestServeMatchesWsfixed(t *testing.T) {
	addr := startServed(t)

	resp, err := http.Post("http://"+addr+"/v1/fixedpoint", "application/json",
		strings.NewReader(`{"model":"threshold","lambda":0.8,"t":3,"tails":5}`))
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/fixedpoint: status %d, err %v", resp.StatusCode, err)
	}

	cli := run(t, "wsfixed", "-model", "threshold", "-lambda", "0.8", "-T", "3", "-tails", "5", "-json")
	if string(served) != cli {
		t.Errorf("served response differs from wsfixed -json\nserved: %s\ncli:    %s", served, cli)
	}
}

// TestServeMatchesWssimWorkloads drives the same non-exponential workloads
// through wssim -json and POST /v1/simulate and asserts the reports are
// byte-identical after scrubbing the wall-clock fields (the metrics block
// embeds events/sec, which legitimately varies run to run). This pins the
// whole workload path — spec parsing, distribution fitting, arrival-source
// threading, report rendering — across the CLI and serving layers at once.
func TestServeMatchesWssimWorkloads(t *testing.T) {
	addr := startServed(t)

	canon := func(raw []byte) string {
		var v any
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("invalid report JSON: %v\n%s", err, raw)
		}
		out, err := json.MarshalIndent(scrubWallClock(v), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}

	cases := []struct {
		name string
		args []string
		body string
	}{
		{
			name: "h2",
			args: []string{"-n", "32", "-lambda", "0.85", "-policy", "steal", "-T", "2",
				"-service", "h2", "-scv", "4",
				"-horizon", "800", "-warmup", "100", "-reps", "2", "-seed", "1998", "-metrics", "-json"},
			body: `{"n":32,"lambda":0.85,"policy":"steal","t":2,"service":{"dist":"h2","scv":4},` +
				`"horizon":800,"warmup":100,"reps":2,"seed":1998,"qhist":16}`,
		},
		{
			name: "mmpp",
			args: []string{"-n", "32", "-policy", "steal", "-T", "2",
				"-arrivals", "mmpp", "-mmpp-rates", "1.6,0.1", "-mmpp-switch", "0.5,0.5",
				"-horizon", "800", "-warmup", "100", "-reps", "2", "-seed", "1998", "-json"},
			body: `{"n":32,"policy":"steal","t":2,` +
				`"arrivals":{"kind":"mmpp","rates":[1.6,0.1],"switch":[0.5,0.5]},` +
				`"horizon":800,"warmup":100,"reps":2,"seed":1998}`,
		},
		{
			// wssim loads the trace file; the served body inlines the
			// same instants.
			name: "trace",
			args: []string{"-n", "16", "-policy", "steal", "-T", "2", "-trace", writeTraceCSV(t),
				"-horizon", "200", "-warmup", "20", "-reps", "2", "-seed", "1998", "-json"},
			body: `{"n":16,"policy":"steal","t":2,` +
				`"arrivals":{"kind":"trace","times":[` + strings.Join(traceTimes(), ",") + `]},` +
				`"horizon":200,"warmup":20,"reps":2,"seed":1998}`,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post("http://"+addr+"/v1/simulate", "application/json",
				strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			served, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("POST /v1/simulate: status %d, err %v\n%s", resp.StatusCode, err, served)
			}

			cli := run(t, "wssim", c.args...)
			if got, want := canon(served), canon([]byte(cli)); got != want {
				t.Errorf("served simulate report differs from wssim -json\nserved: %s\ncli:    %s", got, want)
			}
		})
	}
}

// TestCLIWssimBeyondServingCap: the serving caps bound network requests
// only. wssim runs a spec with more replications than MaxSimReps, and the
// same spec posted to /v1/simulate is rejected with 400.
func TestCLIWssimBeyondServingCap(t *testing.T) {
	out := run(t, "wssim", "-n", "2", "-lambda", "0.5", "-horizon", "10", "-warmup", "1", "-reps", "65")
	if !strings.Contains(out, "replications:     65 ×") {
		t.Errorf("wssim -reps 65 did not run 65 replications:\n%s", out)
	}

	addr := startServed(t)
	resp, err := http.Post("http://"+addr+"/v1/simulate", "application/json",
		strings.NewReader(`{"n":2,"lambda":0.5,"horizon":10,"warmup":1,"reps":65}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST /v1/simulate with reps 65: status %d, want 400\n%s", resp.StatusCode, body)
	}
}

// TestCLIWssimLongTrace: the trace-point cap binds served requests only.
// wssim replays a trace one point longer than workload.MaxTracePoints and
// places every arrival.
func TestCLIWssimLongTrace(t *testing.T) {
	var b strings.Builder
	for i := 0; i <= workload.MaxTracePoints; i++ {
		fmt.Fprintf(&b, "%g\n", float64(i)/100)
	}
	path := filepath.Join(t.TempDir(), "long.csv")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out := run(t, "wssim", "-n", "128", "-policy", "steal", "-T", "2", "-trace", path,
		"-horizon", "1000", "-warmup", "100", "-reps", "1")
	want := fmt.Sprintf("arrived=%d ", workload.MaxTracePoints+1)
	if !strings.Contains(out, fmt.Sprintf("trace(%d arrivals)", workload.MaxTracePoints+1)) || !strings.Contains(out, want) {
		t.Errorf("wssim did not replay the %d-point trace:\n%s", workload.MaxTracePoints+1, out)
	}
}

func TestCLIWscheckList(t *testing.T) {
	out := run(t, "wscheck", "-list")
	for _, name := range []string{"nosteal", "simple", "threshold", "hetero", "h2", "crossover", "cluster"} {
		if !strings.Contains(out, name) {
			t.Errorf("wscheck -list missing %q:\n%s", name, out)
		}
	}
}

func TestCLIWscheckSingleVariant(t *testing.T) {
	out := run(t, "wscheck", "-model", "simple", "-quick", "-json")
	var rep struct {
		OK     bool `json:"ok"`
		Checks int  `json:"checks"`
		Failed int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("wscheck -json output not JSON: %v\n%s", err, out)
	}
	if !rep.OK || rep.Failed != 0 || rep.Checks == 0 {
		t.Errorf("wscheck -model simple -quick: ok=%v checks=%d failed=%d\n%s",
			rep.OK, rep.Checks, rep.Failed, out)
	}
}

func TestCLIWscheckUsageErrors(t *testing.T) {
	dir := buildCmds(t)
	cases := [][]string{
		{},                           // neither -all nor -model
		{"-all", "-model", "simple"}, // both
		{"-model", "nosuch"},         // unknown variant
		{"-all", "-ns", "64,16"},     // unsorted grid
	}
	for _, args := range cases {
		cmd := exec.Command(filepath.Join(dir, "wscheck"), args...)
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("wscheck %v: want exit 2, got %v", args, err)
		}
	}
}
