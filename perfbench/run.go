package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
)

// passStats is one timed pass over the sequence and what the server and
// the Go runtime counted during it.
type passStats struct {
	o                   outcome
	hits, misses        int64
	coalesced, rejected float64
	allocBytes, numGC   uint64
	rssMB               float64
}

const (
	metricCoalesced = "wsserved_coalesced_total"
	metricRejected  = "wsserved_sim_rejected_total"
)

// pass runs one timed closed-loop pass over seq on h. Peak memory counts
// from the start of the pass: set-up and oracle work before it do not.
func pass(h *harness, w workload, seq sequence, check func(int, []byte) bool, rec *recorder) (passStats, error) {
	debug.FreeOSMemory() // start every pass from the same heap state, returned to the OS
	if err := resetPeakRSS(); err != nil {
		return passStats{}, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	h0, mi0 := h.srv.CacheStats()
	o := h.drive(seq, w.kind != kindHot, check, rec)
	rss, err := peakRSSMB()
	if err != nil {
		return passStats{}, err
	}
	runtime.ReadMemStats(&m1)
	h1, mi1 := h.srv.CacheStats()
	c, err := h.counters(metricCoalesced, metricRejected)
	if err != nil {
		return passStats{}, err
	}
	return passStats{
		o: o, hits: h1 - h0, misses: mi1 - mi0,
		coalesced: c[metricCoalesced], rejected: c[metricRejected],
		allocBytes: m1.TotalAlloc - m0.TotalAlloc, numGC: uint64(m1.NumGC - m0.NumGC),
		rssMB: rss,
	}, nil
}

// shapeGuards lists the ways a pass stopped being the workload it claims
// to be: solve-hot must hit the cache on every request, the others never;
// no workload may coalesce or be refused admission.
func shapeGuards(w workload, n int, p passStats) []string {
	var bad []string
	if w.kind == kindHot && (p.hits != int64(n) || p.misses != 0) {
		bad = append(bad, fmt.Sprintf("solve-hot cache hits %d, misses %d of %d requests: want every request a hit", p.hits, p.misses, n))
	}
	if w.kind != kindHot && p.hits != 0 {
		bad = append(bad, fmt.Sprintf("%s cache hits %d: want 0", w.name, p.hits))
	}
	if p.coalesced != 0 {
		bad = append(bad, fmt.Sprintf("%g coalesced requests: want 0", p.coalesced))
	}
	if p.rejected != 0 {
		bad = append(bad, fmt.Sprintf("%g requests rejected by admission control: want 0", p.rejected))
	}
	return bad
}

// hotOracle solves the hot set in-process and returns the bytes each of
// its requests must be answered with, in hot-set order. Warm-up bodies
// that differ from the in-process answer are reported as problems.
func hotOracle(w workload, warmBodies [][]byte, cfg config) (want [][]byte, renders []time.Duration, problems []string, err error) {
	for i, q := range w.warmup() {
		body, st, err := expectSolve(q)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("in-process solve of %s: %w", q.body, err)
		}
		if cfg.mutate != nil {
			body = cfg.mutate(body)
		}
		if !bytes.Equal(body, warmBodies[i]) {
			problems = append(problems, fmt.Sprintf("setup: served body of %s %s differs from the in-process solve", q.route, q.body))
		}
		want = append(want, body)
		renders = append(renders, st.render)
	}
	return want, renders, problems, nil
}

// oracleEvery is the sample rate of the recomputing oracles: they check 1
// request in oracleEvery, a seeded choice.
const oracleEvery = 10

// verify runs the recomputing oracle of a cold or simulate pass over a
// seeded sample and marks mismatches bad. Simulation bodies also must show
// a utilization close to their λ, all of them. Hot passes were checked
// inline against the set-up oracle.
func verify(w workload, seq sequence, o *outcome, cfg config) error {
	if w.kind == kindHot {
		return nil
	}
	var firstErr error
	idx := sample(cfg.seed, seq.len(), oracleEvery)
	errs := make([]error, len(idx))
	parallel(len(idx), func(j int) {
		i := idx[j]
		var want, got []byte
		var err error
		switch w.kind {
		case kindCold:
			want, _, err = expectSolve(seq.req(i))
			got = o.bodies[i]
		case kindSim:
			want, err = expectSim(seq.req(i))
			got = scrub(o.bodies[i])
		}
		if err != nil {
			errs[j] = err
			return
		}
		if cfg.mutate != nil {
			want = cfg.mutate(want)
		}
		if !bytes.Equal(want, got) {
			o.bad.mark(i, "body differs from the in-process oracle")
		}
	})
	for _, err := range errs {
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("oracle: %w", err)
		}
	}
	if w.kind == kindSim {
		checkUtilizations(o)
	}
	return firstErr
}

// session is a set-up harness ready for its timed pass.
type session struct {
	h    *harness
	want [][]byte // solve-hot: expected body per hot-set request
	// renders are the hot-set render times measured by the oracle.
	renders  []time.Duration
	problems []string
}

// check returns the inline body check of the session's workload over seq.
func (s *session) check(seq sequence) func(int, []byte) bool {
	if s.want == nil {
		return nil
	}
	return func(i int, body []byte) bool { return bytes.Equal(body, s.want[seq.slot(i)]) }
}

// open sets the workload up once and returns the harness with the time
// set-up took. Only user-visible work is timed: serve.New, the listener,
// the caller connections and the warm-up requests.
func open(w workload, cfg config) (*session, float64, error) {
	runtime.GC() // every set-up starts from the same heap state
	t0 := time.Now()
	h, warm, err := setup(w)
	if err != nil {
		return nil, 0, err
	}
	took := time.Since(t0).Seconds()
	s := &session{h: h}
	if w.kind == kindHot {
		s.want, s.renders, s.problems, err = hotOracle(w, warm, cfg)
		if err != nil {
			h.close()
			return nil, 0, err
		}
	}
	return s, took, nil
}

// Set-up time is the median over several fresh set-ups per run: at least
// minSetups, and more while they have taken less than setupBudget. The
// budget spreads the samples over a few seconds of the host's speed: a
// set-up of a few milliseconds is sampled up to maxSetups times, one of a
// third of a second about nine times.
const (
	minSetups   = 5
	maxSetups   = 1000
	setupBudget = 3 * time.Second
)

// moreSetups times further set-ups after the timed pass, so that their
// garbage does not count in the pass's peak memory, and returns all
// set-up times including first.
func moreSetups(w workload, first float64) ([]float64, error) {
	times := []float64{first}
	total := first
	for len(times) < maxSetups && (len(times) < minSetups || total < setupBudget.Seconds()) {
		runtime.GC()
		t0 := time.Now()
		h, _, err := setup(w)
		if err != nil {
			return nil, err
		}
		d := time.Since(t0).Seconds()
		h.close()
		times = append(times, d)
		total += d
	}
	return times, nil
}

// endToEnd is the untraced run: it reports the five end-to-end metrics.
func endToEnd(w workload, cfg config, out io.Writer) (result, error) {
	seq := w.sequence(cfg.seed, cfg.seconds)
	fmt.Fprintf(out, "workload %s seed %d: %d requests, sequence sha256 %s\n", w.name, cfg.seed, seq.len(), digest(seq))
	refBefore := hostRef()
	s, first, err := open(w, cfg)
	if err != nil {
		return result{}, err
	}
	p, err := pass(s.h, w, seq, s.check(seq), nil)
	s.h.close()
	if err != nil {
		return result{}, err
	}
	if err := verify(w, seq, &p.o, cfg); err != nil {
		return result{}, err
	}
	setups, err := moreSetups(w, first)
	if err != nil {
		return result{}, err
	}
	refAfter := hostRef()
	problems := append(s.problems, shapeGuards(w, seq.len(), p)...)
	fmt.Fprintf(out, "setup_s samples %s\n", formatFloats(setups))
	fmt.Fprintf(out, "host.ref_ms before %.3f after %.3f (evidence of the host's speed; metrics are not normalized by it)\n", refBefore, refAfter)
	reportGuards(out, w, p)
	for _, pr := range problems {
		fmt.Fprintf(out, "guard FAILED: %s\n", pr)
	}
	reportFailures(out, seq, p.o)
	failed := p.o.bad.count()
	return result{
		Correct:   failed == 0 && len(problems) == 0,
		Attempted: seq.len(),
		Failed:    failed,
		Metrics:   endToEndMetrics(p, setups),
	}, nil
}

func endToEndMetrics(p passStats, setups []float64) map[string]metric {
	lat := sortedMs(p.o.lat)
	return map[string]metric{
		"setup_s":        {stats.Median(setups), "s"},
		"throughput_rps": {float64(len(lat)) / p.o.wall.Seconds(), "1/s"},
		"p50_ms":         {quantile(lat, 0.5), "ms"},
		"p90_ms":         {quantile(lat, 0.9), "ms"},
		"peak_rss_mb":    {p.rssMB, "MiB"},
	}
}

func reportGuards(out io.Writer, w workload, p passStats) {
	ratio := 0.0
	if p.hits+p.misses > 0 {
		ratio = float64(p.hits) / float64(p.hits+p.misses)
	}
	fmt.Fprintf(out, "guards %s: cache hit ratio %.4f, coalesced %g, rejected %g, failed %d\n",
		w.name, ratio, p.coalesced, p.rejected, p.o.bad.count())
}

// reportFailures prints why the first few failed requests failed.
func reportFailures(out io.Writer, seq sequence, o outcome) {
	for _, i := range o.bad.first(5) {
		q := seq.req(i)
		fmt.Fprintf(out, "request %d %s %s failed: %s\n", i, q.route, q.body, o.bad.reason(i))
	}
}

// resetPeakRSS restarts the kernel's peak resident set size count
// (VmHWM) of this process from its current resident size.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// sortedMs returns the durations in milliseconds, ascending.
func sortedMs(ds []time.Duration) []float64 {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / 1e6
	}
	sort.Float64s(ms)
	return ms
}

// quantile is the nearest-rank q-quantile of ascending xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func formatFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
