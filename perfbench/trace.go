package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/stats"
)

// The traced run repeats the workload's request sequence with span
// recording on, then replays each request through the public calls of the
// layers it crosses — the program has no spans of its own yet — and
// attributes those spans to the request by its ID. Per-layer numbers come
// from the spans; end-to-end numbers never do.

// span is one timed call. Root spans (Parent 0) are the traced pass's
// requests, with ID = request index + 1; replay spans name their request
// as parent.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	roots []span // one per request; each slot written by one caller only
	mu    sync.Mutex
	kids  []span
}

func newRecorder(n int) *recorder {
	return &recorder{epoch: time.Now(), roots: make([]span, n)}
}

func (r *recorder) root(i int, name string, t0, t1 time.Time) {
	r.roots[i] = span{ID: i + 1, Req: i, Name: name,
		Start: int64(t0.Sub(r.epoch)), End: int64(t1.Sub(r.epoch))}
}

func (r *recorder) child(i int, name string, t0, t1 time.Time) {
	r.mu.Lock()
	r.kids = append(r.kids, span{ID: len(r.roots) + len(r.kids) + 1, Parent: i + 1, Req: i, Name: name,
		Start: int64(t0.Sub(r.epoch)), End: int64(t1.Sub(r.epoch))})
	r.mu.Unlock()
}

// durations returns, per request, the total duration of its spans named name.
func (r *recorder) durations(name string) map[int]time.Duration {
	out := map[int]time.Duration{}
	for _, s := range r.kids {
		if s.Name == name {
			out[s.Req] += time.Duration(s.End - s.Start)
		}
	}
	return out
}

// write stores every span as one JSON object per line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, ss := range [][]span{r.roots, r.kids} {
		for _, s := range ss {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// medianUs returns the median of ds in microseconds (0 when empty).
func medianUs(ds map[int]time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	xs := make([]float64, 0, len(ds))
	for _, d := range ds {
		xs = append(xs, float64(d)/1e3)
	}
	return stats.Median(xs)
}

// hitReplays is how many requests, the last of the sequence, the cache-hit
// replay repeats: few enough that all are still in the server's 512-entry
// LRU after the traced pass.
const hitReplays = 256

// replayHits repeats the last requests of the traced pass as cache hits:
// once in-process through Server.Handler().ServeHTTP into a recorder, once
// over loopback. Their difference is the transport's share. For
// fixed-point and ODE requests it also times BuildModel, which the handler
// runs on every hit. A replay that misses the cache is an error.
func replayHits(h *harness, seq sequence, rec *recorder) error {
	var idx []int
	for i := max(0, seq.len()-hitReplays); i < seq.len(); i++ {
		idx = append(idx, i)
	}
	hits0, _ := h.srv.CacheStats()
	handler := h.srv.Handler()
	errs := make([]error, len(h.clients))
	var wg sync.WaitGroup
	for ci, c := range h.clients {
		wg.Add(1)
		go func(ci int, c *http.Client) {
			defer wg.Done()
			for j := ci; j < len(idx); j += len(h.clients) {
				i := idx[j]
				q := seq.req(i)
				req := httptest.NewRequest(http.MethodPost, q.route, bytes.NewReader(q.body))
				w := httptest.NewRecorder()
				t0 := time.Now()
				handler.ServeHTTP(w, req)
				t1 := time.Now()
				code, _, err := h.call(c, q)
				t2 := time.Now()
				if err != nil || code != http.StatusOK || w.Code != http.StatusOK {
					errs[ci] = fmt.Errorf("hit replay of %s %s: status %d/%d %v", q.route, q.body, w.Code, code, err)
					return
				}
				rec.child(i, "serve.handler", t0, t1)
				rec.child(i, "serve.loopback", t1, t2)
				if q.route != routeSimulate {
					if err := timeBuild(q, rec, i); err != nil {
						errs[ci] = err
						return
					}
				}
			}
		}(ci, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if hits1, _ := h.srv.CacheStats(); hits1-hits0 != int64(2*len(idx)) {
		return fmt.Errorf("hit replay: %d cache hits for %d replayed requests, want every replay a hit", hits1-hits0, 2*len(idx))
	}
	return nil
}

func timeBuild(q request, rec *recorder, i int) error {
	var fp experiments.FixedPointSpec
	var ode experiments.ODESpec
	spec, build := any(&fp), func() error { _, err := fp.BuildModel(); return err }
	if q.route == routeODE {
		spec, build = &ode, func() error { _, err := ode.BuildModel(); return err }
	}
	if err := json.Unmarshal(q.body, spec); err != nil {
		return err
	}
	t0 := time.Now()
	err := build()
	rec.child(i, "experiments.build_model", t0, time.Now())
	return err
}

// replayCold re-solves every request in-process — the full oracle — and
// records the build, solve and render spans of each.
func replayCold(seq sequence, o *outcome, rec *recorder, cfg config) error {
	errs := make([]error, seq.len())
	parallel(seq.len(), func(i int) {
		t0 := time.Now()
		want, st, err := expectSolve(seq.req(i))
		if err != nil {
			errs[i] = err
			return
		}
		if cfg.mutate != nil {
			want = cfg.mutate(want)
		}
		if !bytes.Equal(want, o.bodies[i]) {
			o.bad.mark(i, "body differs from the in-process oracle")
		}
		solve := "meanfield.solve"
		if st.ode {
			solve = "meanfield.ode"
		}
		t1 := t0.Add(st.build)
		t2 := t1.Add(st.solve)
		rec.child(i, "experiments.build_model", t0, t1)
		rec.child(i, solve, t1, t2)
		rec.child(i, "experiments.render", t2, t2.Add(st.render))
	})
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
	}
	return nil
}

// replaySim runs the sequence again as a closed loop, in-process, through
// the same layer calls the server makes — SimSpec.Options, Pool.Sim →
// Cell.AggregateCtx on a pool of the server's size, BuildSimReport and
// cliutil.WriteJSON — so the cell spans see the same queueing. The
// rendered report must equal the served one. work returns each request's
// replication time summed over its replications.
func replaySim(seq sequence, o *outcome, rec *recorder, cfg config) (work map[int]time.Duration, err error) {
	pool := sched.New(workers())
	defer pool.Close()
	var mu sync.Mutex
	work = map[int]time.Duration{}
	errs := make([]error, seq.len())
	parallel(seq.len(), func(i int) {
		var req serve.SimulateRequest
		if err := json.Unmarshal(seq.req(i).body, &req); err != nil {
			errs[i] = err
			return
		}
		spec := req.SimSpec
		t0 := time.Now()
		opts, err := spec.Options()
		t1 := time.Now()
		if err != nil {
			errs[i] = err
			return
		}
		cell, err := pool.Sim(opts, spec.Reps)
		if err != nil {
			errs[i] = err
			return
		}
		agg, err := cell.AggregateCtx(context.Background())
		t2 := time.Now()
		if err != nil {
			errs[i] = err
			return
		}
		rep := experiments.BuildSimReport(&spec, agg)
		t3 := time.Now()
		var buf bytes.Buffer
		if err := cliutil.WriteJSON(&buf, rep); err != nil {
			errs[i] = err
			return
		}
		t4 := time.Now()
		rec.child(i, "experiments.sim_options", t0, t1)
		rec.child(i, "sched.cell", t1, t2)
		rec.child(i, "experiments.sim_report", t2, t3)
		rec.child(i, "experiments.render", t3, t4)
		var w time.Duration
		for _, r := range agg.Results {
			w += time.Duration(r.Metrics.WallSeconds * 1e9)
		}
		mu.Lock()
		work[i] = w
		mu.Unlock()
		want := scrub(buf.Bytes())
		if cfg.mutate != nil {
			want = cfg.mutate(want)
		}
		if !bytes.Equal(want, scrub(o.bodies[i])) {
			o.bad.mark(i, "body differs from the Pool.Sim replay")
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("simulate replay: %w", err)
		}
	}
	return work, nil
}

// term is one layer's self time on the blocking path of a request.
type term struct {
	name string
	ms   float64
}

// baseline is what the traced run keeps of a pass: its totals.
type baseline struct {
	wall                time.Duration
	failed              int
	coalesced, rejected float64
	allocBytes, numGC   uint64
	problems            []string
}

// untraced runs a verified, untraced pass on a fresh server. It reports
// the pass's failures and guard problems and keeps only its totals, so the
// traced pass runs on a heap of the same size.
func untraced(w workload, seq sequence, cfg config, out io.Writer) (baseline, error) {
	s, _, err := open(w, cfg)
	if err != nil {
		return baseline{}, err
	}
	p, err := pass(s.h, w, seq, s.check(seq), nil)
	s.h.close()
	if err != nil {
		return baseline{}, err
	}
	if err := verify(w, seq, &p.o, cfg); err != nil {
		return baseline{}, err
	}
	reportFailures(out, seq, p.o)
	return baseline{
		wall: p.o.wall, failed: p.o.bad.count(), coalesced: p.coalesced, rejected: p.rejected,
		allocBytes: p.allocBytes, numGC: p.numGC,
		problems: append(s.problems, shapeGuards(w, seq.len(), p)...),
	}, nil
}

// traced is the traced per-layer run: a traced pass between two untraced
// ones (their mean is the overhead baseline, free of order bias), each on
// a fresh server, then the replays and the panel. The span buffer lives
// only through the traced pass, so the untraced passes' runtime counters
// are the program's own; the buffer's effect on GC pacing counts as
// tracing overhead.
func traced(w workload, cfg config, out io.Writer) (result, error) {
	seq := w.sequence(cfg.seed, cfg.seconds)
	fmt.Fprintf(out, "workload %s seed %d (traced): %d requests, sequence sha256 %s\n", w.name, cfg.seed, seq.len(), digest(seq))
	refBefore := hostRef()

	before, err := untraced(w, seq, cfg, out)
	if err != nil {
		return result{}, err
	}
	m, tp, err := tracedPass(w, seq, cfg, out)
	if err != nil {
		return result{}, err
	}
	after, err := untraced(w, seq, cfg, out)
	if err != nil {
		return result{}, err
	}
	problems := append(append(before.problems, tp.problems...), after.problems...)
	for _, pr := range problems {
		fmt.Fprintf(out, "guard FAILED: %s\n", pr)
	}

	pm, err := panel()
	if err != nil {
		return result{}, err
	}
	for k, v := range pm {
		m[k] = v
	}
	refAfter := hostRef()
	n := float64(seq.len())
	m["serve.coalesced"] = metric{before.coalesced + tp.coalesced + after.coalesced, "count"}
	m["serve.rejected"] = metric{before.rejected + tp.rejected + after.rejected, "count"}
	m["runtime.alloc_kb_per_req"] = metric{float64(before.allocBytes+after.allocBytes) / 1024 / (2 * n), "KiB"}
	m["runtime.gc_per_1k_req"] = metric{float64(before.numGC+after.numGC) * 1000 / (2 * n), "count"}
	m["host.ref_ms"] = metric{(refBefore + refAfter) / 2, "ms"}
	fmt.Fprintf(out, "host.ref_ms before %.3f after %.3f\n", refBefore, refAfter)

	untracedRPS := 2 * n / (before.wall + after.wall).Seconds()
	tracedRPS := n / tp.wall.Seconds()
	m["trace.overhead_frac"] = metric{1 - tracedRPS/untracedRPS, "ratio"}
	fmt.Fprintf(out, "throughput untraced %.2f rps, traced %.2f rps, trace.overhead_frac %.4f\n",
		untracedRPS, tracedRPS, 1-tracedRPS/untracedRPS)

	failed := before.failed + tp.failed + after.failed
	return result{
		Correct:   failed == 0 && len(problems) == 0,
		Attempted: 3 * seq.len(),
		Failed:    failed,
		Metrics:   m,
	}, nil
}

// tracedPass runs the traced pass on a fresh server, replays its requests
// through the layers, writes the spans, and returns the request-stream
// layer metrics with the reconciliation. Only totals of the pass are kept.
func tracedPass(w workload, seq sequence, cfg config, out io.Writer) (map[string]metric, baseline, error) {
	s, _, err := open(w, cfg)
	if err != nil {
		return nil, baseline{}, err
	}
	defer s.h.close()
	rec := newRecorder(seq.len())
	p, err := pass(s.h, w, seq, s.check(seq), rec)
	if err != nil {
		return nil, baseline{}, err
	}
	if err := replayHits(s.h, seq, rec); err != nil {
		return nil, baseline{}, err
	}
	var work map[int]time.Duration
	switch w.kind {
	case kindCold:
		err = replayCold(seq, &p.o, rec, cfg)
	case kindSim:
		work, err = replaySim(seq, &p.o, rec, cfg)
		checkUtilizations(&p.o)
	}
	if err != nil {
		return nil, baseline{}, err
	}
	reportGuards(out, w, p)
	reportFailures(out, seq, p.o)
	path := filepath.Join(cfg.spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
	if err := rec.write(path); err != nil {
		return nil, baseline{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "spans written to %s\n", path)

	m := layerMetrics(w, rec, work, s.renders)
	hitRatio := 0.0
	if p.hits+p.misses > 0 {
		hitRatio = float64(p.hits) / float64(p.hits+p.misses)
	}
	m["serve.cache_hit_ratio"] = metric{hitRatio, "ratio"}

	p50 := quantile(sortedMs(p.o.lat), 0.5)
	sum, line := 0.0, ""
	for _, t := range blockingPath(w, m) {
		sum += t.ms
		line += fmt.Sprintf(" + %s %.4f", t.name, t.ms)
	}
	m["reconcile.layers_ms"] = metric{sum, "ms"}
	m["reconcile.residual_ms"] = metric{p50 - sum, "ms"}
	fmt.Fprintf(out, "reconcile %s: traced p50 %.4f ms = layers %.4f ms (%s) + residual %.4f ms\n",
		w.name, p50, sum, line[3:], p50-sum)
	return m, baseline{
		wall: p.o.wall, failed: p.o.bad.count(), coalesced: p.coalesced, rejected: p.rejected,
		problems: append(s.problems, shapeGuards(w, seq.len(), p)...),
	}, nil
}

// layerMetrics turns the replay spans into the request-stream layer
// metrics. A layer the workload's requests never call reports 0.
func layerMetrics(w workload, rec *recorder, work map[int]time.Duration, hotRenders []time.Duration) map[string]metric {
	handler := rec.durations("serve.handler")
	loop := rec.durations("serve.loopback")
	transport := map[int]time.Duration{}
	for i, d := range loop {
		transport[i] = d - handler[i]
	}
	renderUs := medianUs(rec.durations("experiments.render"))
	if w.kind == kindHot {
		// Hits serve cached bytes; the render the hot set paid once was
		// timed by the set-up oracle.
		xs := make([]float64, len(hotRenders))
		for i, d := range hotRenders {
			xs[i] = float64(d) / 1e3
		}
		renderUs = stats.Median(xs)
	}
	solve := rec.durations("meanfield.solve")
	for i, d := range rec.durations("meanfield.ode") {
		solve[i] = d
	}
	cell := rec.durations("sched.cell")
	wait := map[int]time.Duration{}
	for i, d := range cell {
		wait[i] = d - work[i]/time.Duration(workers())
	}
	return map[string]metric{
		"serve.handler_us":           {medianUs(handler), "us"},
		"serve.transport_us":         {medianUs(transport), "us"},
		"experiments.build_model_us": {medianUs(rec.durations("experiments.build_model")), "us"},
		"experiments.render_us":      {renderUs, "us"},
		"experiments.sim_options_us": {medianUs(rec.durations("experiments.sim_options")), "us"},
		"experiments.sim_report_us":  {medianUs(rec.durations("experiments.sim_report")), "us"},
		"sched.cell_ms":              {medianUs(cell) / 1e3, "ms"},
		"sched.wait_ms":              {medianUs(wait) / 1e3, "ms"},
		"meanfield.request_ms":       {medianUs(solve) / 1e3, "ms"},
		"sim.request_ms":             {medianUs(work) / 1e3 / float64(workers()), "ms"},
	}
}

// blockingPath lists the self times on the blocking path of a typical
// request of the workload, from the medians of the layer metrics. The
// server's hit path (transport + handler) is on every request's path.
func blockingPath(w workload, m map[string]metric) []term {
	us := func(k string) float64 { return m[k].Value / 1e3 }
	build := us("experiments.build_model_us")
	terms := []term{
		{"transport", us("serve.transport_us")},
		{"serve", us("serve.handler_us") - build},
	}
	switch w.kind {
	case kindHot:
		terms = append(terms, term{"build", build})
	case kindCold:
		// The handler builds the model, and SolveWith/Integrate build it
		// again; the solve span includes the second build.
		terms = append(terms, term{"build", build}, term{"solve", m["meanfield.request_ms"].Value},
			term{"render", us("experiments.render_us")})
	case kindSim:
		terms[1] = term{"serve", us("serve.handler_us") - us("experiments.sim_options_us")}
		terms = append(terms,
			term{"options", us("experiments.sim_options_us")},
			term{"sched_wait", m["sched.wait_ms"].Value},
			term{"replications", m["sim.request_ms"].Value},
			term{"report", us("experiments.sim_report_us")},
			term{"render", us("experiments.render_us")})
	}
	return terms
}
