package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
)

// testSpec is a small but non-trivial simulate spec; Reps 8 gives a thief
// two full batches at the default test StealBatch of 4.
func testSpec(seed uint64) experiments.SimSpec {
	return experiments.SimSpec{N: 16, Lambda: 0.9, Horizon: 200, Warmup: 20, Reps: 8, Seed: seed}
}

// fingerprint renders the deterministic content of results (fmt handles
// the NaN quantiles reflect.DeepEqual would reject).
func fingerprint(rs []sim.Result) string {
	out := make([]sim.Result, len(rs))
	for i, r := range rs {
		r.Metrics.WallSeconds = 0
		r.Metrics.EventsPerSec = 0
		out[i] = r
	}
	return fmt.Sprintf("%+v", out)
}

// groundTruth runs the spec fully locally on a fresh pool.
func groundTruth(t *testing.T, seed uint64) string {
	t.Helper()
	p := sched.New(4)
	defer p.Close()
	spec := testSpec(seed)
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	cell, err := p.Sim(opts, spec.Reps)
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint(cell.Aggregate().Results)
}

func waitFor(t *testing.T, timeout time.Duration, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal(msg)
}

// harness is a localhost cluster of Nodes, each with its own HTTP server
// and scheduler pool, torn down in dependency order by close.
type harness struct {
	t     *testing.T
	muxes []*http.ServeMux
	srvs  []*httptest.Server
	pools []*sched.Pool
	nodes []*Node
}

// newHarness boots count replicas. workers[i] sizes replica i's pool (0 =
// 2); tweak, when non-nil, adjusts each replica's Config before New.
func newHarness(t *testing.T, count int, workers []int, tweak func(i int, cfg *Config)) *harness {
	t.Helper()
	h := &harness{t: t}
	urls := make([]string, count)
	for i := 0; i < count; i++ {
		mux := http.NewServeMux()
		srv := httptest.NewServer(mux)
		h.muxes = append(h.muxes, mux)
		h.srvs = append(h.srvs, srv)
		urls[i] = srv.URL
	}
	for i := 0; i < count; i++ {
		w := 2
		if workers != nil && workers[i] > 0 {
			w = workers[i]
		}
		pool := sched.New(w)
		h.pools = append(h.pools, pool)
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		cfg := Config{
			Self:           urls[i],
			Peers:          peers,
			Pool:           pool,
			GossipInterval: 10 * time.Millisecond,
			StealBatch:     4,
			LeaseTTL:       2 * time.Second,
			HedgeDelay:     5 * time.Millisecond,
			RPCTimeout:     time.Second,
			Retry:          Backoff{Base: 5 * time.Millisecond, Attempts: 3},
		}
		if tweak != nil {
			tweak(i, &cfg)
		}
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h.nodes = append(h.nodes, n)
		for pattern, handler := range n.Endpoints() {
			h.muxes[i].HandleFunc(pattern, handler)
		}
	}
	t.Cleanup(h.close)
	return h
}

// close tears the cluster down: nodes first (they own goroutines calling
// into the pools and servers), then servers, then pools.
func (h *harness) close() {
	for _, n := range h.nodes {
		n.Close()
	}
	for _, s := range h.srvs {
		s.CloseClientConnections()
		s.Close()
	}
	for _, p := range h.pools {
		p.Close()
	}
	h.nodes, h.srvs, h.pools = nil, nil, nil
}

// blockPool occupies one worker of p until the returned release func runs.
func blockPool(p *sched.Pool) (release func()) {
	ch := make(chan struct{})
	p.Go(func(*sim.Runner) { <-ch })
	return func() { close(ch) }
}

// offerCell submits the spec on the node's pool and offers it for
// stealing, returning the cell.
func offerCell(t *testing.T, h *harness, i int, seed uint64) *sched.Cell {
	t.Helper()
	spec := testSpec(seed)
	opts, err := spec.Options() // normalizes spec in place too
	if err != nil {
		t.Fatal(err)
	}
	cell, err := h.pools[i].Sim(opts, spec.Reps)
	if err != nil {
		t.Fatal(err)
	}
	release := h.nodes[i].Offer(fmt.Sprintf("sim:test-%d", seed), spec, cell)
	t.Cleanup(release)
	return cell
}

// TestStealEndToEnd is the tentpole integration test: a victim whose one
// worker is wedged offers a cell; an idle peer discovers the load by
// gossip, steals every replication in batches, runs them on its own pool,
// and posts the results back. The aggregate must be byte-identical to a
// fully local run, with all eight replications stolen.
func TestStealEndToEnd(t *testing.T) {
	const seed = 31
	want := groundTruth(t, seed)

	h := newHarness(t, 2, []int{1, 4}, nil)
	release := blockPool(h.pools[0]) // victim's single worker is wedged
	defer release()
	cell := offerCell(t, h, 0, seed)

	h.nodes[0].Start()
	h.nodes[1].Start()

	select {
	case <-cell.Done():
	case <-time.After(15 * time.Second):
		t.Fatalf("cell never resolved: stolen=%d pending=%d", cell.Stolen(), cell.Pending())
	}
	agg, err := cell.AggregateCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(agg.Results); got != want {
		t.Fatal("stolen aggregate differs from fully local run")
	}
	if cell.Stolen() != 8 || cell.Ran() != 0 {
		t.Fatalf("Stolen=%d Ran=%d, want 8 stolen and 0 local (victim worker was wedged)",
			cell.Stolen(), cell.Ran())
	}

	// Both sides' metrics saw the traffic.
	vm, tm := h.nodes[0].met, h.nodes[1].met
	granted, accepted := vm.grantedReps.Get(), vm.acceptedReps.Get()
	stolen := tm.stolenReps.Get()
	if granted != 8 || accepted != 8 || stolen != 8 {
		t.Fatalf("metrics granted=%d accepted=%d stolen=%d, want 8/8/8", granted, accepted, stolen)
	}
}

// TestCompletionIdempotencyOverHTTP drives the wire protocol directly: a
// duplicated completion POST (a retry after an ambiguous failure) must be
// rejected slot-for-slot the second time, and the cell must still
// aggregate correctly.
func TestCompletionIdempotencyOverHTTP(t *testing.T) {
	const seed = 37
	want := groundTruth(t, seed)

	h := newHarness(t, 1, []int{1}, nil)
	release := blockPool(h.pools[0])
	cell := offerCell(t, h, 0, seed)

	post := func(path, contentType string, body []byte) (int, []byte) {
		t.Helper()
		resp, err := http.Post(h.srvs[0].URL+path, contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	reqBody, _ := json.Marshal(stealRequest{Want: 3})
	status, body := post("/v1/cluster/steal", "application/json", reqBody)
	if status != http.StatusOK {
		t.Fatalf("steal answered %d: %s", status, body)
	}
	var g stealGrant
	if err := json.Unmarshal(body, &g); err != nil || g.Key == "" || len(g.Indices) != 3 {
		t.Fatalf("grant = %+v (err %v), want 3 indices", g, err)
	}

	// Run the stolen indices the way a thief would.
	opts, err := g.Spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	if err := (sim.Replication{Reps: g.Spec.Reps}).Validate(&opts); err != nil {
		t.Fatal(err)
	}
	results := make([]sim.Result, len(g.Indices))
	var runner sim.Runner
	for j, idx := range g.Indices {
		results[j] = runner.RunRep(opts, idx)
	}
	payload, err := encodeCompletion(completion{
		From: "test-thief", Key: g.Key, Lease: g.Lease, Indices: g.Indices, Results: results,
	})
	if err != nil {
		t.Fatal(err)
	}

	var rep completeReply
	status, body = post("/v1/cluster/complete", "application/x-gob", payload)
	if status != http.StatusOK {
		t.Fatalf("complete answered %d: %s", status, body)
	}
	json.Unmarshal(body, &rep)
	if rep.Accepted != 3 || rep.Rejected != 0 {
		t.Fatalf("first completion = %+v, want 3 accepted", rep)
	}
	status, body = post("/v1/cluster/complete", "application/x-gob", payload)
	if status != http.StatusOK {
		t.Fatalf("duplicate complete answered %d: %s", status, body)
	}
	json.Unmarshal(body, &rep)
	if rep.Accepted != 0 || rep.Rejected != 3 {
		t.Fatalf("duplicate completion = %+v, want 3 rejected", rep)
	}

	release() // let the local worker finish the rest
	select {
	case <-cell.Done():
	case <-time.After(15 * time.Second):
		t.Fatal("cell never resolved after releasing the local worker")
	}
	agg, err := cell.AggregateCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(agg.Results); got != want {
		t.Fatal("aggregate corrupted by duplicate completion")
	}
}

// TestLeaseExpiryReclaims pins partition recovery end to end: a thief that
// steals and vanishes has its lease reclaimed by the sweeper, the work
// finishes locally, and the ghost's eventual completion is rejected.
func TestLeaseExpiryReclaims(t *testing.T) {
	const seed = 41
	want := groundTruth(t, seed)

	h := newHarness(t, 1, []int{1}, func(_ int, cfg *Config) {
		cfg.LeaseTTL = 50 * time.Millisecond
	})
	release := blockPool(h.pools[0])
	cell := offerCell(t, h, 0, seed)
	h.nodes[0].Start() // runs the sweeper

	reqBody, _ := json.Marshal(stealRequest{Want: 4})
	resp, err := http.Post(h.srvs[0].URL+"/v1/cluster/steal", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	var g stealGrant
	json.NewDecoder(resp.Body).Decode(&g)
	resp.Body.Close()
	if g.Key == "" || len(g.Indices) == 0 {
		t.Fatalf("grant = %+v, want a non-empty lease", g)
	}

	release() // local worker drains the unleased slots; sweeper reclaims the rest
	select {
	case <-cell.Done():
	case <-time.After(15 * time.Second):
		t.Fatalf("cell never resolved after lease expiry: pending=%d", cell.Pending())
	}
	if cell.Stolen() != 0 {
		t.Fatalf("Stolen = %d, want 0 (the thief vanished)", cell.Stolen())
	}
	agg, err := cell.AggregateCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(agg.Results); got != want {
		t.Fatal("reclaimed aggregate differs from fully local run")
	}

	// The ghost thief finally completes — every slot must be rejected.
	var runner sim.Runner
	opts, _ := g.Spec.Options()
	(sim.Replication{Reps: g.Spec.Reps}).Validate(&opts)
	results := make([]sim.Result, len(g.Indices))
	for j, idx := range g.Indices {
		results[j] = runner.RunRep(opts, idx)
	}
	payload, _ := encodeCompletion(completion{
		From: "ghost", Key: g.Key, Lease: g.Lease, Indices: g.Indices, Results: results,
	})
	resp, err = http.Post(h.srvs[0].URL+"/v1/cluster/complete", "application/x-gob", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var rep completeReply
	json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if rep.Accepted != 0 {
		t.Fatalf("ghost completion accepted %d slots, want 0", rep.Accepted)
	}
}

// TestStandaloneDegradation pins the degradation ladder: when every peer
// dies, gossip health collapses, the per-peer breaker opens, the
// standalone gauge rises, and /readyz's status line says so.
func TestStandaloneDegradation(t *testing.T) {
	h := newHarness(t, 2, nil, nil)
	h.nodes[0].Start()

	waitFor(t, 5*time.Second, "node 0 never saw its peer healthy", func() bool {
		return h.nodes[0].ClusterStatus().Healthy == 1
	})
	if h.nodes[0].ClusterStatus().Standalone {
		t.Fatal("standalone with a healthy peer")
	}

	// Kill the peer's HTTP server.
	h.srvs[1].CloseClientConnections()
	h.srvs[1].Close()

	waitFor(t, 5*time.Second, "node 0 never degraded to standalone", func() bool {
		st := h.nodes[0].ClusterStatus()
		return st.Standalone && st.Healthy == 0
	})
	waitFor(t, 5*time.Second, "peer breaker never opened", func() bool {
		return h.nodes[0].peers[0].brk.Current() != 0 // half-open or open
	})

	st := h.nodes[0].ClusterStatus()
	if got := st.String(); !strings.Contains(got, "standalone") || !strings.Contains(got, "0/1") {
		t.Fatalf("status line = %q, want standalone 0/1", got)
	}

	p := metrics.NewPromWriter()
	h.nodes[0].EmitProm(p)
	var buf bytes.Buffer
	p.WriteTo(&buf)
	if !strings.Contains(buf.String(), "wsserved_cluster_standalone 1") {
		t.Fatalf("metrics missing standalone gauge:\n%s", buf.String())
	}
}

// TestForwardRouting pins consistent-hash request routing: a key owned by
// the peer is proxied with the loop-prevention header, a key owned by self
// is served locally, and an injected partition degrades to local compute.
func TestForwardRouting(t *testing.T) {
	var gotForwarded, gotFrom string
	h := newHarness(t, 2, nil, nil)
	h.muxes[1].HandleFunc("POST /v1/fixedpoint", func(w http.ResponseWriter, r *http.Request) {
		gotForwarded = r.Header.Get(ForwardedHeader)
		gotFrom = r.Header.Get(fromHeader)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"answer": 42}`)
	})
	// Mark the peer healthy without running gossip loops.
	h.nodes[0].byURL[h.srvs[1].URL].observe(true, 0, false)

	peerKey, selfKey := "", ""
	for i := 0; i < 10000 && (peerKey == "" || selfKey == ""); i++ {
		key := fmt.Sprintf("fp:%064d", i)
		if owner(h.nodes[0].member, key) == h.srvs[1].URL {
			peerKey = key
		} else {
			selfKey = key
		}
	}

	res, ok := h.nodes[0].Forward(context.Background(), "/v1/fixedpoint", peerKey, []byte(`{}`))
	if !ok || res.Status != http.StatusOK || !bytes.Contains(res.Body, []byte("42")) {
		t.Fatalf("Forward = (%+v, %v), want relayed 200", res, ok)
	}
	if gotForwarded != "1" || gotFrom != h.srvs[0].URL {
		t.Fatalf("owner saw forwarded=%q from=%q, want 1 and the sender's URL", gotForwarded, gotFrom)
	}
	if _, ok := h.nodes[0].Forward(context.Background(), "/v1/fixedpoint", selfKey, []byte(`{}`)); ok {
		t.Fatal("Forward proxied a self-owned key")
	}

	// Partition the link: Forward must fall back to local compute.
	h2 := newHarness(t, 2, nil, func(i int, cfg *Config) {
		if i == 0 {
			cfg.Chaos = chaos.New(chaos.Config{Seed: 5, PPartition: 1})
		}
	})
	h2.nodes[0].byURL[h2.srvs[1].URL].observe(true, 0, false)
	key := ""
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("fp:%064d", i)
		if owner(h2.nodes[0].member, k) == h2.srvs[1].URL {
			key = k
			break
		}
	}
	if _, ok := h2.nodes[0].Forward(context.Background(), "/v1/fixedpoint", key, []byte(`{}`)); ok {
		t.Fatal("Forward succeeded across an injected partition")
	}
	dropped, fallbacks := h2.nodes[0].met.rpcDropped.Get(), h2.nodes[0].met.forwardFallbacks.Get()
	if dropped == 0 || fallbacks == 0 {
		t.Fatalf("partition drop not counted: dropped=%d fallbacks=%d", dropped, fallbacks)
	}
}

// TestNoGoroutineLeakOnClose mirrors the serving layer's shutdown test: a
// cluster that gossiped and stole must release every goroutine on Close.
func TestNoGoroutineLeakOnClose(t *testing.T) {
	baseline := runtime.NumGoroutine()

	h := newHarness(t, 2, []int{1, 2}, nil)
	release := blockPool(h.pools[0])
	cell := offerCell(t, h, 0, 43)
	h.nodes[0].Start()
	h.nodes[1].Start()
	select {
	case <-cell.Done():
	case <-time.After(15 * time.Second):
		t.Fatal("cell never resolved before shutdown")
	}
	release()
	h.close()

	waitFor(t, 5*time.Second, "goroutines leaked after Close", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+3
	})
}

// TestNewValidatesConfig pins the constructor contract.
func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted an empty config")
	}
	if _, err := New(Config{Self: "http://x"}); err == nil {
		t.Fatal("New accepted a config without a pool")
	}
	p := sched.New(1)
	defer p.Close()
	n, err := New(Config{Self: "http://x", Peers: []string{"http://x", "http://y", "http://y"}, Pool: p})
	if err != nil {
		t.Fatal(err)
	}
	if len(n.peers) != 1 {
		t.Fatalf("peer list = %d entries, want 1 (self and duplicates dropped)", len(n.peers))
	}
	if !n.ClusterStatus().Standalone {
		t.Fatal("fresh node should report standalone until gossip proves otherwise")
	}
	n.Close() // Close before Start must be a safe no-op
}
