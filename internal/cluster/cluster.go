// Package cluster is the peer layer of the serving daemon: N wsserved
// replicas with a static peer list gossip load over HTTP, route cacheable
// requests to a consistent-hash owner, and let idle replicas steal queued
// simulate replications from loaded ones.
//
// The design leans on two facts from the layers below. First, replication
// i of a spec always runs on rng.DeriveSeed(Seed, i), so a stolen replication
// computed on a peer is byte-identical to the local run it displaced —
// stealing moves wall-clock load, never numbers. Second, sched.Cell's
// lease state machine makes completions idempotent, so the failure modes
// of a real network (duplicated completion POSTs, a partitioned thief
// re-running a reclaimed batch) are rejected at the cell instead of
// corrupting aggregates.
//
// Robustness machinery, in the order an RPC meets it: a per-peer chaos
// site (injected partitions and delays for drills), a per-peer sliding-
// window circuit breaker (a dead replica costs one cooldown, not a timeout
// per call), bounded retries with jittered exponential backoff and
// deadline propagation (completion POSTs), and hedged steal probes (a slow
// victim does not serialize the thief). Health-checked membership feeds
// /readyz and the standalone gauge: a node that cannot see any peer
// degrades to fully-local serving — every RPC path falls back to the
// local computation that PR 4's daemon already performs.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/breaker"
	"repro/internal/chaos"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Config tunes a Node. Self and Pool are required; everything else
// defaults to values sized for a localhost cluster.
type Config struct {
	// Self is this replica's advertised base URL (e.g. "http://127.0.0.1:8080").
	// It must appear exactly as other replicas list it in their Peers, or
	// consistent-hash owners will not agree.
	Self string
	// Peers lists the other replicas' base URLs (static membership).
	Peers []string
	// Pool is the shared scheduler pool stolen replications run on.
	Pool *sched.Pool
	// GossipInterval is the load-poll and steal-decision period (default
	// 500ms). A peer is unhealthy after 3 missed intervals.
	GossipInterval time.Duration
	// StealBatch caps the replications requested per steal (default 4).
	StealBatch int
	// LeaseTTL is how long a thief may sit on a lease before the sweeper
	// reclaims it (default 10s). It is also the completion deadline.
	LeaseTTL time.Duration
	// HedgeDelay is how long the thief waits on its best victim before
	// probing the second-best too (default 75ms).
	HedgeDelay time.Duration
	// RPCTimeout bounds each cluster RPC (default 2s).
	RPCTimeout time.Duration
	// Retry is the completion-POST retry policy; zero fields take the
	// Backoff defaults.
	Retry Backoff
	// Chaos, when non-nil, injects partitions and delays at the per-link
	// RPC sites. Leave nil in production.
	Chaos *chaos.Injector
	// Logger receives cluster events; nil discards.
	Logger *slog.Logger
}

// WithDefaults returns c with every zero or negative setting replaced by
// its default, Retry's included.
func (c Config) WithDefaults() Config {
	if c.GossipInterval <= 0 {
		c.GossipInterval = 500 * time.Millisecond
	}
	if c.StealBatch <= 0 {
		c.StealBatch = 4
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.HedgeDelay <= 0 {
		c.HedgeDelay = 75 * time.Millisecond
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 2 * time.Second
	}
	c.Retry = c.Retry.WithDefaults()
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// Node is one replica's membership in the cluster. Create with New, mount
// its Endpoints into the daemon's mux, Start it after the listener is up,
// and Close it before the scheduler pool.
type Node struct {
	cfg    Config
	client http.Client // deadlines come from per-RPC contexts
	chaos  *chaos.Injector
	log    *slog.Logger
	met    meters
	reg    *registry

	peers  []*peer
	byURL  map[string]*peer
	member []string // peers + self, the rendezvous domain

	stop       chan struct{}
	wg         sync.WaitGroup
	started    atomic.Bool
	draining   atomic.Bool
	standalone atomic.Bool
	stealing   atomic.Bool
}

// New builds a Node from cfg. The node is inert until Start.
func New(cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, errors.New("cluster: Config.Self is required")
	}
	if cfg.Pool == nil {
		return nil, errors.New("cluster: Config.Pool is required")
	}
	cfg = cfg.WithDefaults()
	// Peer RPCs are far sparser than requests: a small window, and a
	// cooldown of a few gossip rounds.
	brkCfg := breaker.Config{Window: 8, MinSamples: 4, Cooldown: 4 * cfg.GossipInterval}

	n := &Node{
		cfg:   cfg,
		chaos: cfg.Chaos,
		log:   cfg.Logger,
		met:   newMeters(),
		reg:   newRegistry(),
		byURL: make(map[string]*peer),
		stop:  make(chan struct{}),
	}
	staleAfter := 3 * cfg.GossipInterval
	seen := map[string]bool{cfg.Self: true}
	for _, u := range cfg.Peers {
		if u == "" || seen[u] {
			continue // self or duplicate in the peer list is a config slip
		}
		seen[u] = true
		p := newPeer(u, brkCfg, staleAfter)
		n.peers = append(n.peers, p)
		n.byURL[u] = p
	}
	n.member = append([]string{cfg.Self}, make([]string, 0, len(n.peers))...)
	for _, p := range n.peers {
		n.member = append(n.member, p.url)
	}
	sort.Strings(n.member)
	// Until the first gossip round proves otherwise, a node with peers
	// assumes it is isolated; a node without peers simply is.
	n.standalone.Store(true)
	return n, nil
}

// Start launches the gossip/steal loop and the lease sweeper. Call after
// the HTTP listener is accepting, so peers' first polls can succeed.
func (n *Node) Start() {
	if !n.started.CompareAndSwap(false, true) {
		return
	}
	n.wg.Add(1)
	go n.loop()
}

// Close stops the loops and waits for any in-flight steal execution to
// finish. Call before closing the scheduler pool.
func (n *Node) Close() {
	if !n.started.Load() {
		return
	}
	select {
	case <-n.stop:
	default:
		close(n.stop)
	}
	n.wg.Wait()
}

// SetDraining flips this node's advertised draining state: peers stop
// stealing from it, and it stops stealing for itself.
func (n *Node) SetDraining(d bool) { n.draining.Store(d) }

// Status is the cluster view /readyz renders.
type Status struct {
	Self       string
	Peers      int // configured
	Healthy    int // currently passing gossip health checks
	Standalone bool
	Draining   bool
}

// ClusterStatus reports the node's current membership health.
func (n *Node) ClusterStatus() Status {
	healthy := 0
	for _, p := range n.peers {
		if p.isHealthy() {
			healthy++
		}
	}
	return Status{
		Self:       n.cfg.Self,
		Peers:      len(n.peers),
		Healthy:    healthy,
		Standalone: n.standalone.Load(),
		Draining:   n.draining.Load(),
	}
}

// String renders a Status as the one-line summary /readyz appends.
func (s Status) String() string {
	mode := "clustered"
	if s.Standalone {
		mode = "standalone"
	}
	return fmt.Sprintf("cluster: %s, %d/%d peers healthy", mode, s.Healthy, s.Peers)
}

// EmitProm renders the cluster metrics into the daemon's exposition,
// first copying the live membership state into its gauges.
func (n *Node) EmitProm(p *metrics.PromWriter) {
	st := n.ClusterStatus()
	n.met.peers.Set(int64(st.Peers))
	n.met.peersHealthy.Set(int64(st.Healthy))
	standalone := int64(0)
	if st.Standalone {
		standalone = 1
	}
	n.met.standalone.Set(standalone)
	for _, pr := range n.peers {
		n.met.peerBreaker.With(pr.url).Set(int64(pr.brk.Current()))
	}
	n.met.reg.Write(p)
}

// Offer registers an in-flight simulate computation as stealable and
// returns its release func (call when the computation resolves). spec must
// already be normalized — it is shipped verbatim to thieves, and both
// sides must simulate the same model.
func (n *Node) Offer(key string, spec experiments.SimSpec, cell *sched.Cell) func() {
	return n.reg.add(key, spec, cell)
}

// NoteForwardedIn counts a forwarded request served on a peer's behalf
// (the serving layer detects the forwarded header; the count lives here
// with the rest of the cluster metrics).
func (n *Node) NoteForwardedIn() {
	n.met.forwardedIn.Add(1)
}

// ForwardResult is a relayed peer response.
type ForwardResult struct {
	Status int
	Body   []byte
}

// Forward routes a cacheable request to its consistent-hash owner and
// relays the owner's response. ok is false when the request should be
// served locally instead: this node owns the key, the owner is unhealthy
// or unreachable, or the owner answered a 5xx. Degradation is always
// toward local compute — forwarding is an optimization, never a
// dependency.
func (n *Node) Forward(ctx context.Context, route, key string, body []byte) (ForwardResult, bool) {
	if len(n.peers) == 0 {
		return ForwardResult{}, false
	}
	ownerURL := owner(n.member, key)
	if ownerURL == n.cfg.Self {
		return ForwardResult{}, false
	}
	p := n.byURL[ownerURL]
	if p == nil || !p.isHealthy() {
		return ForwardResult{}, false
	}
	rctx, cancel := n.rpcTimeout(ctx)
	defer cancel()
	status, respBody, err := n.rpc(rctx, p, http.MethodPost, route, "application/json", body, true)
	if err != nil || status >= http.StatusInternalServerError {
		n.met.forwardFallbacks.Add(1)
		n.log.Warn("forward fell back to local compute",
			"route", route, "owner", ownerURL, "status", status, "err", errString(err))
		return ForwardResult{}, false
	}
	n.met.forwards.Add(1)
	return ForwardResult{Status: status, Body: respBody}, true
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// loop is the node's single background goroutine: each tick it gossips
// load with every peer, updates the standalone gauge, sweeps expired
// leases, and — when idle — tries to steal. Steal execution runs in its
// own tracked goroutine so a slow victim never stalls gossip.
func (n *Node) loop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.GossipInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.gossip()
			if reclaimed := n.reg.sweep(); reclaimed > 0 {
				n.met.reclaimedReps.Add(int64(reclaimed))
				n.log.Warn("reclaimed expired lease slots", "reps", reclaimed)
			}
			n.maybeSteal()
		}
	}
}

// gossip polls every peer's /v1/cluster/load in parallel and refreshes
// health, load, and the standalone gauge.
func (n *Node) gossip() {
	var wg sync.WaitGroup
	for _, p := range n.peers {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			rctx, cancel := n.rpcTimeout(context.Background())
			defer cancel()
			status, body, err := n.rpc(rctx, p, http.MethodGet, "/v1/cluster/load", "", nil, false)
			if err == nil && status == http.StatusOK {
				var rep loadReport
				if derr := json.Unmarshal(body, &rep); derr == nil {
					p.observe(true, rep.Pending, rep.Draining)
					n.met.gossip.With(p.url, "ok").Add(1)
					return
				}
			}
			p.observe(false, 0, false)
			n.met.gossip.With(p.url, "fail").Add(1)
		}()
	}
	wg.Wait()

	st := n.ClusterStatus()
	wasStandalone := n.standalone.Load()
	isStandalone := st.Healthy == 0
	n.standalone.Store(isStandalone)
	if wasStandalone != isStandalone {
		if isStandalone {
			n.log.Warn("degraded to standalone mode: no healthy peers")
		} else {
			n.log.Info("rejoined cluster", "healthy", st.Healthy, "peers", st.Peers)
		}
	}
}

// maybeSteal launches one steal round when this node is idle, not
// draining, and some healthy peer advertises claimable work. At most one
// round is in flight at a time.
func (n *Node) maybeSteal() {
	if n.draining.Load() || n.reg.pending() > 0 {
		return
	}
	// Rank victims by advertised load; load() is 0 for unhealthy peers.
	type victim struct {
		p    *peer
		load int
	}
	var victims []victim
	for _, p := range n.peers {
		if l := p.load(); l > 0 {
			victims = append(victims, victim{p, l})
		}
	}
	if len(victims) == 0 {
		return
	}
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].load != victims[j].load {
			return victims[i].load > victims[j].load
		}
		return victims[i].p.url < victims[j].p.url
	})
	if !n.stealing.CompareAndSwap(false, true) {
		return
	}
	best := victims[0].p
	var second *peer
	if len(victims) > 1 {
		second = victims[1].p
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer n.stealing.Store(false)
		n.stealRound(best, second)
	}()
}

// stealRound probes the best victim and, if it does not answer within the
// hedge delay, the second-best too; every granted batch is executed and
// completed. Two grants (both probes answered) are both honored — extra
// help for a loaded cluster, and the leases are independent.
func (n *Node) stealRound(best, second *peer) {
	type outcome struct {
		p     *peer
		grant *stealGrant
	}
	ch := make(chan outcome, 2)
	probe := func(p *peer) {
		g := n.probeSteal(p)
		ch <- outcome{p, g}
	}
	go probe(best)
	outstanding := 1
	var grants []outcome

	hedge := time.NewTimer(n.cfg.HedgeDelay)
	defer hedge.Stop()
	select {
	case o := <-ch:
		outstanding--
		if o.grant != nil {
			grants = append(grants, o)
		}
	case <-hedge.C:
		if second != nil {
			n.met.stealHedges.Add(1)
			go probe(second)
			outstanding++
		}
	}
	for outstanding > 0 {
		o := <-ch
		outstanding--
		if o.grant != nil {
			grants = append(grants, o)
		}
	}
	for _, o := range grants {
		n.execute(o.p, o.grant)
	}
}

// probeSteal asks one victim for a batch; nil means no work (or no
// answer).
func (n *Node) probeSteal(p *peer) *stealGrant {
	n.met.stealProbes.Add(1)
	rctx, cancel := n.rpcTimeout(context.Background())
	defer cancel()
	body, err := json.Marshal(stealRequest{Want: n.cfg.StealBatch})
	if err != nil {
		return nil
	}
	status, respBody, err := n.rpc(rctx, p, http.MethodPost, "/v1/cluster/steal", "application/json", body, false)
	if err != nil || status != http.StatusOK {
		return nil
	}
	var g stealGrant
	if err := json.Unmarshal(respBody, &g); err != nil || g.Key == "" || len(g.Indices) == 0 {
		n.met.stealEmpty.Add(1)
		return nil
	}
	n.met.stealBatches.Add(1)
	n.met.stolenReps.Add(int64(len(g.Indices)))
	return &g
}

// execute runs a stolen batch on the local pool and posts the results
// back. The spec goes through the exact normalization Pool.Sim applies on
// the victim, so replication index i yields the byte-identical Result the
// victim's own worker would have produced.
func (n *Node) execute(p *peer, g *stealGrant) {
	// Options runs the same Replication.Validate that Pool.Sim does.
	opts, err := g.Spec.Options()
	if err != nil {
		n.log.Error("stolen spec rejected", "key", g.Key, "err", err.Error())
		return
	}
	results := make([]sim.Result, len(g.Indices))
	var wg sync.WaitGroup
	for j, idx := range g.Indices {
		j, idx := j, idx
		wg.Add(1)
		n.cfg.Pool.Go(func(r *sim.Runner) {
			defer wg.Done()
			results[j] = r.RunRep(opts, idx)
		})
	}
	wg.Wait()

	payload, err := encodeCompletion(completion{
		From:    n.cfg.Self,
		Key:     g.Key,
		Lease:   g.Lease,
		Indices: g.Indices,
		Results: results,
	})
	if err != nil {
		n.log.Error("completion encode failed", "key", g.Key, "err", err.Error())
		return
	}
	// The lease deadline bounds the whole retry schedule: past it the
	// victim has reclaimed the slots and a completion is dead weight.
	// Duplicate deliveries (a retry after an ambiguous failure) are safe —
	// the cell's idempotency barrier rejects the second copy.
	// TTLMillis is relative, so the two clocks need not agree.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(g.TTLMillis)*time.Millisecond)
	defer cancel()
	err = n.cfg.Retry.Do(ctx, func(ctx context.Context) error {
		n.met.completionPosts.Add(1)
		rctx, rcancel := n.rpcTimeout(ctx)
		defer rcancel()
		status, respBody, rerr := n.rpc(rctx, p, http.MethodPost, "/v1/cluster/complete", "application/x-gob", payload, false)
		if rerr != nil {
			return rerr
		}
		if status != http.StatusOK {
			return errStatus(status, respBody)
		}
		return nil
	})
	if err != nil {
		n.met.completionFails.Add(1)
		n.log.Warn("completion abandoned; victim will reclaim the lease",
			"key", g.Key, "lease", g.Lease, "err", err.Error())
	}
}
