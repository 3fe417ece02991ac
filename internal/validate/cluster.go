package validate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/meanfield"
	"repro/internal/numeric"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The cluster family closes the loop between the serving substrate and the
// paper's mathematics: it boots a real 3-replica wsserved cluster on
// loopback listeners, drives one simulate request through it so that idle
// replicas steal queued replications over HTTP, and then checks the
// simulation the cluster computed against the simple-WS mean field. At the
// fixed point, steal attempts fire exactly when a completion leaves a
// processor empty — completions at 1-task processors — so the per-processor
// attempt rate is π₁ − π₂ = λ − π₂ (≈ 0.254 at λ = 0.9). Because stolen
// replications are byte-identical to local runs, the measured rate is a
// property of the model, not of where the replication executed; what the
// cluster adds is the proof that the distributed path (gossip, lease,
// completion) produced it.
const (
	// clusterLambda is the family's arrival rate; λ − π₂ ≈ 0.2541 here.
	clusterLambda = 0.9
	// clusterN is the simulated system size. Large enough that the O(1/n)
	// finite-size bias of the attempt rate sits well inside the margin.
	clusterN = 64
	// clusterStealMargin is the absolute TOST margin on the steal attempt
	// rate. It absorbs the finite-n bias at n=64 (≈0.01), the warmup ramp
	// (counters span the whole run and the system starts empty), and
	// replication noise at the family's rep count.
	clusterStealMargin = 0.04
	// clusterMinReps floors the replication count: the family needs enough
	// queued replications for thieves to steal a batch while the victim's
	// single worker is busy, and enough degrees of freedom for the TOST.
	clusterMinReps = 8
)

func clusterFamily() Family {
	return Family{
		Name:    "cluster",
		Lambda:  clusterLambda,
		enqueue: enqueueCluster,
	}
}

// clusterOutcome carries the run's results from the background goroutine
// to the collector.
type clusterOutcome struct {
	skip       string // non-empty: the whole family skips with this reason
	fail       string // non-empty: boot-time failure
	report     experiments.SimReport
	stolenReps float64 // wsserved_cluster_steal_reps_total{role="victim"}
}

// enqueueCluster launches the cluster run in its own goroutine — it owns
// its replicas' pools, so it drains alongside the shared grid — and
// returns the collector that renders the checks.
func enqueueCluster(cfg Config, _ *sched.Pool) func(vr *VariantReport) {
	ch := make(chan clusterOutcome, 1)
	go func() { ch <- runCluster(cfg) }()
	return func(vr *VariantReport) {
		out := <-ch
		if out.skip != "" {
			vr.add(Check{Name: "cluster-steal-rate", Status: Skip, Detail: out.skip})
			return
		}
		if out.fail != "" {
			vr.add(Check{Name: "cluster-boot", Status: Fail, Detail: out.fail})
			return
		}
		vr.add(Check{Name: "cluster-boot", Status: Pass,
			Detail: "3 loopback replicas served one simulate request"})

		// The request must actually have exercised the distributed path:
		// the victim's metrics expose how many replications peers stole.
		stole := Check{Name: "cluster-steals-happened",
			Detail: fmt.Sprintf("victim leased %g replications to peers over HTTP", out.stolenReps),
			Got:    out.stolenReps, Want: 1, Status: Pass}
		if out.stolenReps < 1 {
			stole.Status = Fail
			stole.Detail = "no replication was stolen; the steal rate below measured only local work"
		}
		vr.add(stole)

		// TOST equivalence of the measured per-processor steal attempt rate
		// against the closed-form prediction λ − π₂.
		want := clusterLambda - meanfield.SolveSimpleWS(clusterLambda).Pi2
		s := out.report.Metrics.StealAttemptRate
		if s.N < 2 || !numeric.Finite(s.Mean) || s.Mean <= 0 {
			vr.add(Check{Name: "cluster-steal-rate", Status: Fail,
				Detail: fmt.Sprintf("measured attempt rate unusable: mean=%v over %d reps", s.Mean, s.N)})
			return
		}
		r := stats.TOST(s, want, clusterStealMargin)
		c := Check{Name: "cluster-steal-rate",
			Detail: fmt.Sprintf("cluster-measured steal attempts/proc/time vs λ−π₂=%.4g at λ=%g, n=%d",
				want, clusterLambda, clusterN),
			TOST: &r, Status: Fail}
		if r.Equivalent {
			c.Status = Pass
		}
		vr.add(c)
	}
}

// replica is one in-process wsserved instance of the family's cluster.
type replica struct {
	url  string
	pool *sched.Pool
	node *cluster.Node
	srv  *serve.Server
	http *http.Server
	ln   net.Listener
}

// runCluster boots three replicas, sends the family's simulate spec to the
// deliberately under-provisioned victim, and harvests the report plus the
// victim's steal metrics. Any inability to open loopback listeners skips
// the family — sandboxes without network namespaces are real.
func runCluster(cfg Config) (out clusterOutcome) {
	var lns []net.Listener
	var urls []string
	for i := 0; i < 3; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			out.skip = fmt.Sprintf("cluster unavailable: %v", err)
			return out
		}
		lns = append(lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}

	reps := make([]*replica, 3)
	for i := range reps {
		workers := 2
		if i == 0 {
			workers = 1 // the victim: one worker, so replications queue
		}
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		pool := sched.New(workers)
		node, err := cluster.New(cluster.Config{
			Self:           urls[i],
			Peers:          peers,
			Pool:           pool,
			GossipInterval: 10 * time.Millisecond,
			StealBatch:     4,
			LeaseTTL:       30 * time.Second,
		})
		if err != nil {
			pool.Close()
			out.fail = err.Error()
			return out
		}
		srv := serve.New(serve.Config{Pool: pool, Cluster: node})
		hs := &http.Server{Handler: srv.Handler()}
		reps[i] = &replica{url: urls[i], pool: pool, node: node, srv: srv, http: hs, ln: lns[i]}
		go hs.Serve(lns[i])
		node.Start()
	}
	defer func() {
		for _, r := range reps {
			r.node.Close()
			r.http.Close()
			r.srv.Close()
			r.pool.Close()
		}
	}()

	// Wedge the victim's single worker for the duration of the request. At
	// smoke scales a replication takes single-digit milliseconds, so an
	// unimpeded victim would drain its own queue before the first gossip
	// tick lets a peer discover it; with the worker occupied, every
	// replication must travel the distributed path — gossip, steal lease,
	// remote execution, completion POST — which is exactly what this family
	// exists to exercise. Liveness does not depend on the wedge ever
	// lifting: the leases alone complete the cell.
	wedge := make(chan struct{})
	defer close(wedge)
	reps[0].pool.Go(func(*sim.Runner) { <-wedge })

	nreps := cfg.Reps
	if nreps < clusterMinReps {
		nreps = clusterMinReps
	}
	spec := map[string]any{
		"n": clusterN, "lambda": clusterLambda, "policy": "steal", "t": 2,
		"horizon": cfg.Horizon, "warmup": cfg.Warmup, "reps": nreps, "seed": cfg.Seed,
	}
	body, err := json.Marshal(spec)
	if err != nil {
		out.fail = err.Error()
		return out
	}
	client := &http.Client{Timeout: 2 * time.Minute}
	resp, err := client.Post(reps[0].url+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		out.fail = fmt.Sprintf("simulate request: %v", err)
		return out
	}
	respBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		out.fail = fmt.Sprintf("simulate answered %d: %s", resp.StatusCode, respBody)
		return out
	}
	if err := json.Unmarshal(respBody, &out.report); err != nil {
		out.fail = fmt.Sprintf("decoding report: %v", err)
		return out
	}
	out.stolenReps = scrapeCounter(client, reps[0].url,
		`wsserved_cluster_steal_reps_total{role="victim"}`)
	return out
}

// scrapeCounter fetches a replica's /metrics and returns the value of the
// exactly-named series (0 when absent or unreachable).
func scrapeCounter(client *http.Client, baseURL, series string) float64 {
	resp, err := client.Get(baseURL + "/metrics")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, series); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}
