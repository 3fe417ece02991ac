package cluster

import "repro/internal/metrics"

// meters are the cluster layer's metric families and resolved series, held
// by one metrics.Registry and rendered into the serving daemon's /metrics
// exposition under the wsserved_cluster_* namespace. They move once per RPC
// or steal batch, never per simulated event.
type meters struct {
	reg *metrics.Registry

	peers, peersHealthy, standalone *metrics.Value                 // set at scrape time
	peerBreaker                     *metrics.Family[metrics.Value] // {peer}, set at scrape time
	gossip                          *metrics.Family[metrics.Value] // {peer, outcome}

	stealProbes, stealHedges, stealEmpty *metrics.Value
	stealBatches, stolenReps             *metrics.Value // thief side
	grantedBatches, grantedReps          *metrics.Value // victim side
	completionPosts, completionFails     *metrics.Value
	acceptedReps, rejectedReps           *metrics.Value
	reclaimedReps                        *metrics.Value

	forwards, forwardFallbacks, forwardedIn *metrics.Value

	rpcDropped *metrics.Value
}

func newMeters() meters {
	r := metrics.NewRegistry()
	m := meters{
		reg:          r,
		peers:        r.Gauge("wsserved_cluster_peers", "Configured peer replicas.").With(),
		peersHealthy: r.Gauge("wsserved_cluster_peers_healthy", "Peers passing gossip health checks.").With(),
		standalone: r.Gauge("wsserved_cluster_standalone",
			"1 while degraded to fully-local standalone mode (no healthy peers).").With(),
		peerBreaker: r.Gauge("wsserved_cluster_peer_breaker_state",
			"Per-peer circuit breaker state: 0 closed, 1 half-open, 2 open.", "peer"),
		gossip: r.Counter("wsserved_cluster_gossip_total", "Load-gossip polls by peer and outcome.",
			"peer", "outcome"),
		stealProbes: r.Counter("wsserved_cluster_steal_probes_total", "Steal RPCs sent to peers.").With(),
		stealHedges: r.Counter("wsserved_cluster_steal_hedges_total", "Hedged second steal probes fired.").With(),
		stealEmpty:  r.Counter("wsserved_cluster_steal_empty_total", "Steal probes answered with no work.").With(),
	}
	batches := r.Counter("wsserved_cluster_steal_batches_total", "Stolen batches by role.", "role")
	m.stealBatches, m.grantedBatches = batches.With("thief"), batches.With("victim")
	reps := r.Counter("wsserved_cluster_steal_reps_total", "Stolen replications by role.", "role")
	m.stolenReps, m.grantedReps = reps.With("thief"), reps.With("victim")
	m.completionPosts = r.Counter("wsserved_cluster_completion_posts_total",
		"Completion RPC attempts, retries included.").With()
	m.completionFails = r.Counter("wsserved_cluster_completion_failures_total",
		"Stolen batches whose completion was abandoned after retries.").With()
	verdicts := r.Counter("wsserved_cluster_completions_total",
		"Stolen replication results offered back, by verdict.", "verdict")
	m.acceptedReps, m.rejectedReps = verdicts.With("accepted"), verdicts.With("rejected")
	m.reclaimedReps = r.Counter("wsserved_cluster_lease_reclaimed_reps_total",
		"Replications reclaimed from expired leases.").With()
	m.forwards = r.Counter("wsserved_cluster_forwards_total",
		"Cached requests proxied to their consistent-hash owner.").With()
	m.forwardFallbacks = r.Counter("wsserved_cluster_forward_fallbacks_total",
		"Forward failures degraded to local compute.").With()
	m.forwardedIn = r.Counter("wsserved_cluster_forwarded_in_total",
		"Forwarded requests served on behalf of peers.").With()
	m.rpcDropped = r.Counter("wsserved_cluster_rpc_partition_drops_total",
		"Cluster RPCs dropped by injected partitions.").With()
	return m
}
