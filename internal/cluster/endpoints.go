package cluster

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// Cluster RPC surface. Load reports and steal grants are JSON — small,
// debuggable with curl. Completion payloads are gob: stolen sim.Results
// legitimately carry NaN quantiles (unset histogram percentiles), which
// encoding/json refuses to serialize and gob round-trips exactly.

// loadReport is the body of GET /v1/cluster/load.
type loadReport struct {
	Self       string `json:"self"`
	Pending    int    `json:"pending"` // claimable replications
	Draining   bool   `json:"draining"`
	Standalone bool   `json:"standalone"`
}

// stealRequest is the body of POST /v1/cluster/steal.
type stealRequest struct {
	Want int `json:"want"`
}

// stealGrant is the steal response. A zero Key means "no work". TTLMillis
// is relative so the two clocks need not agree; the thief derives its
// completion deadline from its own clock.
type stealGrant struct {
	Key       string              `json:"key"`
	Lease     uint64              `json:"lease"`
	Indices   []int               `json:"indices"`
	TTLMillis int64               `json:"ttl_ms"`
	Spec      experiments.SimSpec `json:"spec"`
}

// completion is the gob body of POST /v1/cluster/complete.
type completion struct {
	From    string
	Key     string
	Lease   uint64
	Indices []int
	Results []sim.Result
}

// completeReply reports the idempotency verdicts of one completion batch.
type completeReply struct {
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
}

func encodeCompletion(c completion) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&c); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeCompletion(r io.Reader) (completion, error) {
	var c completion
	err := gob.NewDecoder(io.LimitReader(r, maxRPCBody)).Decode(&c)
	return c, err
}

// Endpoints returns the cluster's HTTP handlers keyed by mux pattern, for
// the serving layer to mount behind its route barrier (panic containment,
// request accounting, and logging come for free).
func (n *Node) Endpoints() map[string]http.HandlerFunc {
	return map[string]http.HandlerFunc{
		"GET /v1/cluster/load":      n.handleLoad,
		"POST /v1/cluster/steal":    n.handleSteal,
		"POST /v1/cluster/complete": n.handleComplete,
	}
}

// dropPartitioned answers for a handler whose inbound link is severed by
// an injected partition: 503, as close as HTTP gets to a lost datagram.
func (n *Node) dropPartitioned(w http.ResponseWriter, r *http.Request) bool {
	if !n.inboundPartitioned(r) {
		return false
	}
	http.Error(w, "cluster: partitioned", http.StatusServiceUnavailable)
	return true
}

// handleLoad serves GET /v1/cluster/load: this node's stealable work.
func (n *Node) handleLoad(w http.ResponseWriter, r *http.Request) {
	if n.dropPartitioned(w, r) {
		return
	}
	writeJSON(w, loadReport{
		Self:       n.cfg.Self,
		Pending:    n.reg.pending(),
		Draining:   n.draining.Load(),
		Standalone: n.standalone.Load(),
	})
}

// handleSteal serves POST /v1/cluster/steal: lease a batch of queued
// replications to the calling thief. A draining node grants nothing — its
// own workers must finish the queue before shutdown.
func (n *Node) handleSteal(w http.ResponseWriter, r *http.Request) {
	if n.dropPartitioned(w, r) {
		return
	}
	var req stealRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<12)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("cluster: bad steal request: %v", err), http.StatusBadRequest)
		return
	}
	if n.draining.Load() {
		writeJSON(w, stealGrant{})
		return
	}
	want := req.Want
	if want <= 0 || want > n.cfg.StealBatch {
		want = n.cfg.StealBatch
	}
	key, spec, id, indices := n.reg.grant(want, n.cfg.LeaseTTL)
	if id == 0 {
		writeJSON(w, stealGrant{})
		return
	}
	n.met.grantedBatches.Add(1)
	n.met.grantedReps.Add(int64(len(indices)))
	n.log.Info("granted steal lease",
		"thief", r.Header.Get(fromHeader), "key", key, "lease", id, "reps", len(indices))
	writeJSON(w, stealGrant{
		Key:       key,
		Lease:     id,
		Indices:   indices,
		TTLMillis: n.cfg.LeaseTTL.Milliseconds(),
		Spec:      spec,
	})
}

// handleComplete serves POST /v1/cluster/complete: accept stolen results.
// Unknown offers and rejected slots still answer 200 — from the thief's
// side the batch is settled either way, and retrying a rejection would
// only re-reject (idempotency, not an error).
func (n *Node) handleComplete(w http.ResponseWriter, r *http.Request) {
	if n.dropPartitioned(w, r) {
		return
	}
	c, err := decodeCompletion(r.Body)
	if err != nil {
		http.Error(w, fmt.Sprintf("cluster: bad completion: %v", err), http.StatusBadRequest)
		return
	}
	if len(c.Indices) != len(c.Results) {
		http.Error(w, "cluster: indices/results length mismatch", http.StatusBadRequest)
		return
	}
	var rep completeReply
	for i, idx := range c.Indices {
		if accepted, _ := n.reg.fulfill(c.Key, c.Lease, idx, c.Results[i]); accepted {
			rep.Accepted++
		} else {
			rep.Rejected++
		}
	}
	n.met.acceptedReps.Add(int64(rep.Accepted))
	n.met.rejectedReps.Add(int64(rep.Rejected))
	if rep.Rejected > 0 {
		n.log.Warn("rejected stale or duplicate completions",
			"thief", c.From, "key", c.Key, "lease", c.Lease, "rejected", rep.Rejected)
	}
	writeJSON(w, rep)
}

func writeJSON(w http.ResponseWriter, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}
