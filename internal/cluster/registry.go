package cluster

import (
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/sim"
)

// The registry is the victim side of work stealing: every simulate
// computation in flight on this node is offered here, and steal requests
// from peers are answered by leasing still-queued replications out of the
// offered cells. The registry owns lease deadlines — sched.Cell keeps no
// timers — so a thief that goes quiet (crashed, partitioned) has its lease
// reclaimed by the sweeper and the work re-enqueued locally. The cell's
// own CAS state machine makes completions idempotent; the registry only
// adds the (key → cell, lease → deadline) bookkeeping.

// offer is one in-flight simulate computation stealable by peers.
type offer struct {
	key  string
	spec experiments.SimSpec // normalized; shipped verbatim to thieves
	cell *sched.Cell
}

// grantedLease tracks one outstanding lease for expiry sweeping. It holds
// the cell directly so reclamation keeps working after the offer itself is
// released (the computation may still be waiting on the leased slots).
type grantedLease struct {
	key    string
	id     uint64
	cell   *sched.Cell
	expiry time.Time
}

type registry struct {
	mu     sync.Mutex
	offers map[string]*offer
	leases []grantedLease
}

func newRegistry() *registry {
	return &registry{offers: make(map[string]*offer)}
}

// add registers an in-flight computation and returns its release func.
// Releasing drops the offer (new steals miss it); leases already granted
// keep working — the cell itself arbitrates late fulfillments.
func (g *registry) add(key string, spec experiments.SimSpec, cell *sched.Cell) func() {
	g.mu.Lock()
	g.offers[key] = &offer{key: key, spec: spec, cell: cell}
	g.mu.Unlock()
	return func() {
		g.mu.Lock()
		delete(g.offers, key)
		g.mu.Unlock()
	}
}

// pending sums the still-claimable replications across offered cells — the
// load figure gossiped to peers and the thief loop's "am I busy" signal.
func (g *registry) pending() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, o := range g.offers {
		n += o.cell.Pending()
	}
	return n
}

// grant leases up to want replications from the offer with the most
// pending work, valid for ttl from now. It returns the zero grant when
// nothing is claimable.
func (g *registry) grant(want int, ttl time.Duration) (key string, spec experiments.SimSpec, id uint64, indices []int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var best *offer
	bestPending := 0
	for _, o := range g.offers {
		if p := o.cell.Pending(); p > bestPending {
			best, bestPending = o, p
		}
	}
	if best == nil {
		return "", experiments.SimSpec{}, 0, nil
	}
	id, indices = best.cell.Lease(want)
	if id == 0 {
		return "", experiments.SimSpec{}, 0, nil
	}
	g.leases = append(g.leases, grantedLease{key: best.key, id: id, cell: best.cell, expiry: time.Now().Add(ttl)})
	return best.key, best.spec, id, indices
}

// fulfill hands one stolen result back to its cell. known reports whether
// the offer still exists; accepted whether the cell took the result (false
// for duplicates and revoked leases — the idempotency barrier).
func (g *registry) fulfill(key string, id uint64, index int, res sim.Result) (accepted, known bool) {
	g.mu.Lock()
	o := g.offers[key]
	g.mu.Unlock()
	if o == nil {
		return false, false
	}
	return o.cell.Fulfill(id, index, res), true
}

// sweep reclaims every lease past its deadline, re-enqueueing the
// unfulfilled slots locally, and returns the number of replications taken
// back. Leases whose offer was already released still reclaim through the
// cell they were granted on.
func (g *registry) sweep() int {
	now := time.Now()
	g.mu.Lock()
	var due []grantedLease
	kept := g.leases[:0]
	for _, l := range g.leases {
		if now.After(l.expiry) {
			due = append(due, l)
		} else {
			kept = append(kept, l)
		}
	}
	g.leases = kept
	g.mu.Unlock()

	n := 0
	for _, l := range due {
		n += l.cell.Reclaim(l.id)
	}
	return n
}
