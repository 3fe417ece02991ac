package cluster

import (
	"sync"
	"time"

	"repro/internal/breaker"
)

// peer is this node's view of one other replica: a circuit breaker over
// every RPC to it, plus the freshest load report from gossip. A peer is
// healthy while its last successful poll is recent; health feeds /readyz,
// the standalone gauge, and the owner-routing fallback.
type peer struct {
	url string
	brk *breaker.Breaker

	mu       sync.Mutex
	lastSeen time.Time // last successful load poll (zero = never)
	staleAt  time.Duration
	pending  int  // replications the peer last reported claimable
	draining bool // peer said it is shutting down
}

func newPeer(url string, brkCfg breaker.Config, staleAfter time.Duration) *peer {
	return &peer{
		url:     url,
		brk:     breaker.New(brkCfg),
		staleAt: staleAfter,
	}
}

// observe records one gossip outcome and, on success, the reported load.
func (p *peer) observe(ok bool, pending int, draining bool) {
	p.mu.Lock()
	if ok {
		p.lastSeen = time.Now()
		p.pending = pending
		p.draining = draining
	}
	p.mu.Unlock()
}

// isHealthy reports whether the peer answered gossip recently.
func (p *peer) isHealthy() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.lastSeen.IsZero() && time.Since(p.lastSeen) <= p.staleAt
}

// load returns the peer's last reported claimable replication count, or 0
// when the peer is unhealthy or draining (never steal from a ghost).
func (p *peer) load() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lastSeen.IsZero() || time.Since(p.lastSeen) > p.staleAt || p.draining {
		return 0
	}
	return p.pending
}
