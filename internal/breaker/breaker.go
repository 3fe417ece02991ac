// Package breaker implements the sliding-window circuit breaker shared by
// the serving layer: the /v1/simulate route guards the local scheduler pool
// with one (see internal/serve), and the cluster layer keeps one per peer
// so a dead or partitioned replica stops costing RPC timeouts (see
// internal/cluster).
//
// Failures feed a sliding window of recent outcomes; when the window's
// failure rate crosses a threshold the breaker opens and Allow rejects
// without touching the protected resource. After a cooldown the breaker
// admits a single probe (half-open); one success closes it, one failure
// re-opens it.
//
// Admissions carry a generation token: every state transition bumps the
// generation, and Record drops outcomes from an older generation. Without
// this, a slow request admitted while closed could finish during a
// half-open probe and be misread as the probe's verdict.
package breaker

import (
	"sync"
	"time"
)

// State enumerates the classic three breaker states.
type State int

const (
	Closed State = iota
	HalfOpen
	Open
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case HalfOpen:
		return "half_open"
	default:
		return "open"
	}
}

// Config tunes one Breaker; zero fields take the defaults below.
type Config struct {
	// Window is the number of most-recent outcomes considered (default 20).
	Window int
	// Threshold is the failure rate in [0, 1] that opens the breaker
	// (default 0.5).
	Threshold float64
	// MinSamples is the minimum number of outcomes in the window before the
	// breaker may trip, so one early failure cannot open it (default 10,
	// capped at Window).
	MinSamples int
	// Cooldown is how long the breaker stays open before admitting a
	// half-open probe (default 5s).
	Cooldown time.Duration
	// Now, when non-nil, replaces time.Now so tests drive cooldowns
	// without sleeping.
	Now func() time.Time
	// OnTransition, when non-nil, observes every state change (metrics
	// hook). Called without the breaker lock held.
	OnTransition func(from, to State)
}

// WithDefaults returns c with every zero or negative setting replaced by
// its default.
func (c Config) WithDefaults() Config {
	if c.Window <= 0 {
		c.Window = 20
	}
	if c.Threshold <= 0 {
		c.Threshold = 0.5
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 10
	}
	if c.MinSamples > c.Window {
		c.MinSamples = c.Window
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is a sliding-window circuit breaker. All methods are safe for
// concurrent use.
type Breaker struct {
	mu  sync.Mutex
	cfg Config

	state    State
	gen      uint64
	outcomes []bool // ring buffer of failure flags
	idx      int    // next write position
	filled   int    // occupied slots, ≤ len(outcomes)
	failures int    // failure flags currently in the ring
	openedAt time.Time
	probing  bool // a half-open probe is in flight
}

// New builds a Breaker from cfg.
func New(cfg Config) *Breaker {
	cfg = cfg.WithDefaults()
	return &Breaker{
		cfg:      cfg,
		outcomes: make([]bool, cfg.Window),
	}
}

// Allow reports whether a request may proceed, returning the generation
// token to hand back to Record. When the request may not proceed,
// retryAfter is how long until the next half-open probe would be admitted
// (rounded up to seconds for a Retry-After header by the caller).
func (b *Breaker) Allow() (ok bool, gen uint64, retryAfter time.Duration) {
	b.mu.Lock()
	var fire func()
	switch b.state {
	case Closed:
		ok = true
	case Open:
		if wait := b.openedAt.Add(b.cfg.Cooldown).Sub(b.cfg.Now()); wait > 0 {
			retryAfter = wait
		} else {
			fire = b.transition(HalfOpen)
			b.probing = true
			ok = true
		}
	case HalfOpen:
		// One probe at a time; everyone else waits out the probe.
		if !b.probing {
			b.probing = true
			ok = true
		} else {
			retryAfter = b.cfg.Cooldown
		}
	}
	gen = b.gen
	b.mu.Unlock()
	if fire != nil {
		fire()
	}
	return ok, gen, retryAfter
}

// Record feeds one admitted request's outcome back into the breaker. gen
// must be the token Allow returned for that request; outcomes from a
// generation older than the current state are dropped as stale.
func (b *Breaker) Record(gen uint64, failure bool) {
	b.mu.Lock()
	if gen != b.gen {
		b.mu.Unlock()
		return
	}
	var fire func()
	switch b.state {
	case HalfOpen:
		b.probing = false
		if failure {
			fire = b.transition(Open)
			b.openedAt = b.cfg.Now()
		} else {
			fire = b.transition(Closed)
			b.reset()
		}
	case Closed:
		if old := b.outcomes[b.idx]; b.filled == len(b.outcomes) && old {
			b.failures--
		}
		b.outcomes[b.idx] = failure
		b.idx = (b.idx + 1) % len(b.outcomes)
		if b.filled < len(b.outcomes) {
			b.filled++
		}
		if failure {
			b.failures++
		}
		if b.filled >= b.cfg.MinSamples &&
			float64(b.failures)/float64(b.filled) >= b.cfg.Threshold {
			fire = b.transition(Open)
			b.openedAt = b.cfg.Now()
			b.reset()
		}
	case Open:
		// Unreachable for a matching generation (every entry into open bumps
		// the generation), kept for symmetry.
	}
	b.mu.Unlock()
	if fire != nil {
		fire()
	}
}

// reset clears the sliding window (on transitions the past must not haunt
// the new state).
func (b *Breaker) reset() {
	for i := range b.outcomes {
		b.outcomes[i] = false
	}
	b.idx, b.filled, b.failures = 0, 0, 0
}

// transition flips the state, bumps the generation, and returns the
// deferred notification (run it after unlocking).
func (b *Breaker) transition(to State) func() {
	from := b.state
	b.state = to
	b.gen++
	if b.cfg.OnTransition == nil || from == to {
		return nil
	}
	return func() { b.cfg.OnTransition(from, to) }
}

// Current returns the state for metrics gauges.
func (b *Breaker) Current() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
