package cluster

import (
	"context"
	"math/rand"
	"time"
)

// The retry delay cap and jitter fraction of every Backoff.
const (
	backoffCap    = 2 * time.Second
	backoffJitter = 0.2
)

// Backoff is a bounded, jittered exponential retry policy for cluster
// RPCs. The k-th failed attempt is followed by a delay of
//
//	min(backoffCap, Base·2^k) · (1 + backoffJitter·(2U − 1)),  U ~ Uniform[0, 1)
//
// so retries from many thieves hammering one recovering peer spread out
// instead of arriving in lockstep. Do is deadline-aware: when the context's
// deadline would expire before the next delay finishes, it gives up
// immediately — a retry whose response nobody will wait for is pure load.
//
// Sleep and Rand are injectable so tests can pin the exact schedule with a
// fake clock; the zero value uses real sleeping and math/rand.
type Backoff struct {
	// Base is the pre-jitter delay after the first failure (default 50ms).
	Base time.Duration
	// Attempts is the total number of tries, the first included (default 3).
	Attempts int
	// Sleep replaces the real delay when non-nil (fake-clock tests). The
	// default sleep also aborts early when the context is cancelled.
	Sleep func(d time.Duration)
	// Rand replaces the jitter source when non-nil; must return U in [0, 1).
	Rand func() float64
}

// WithDefaults returns b with every zero or negative setting replaced by
// its default.
func (b Backoff) WithDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = 50 * time.Millisecond
	}
	if b.Attempts <= 0 {
		b.Attempts = 3
	}
	if b.Rand == nil {
		b.Rand = rand.Float64
	}
	return b
}

// delay computes the post-jitter delay after the k-th failure (k from 0)
// using the jitter draw u.
func (b Backoff) delay(k int, u float64) time.Duration {
	d := backoffCap
	// Base << k overflows for large k; the cap comparison below is only
	// valid while the shift hasn't wrapped, so guard the exponent.
	if k < 32 {
		if shifted := b.Base << k; shifted > 0 && shifted < backoffCap {
			d = shifted
		}
	}
	return time.Duration(float64(d) * (1 + backoffJitter*(2*u-1)))
}

// Do runs fn until it succeeds, Attempts are exhausted, or the context
// cannot cover the next delay. It returns nil on success, the context's
// error if it was already dead, and otherwise fn's last error.
func (b Backoff) Do(ctx context.Context, fn func(ctx context.Context) error) error {
	b = b.WithDefaults()
	var err error
	for k := 0; k < b.Attempts; k++ {
		if cerr := ctx.Err(); cerr != nil {
			if err == nil {
				err = cerr
			}
			return err
		}
		if err = fn(ctx); err == nil {
			return nil
		}
		if k == b.Attempts-1 {
			break
		}
		d := b.delay(k, b.Rand())
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= d {
			break // the deadline dies before the retry would fire
		}
		b.sleep(ctx, d)
	}
	return err
}

// sleep waits d, via the injected Sleep when set, else a cancellable timer.
func (b Backoff) sleep(ctx context.Context, d time.Duration) {
	if b.Sleep != nil {
		b.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
