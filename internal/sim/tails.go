package sim

import "repro/internal/eventq"

// Tail measurement: the mean-field analysis is written entirely in terms of
// the tail densities s_i (fraction of processors with at least i tasks), so
// the simulator can measure them directly. When Options.TailDepth > 0 the
// engine samples the empirical tail vector at fixed intervals after warmup
// and reports the average in Result.Tails — directly comparable to the π_i
// of a fixed point.

// tailSampler accumulates periodic snapshots of the empirical tails.
type tailSampler struct {
	depth    int
	sums     []float64 // Σ over samples of (fraction with ≥ i tasks)
	counts   []int     // per-sample scratch, reused between snapshots
	nSamples int64
}

// newTailSampler returns a sampler for tails s_0..s_{depth-1}.
func newTailSampler(depth int) *tailSampler {
	return &tailSampler{depth: depth, sums: make([]float64, depth), counts: make([]int, depth+1)}
}

// sample records one snapshot of the processor loads, read from the dense
// queue-length mirror.
func (ts *tailSampler) sample(qlen []int32) {
	n := len(qlen)
	// Count processors with load exactly l, then cumulate from the top.
	counts := ts.counts
	for i := range counts {
		counts[i] = 0
	}
	for _, ql := range qlen {
		l := int(ql)
		if l >= ts.depth {
			l = ts.depth
		}
		counts[l]++
	}
	ge := 0
	for l := ts.depth; l >= 0; l-- {
		ge += counts[l]
		if l < ts.depth {
			ts.sums[l] += float64(ge) / float64(n)
		}
	}
}

// tails returns the averaged tail vector (nil if no samples were taken).
func (ts *tailSampler) tails() []float64 {
	if ts.nSamples == 0 {
		return nil
	}
	out := make([]float64, ts.depth)
	for i, s := range ts.sums {
		out[i] = s / float64(ts.nSamples)
	}
	return out
}

// scheduleFirstSample arms the post-warmup sampling chain shared by the
// tail sampler (Options.TailDepth) and the queue-length histogram of the
// metrics layer (Options.QueueHistDepth). Both snapshot on the same
// evSample tick, every (Horizon−Warmup)/1000 time units (1 when that is
// not positive).
func (c *procCore) scheduleFirstSample() {
	if c.o.TailDepth <= 0 && c.o.QueueHistDepth <= 0 {
		return
	}
	every := (c.o.Horizon - c.o.Warmup) / 1000
	if every <= 0 {
		every = 1
	}
	c.sampleEvery = every
	if c.o.TailDepth > 0 {
		c.tails = newTailSampler(c.o.TailDepth)
	}
	if c.o.QueueHistDepth > 0 {
		c.qhist = make([]int64, c.o.QueueHistDepth)
	}
	c.q.Push(eventq.Event{Time: c.o.Warmup + every, Kind: evSample})
}

// handleSample records a snapshot and re-arms the chain.
func (c *procCore) handleSample() {
	if c.tails != nil {
		c.tails.sample(c.ps.qlen)
		c.tails.nSamples++
	}
	if c.qhist != nil {
		top := len(c.qhist) - 1
		for _, ql := range c.ps.qlen {
			l := int(ql)
			if l > top {
				l = top
			}
			c.qhist[l]++
		}
		c.qhistSamples++
	}
	next := c.now + c.sampleEvery
	if next <= c.o.Horizon {
		c.q.Push(eventq.Event{Time: next, Kind: evSample})
	}
}

// AverageTails element-wise averages the tail vectors of a replication set;
// nil when no replication sampled tails.
func AverageTails(results []Result) []float64 {
	var acc []float64
	n := 0
	for _, r := range results {
		if r.Tails == nil {
			continue
		}
		if acc == nil {
			acc = make([]float64, len(r.Tails))
		}
		for i, v := range r.Tails {
			acc[i] += v
		}
		n++
	}
	if n == 0 {
		return nil
	}
	for i := range acc {
		acc[i] /= float64(n)
	}
	return acc
}
