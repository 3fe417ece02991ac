package sim

// The processor core shared by the DES and hybrid engines. Both engines
// simulate a set of processors event by event with the same mechanics —
// FIFO queues, tail steals judged by the victim-load threshold, busy-time
// and sojourn accounting, periodic tail and queue-length snapshots — and
// differ only in who the other processors are: the DES engine simulates
// all N of them, the hybrid engine a tracked sample of Tracked coupled to
// the fluid bulk. procCore owns everything the two have in common and is
// embedded by value in each engine, whose event loops call its methods
// directly (no interface or callback on the per-event path). Victim choice,
// the event loop itself, and anything only one engine does stay in the
// engine.

import (
	"math"
	"time"

	"repro/internal/dist"
	"repro/internal/eventq"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Event kinds used by the engines.
const (
	evArrival   eventq.Kind = iota // external arrival chain (held in the arrival lane)
	evSpawn                        // internal spawn stream (thinned)
	evDeparture                    // head-of-queue service completion
	evRetry                        // repeated steal attempt by an idle thief
	evTransfer                     // stolen task arrives at the thief
	evRebalance                    // pairwise rebalancing event
	evSample                       // periodic empirical-tail snapshot
	evSeries                       // periodic mean-load time-series snapshot
	evFluid                        // hybrid engine: advance the fluid bulk one step
	evProbe                        // hybrid engine: bulk thief probes a tracked victim
)

const (
	// Fresh task deques are carved out of one contiguous arena with
	// dequeArenaCap slots each (three-index slices, so an overfull deque
	// copies out on append instead of clobbering its neighbor). Queue
	// lengths under the stable loads the simulator runs stay far below 64,
	// so per-processor queues never regrow — which is what lets the
	// replication loop hold its allocs-per-run gate even though each
	// replication sees a different random stream. Above
	// dequeArenaMaxProcs processors the arena footprint (N·64·8 B) stops
	// being worth it and deques start empty.
	dequeArenaCap      = 64
	dequeArenaMaxProcs = 4096
)

// procSoA holds the per-processor state as a struct of arrays: one slice
// per field, indexed by processor, instead of one slice of structs. The
// layout is chosen for the victim sampler, the hottest random-access read
// in the engine: picking the most loaded of D uniform draws touches D
// random processors, and with the lengths packed densely in qlen (16 per
// cache line) those touches are near-free, where the equivalent
// array-of-structs read dragged a ~100-byte struct line per draw. The
// remaining slices keep each event's accesses on a handful of distinct
// lines instead of one wide struct line per processor.
//
// qlen mirrors q[i].Len(); every queue mutation goes through pushBack,
// popFront, or popBack to keep the mirror exact.
type procSoA struct {
	q          []taskDeque
	qlen       []int32   // dense mirror of q[i].Len(), read by victim sampling
	rate       []float64 // service-rate multiplier
	class      []int32
	awaiting   []bool    // a stolen task is in flight to this processor
	inFlight   []float64 // arrival time of the in-flight task
	emptyEpoch []uint32  // bumped whenever the queue gains a task

	// Per-processor observability counters (metrics layer). busySince is
	// only meaningful while the queue is non-empty.
	stealAttempts  []int64
	stealSuccesses []int64
	busySince      []float64
	busyTime       []float64
}

// resize prepares the state for n processors, recycling every slice (and
// each deque's buffer) from the previous run when large enough. All fields
// reset to zero values except rate, which defaults to 1.
func (ps *procSoA) resize(n int) {
	if cap(ps.qlen) >= n {
		ps.q = ps.q[:n]
		ps.qlen = ps.qlen[:n]
		ps.rate = ps.rate[:n]
		ps.class = ps.class[:n]
		ps.awaiting = ps.awaiting[:n]
		ps.inFlight = ps.inFlight[:n]
		ps.emptyEpoch = ps.emptyEpoch[:n]
		ps.stealAttempts = ps.stealAttempts[:n]
		ps.stealSuccesses = ps.stealSuccesses[:n]
		ps.busySince = ps.busySince[:n]
		ps.busyTime = ps.busyTime[:n]
		for i := range ps.q {
			ps.q[i].Reset()
		}
	} else {
		ps.q = make([]taskDeque, n)
		if n <= dequeArenaMaxProcs {
			arena := make([]float64, n*dequeArenaCap)
			for i := range ps.q {
				ps.q[i].buf = arena[i*dequeArenaCap : i*dequeArenaCap : (i+1)*dequeArenaCap]
			}
		}
		ps.qlen = make([]int32, n)
		ps.rate = make([]float64, n)
		ps.class = make([]int32, n)
		ps.awaiting = make([]bool, n)
		ps.inFlight = make([]float64, n)
		ps.emptyEpoch = make([]uint32, n)
		ps.stealAttempts = make([]int64, n)
		ps.stealSuccesses = make([]int64, n)
		ps.busySince = make([]float64, n)
		ps.busyTime = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		ps.qlen[i] = 0
		ps.rate[i] = 1
		ps.class[i] = 0
		ps.awaiting[i] = false
		ps.inFlight[i] = 0
		ps.emptyEpoch[i] = 0
		ps.stealAttempts[i] = 0
		ps.stealSuccesses[i] = 0
		ps.busySince[i] = 0
		ps.busyTime[i] = 0
	}
}

// pushBack appends a task to p's queue, keeping the qlen mirror exact.
func (ps *procSoA) pushBack(p int32, arrival float64) {
	ps.q[p].PushBack(arrival)
	ps.qlen[p]++
}

// popFront removes and returns p's task in service.
func (ps *procSoA) popFront(p int32) float64 {
	ps.qlen[p]--
	return ps.q[p].PopFront()
}

// popBack removes and returns p's most recently queued task.
func (ps *procSoA) popBack(p int32) float64 {
	ps.qlen[p]--
	return ps.q[p].PopBack()
}

// arrivalLane keeps the external arrival chains beside the calendar
// instead of in it. Arrivals are half of all events, and a chain only ever
// has one pending event, so holding it outside the calendar saves every
// arrival a calendar Push and PopMin. A chain's next event takes its
// tie-break number through Calendar.Reserve at the moment the engine would
// have pushed it, so the run loop's merge — the lane head when it is Before
// the calendar's Peek, else PopMin — pops every event in exactly the
// (Time, seq) order of one calendar holding them all.
//
// A single chain (the merged Poisson stream, a custom process, the
// hybrid's sample stream) lives in head alone. Per-class chains keep one
// slot each, and head holds a copy of the earliest. A pending event at
// Time +Inf stands for none.
type arrivalLane struct {
	head  eventq.Event
	slots []eventq.Event // per-class chains' pending events; empty for a single chain
}

// open empties the lane for a single chain (classes = 0) or one chain per
// class, none pending, recycling the slots of any previous run.
func (l *arrivalLane) open(classes int) {
	l.end()
	l.slots = l.slots[:0]
	for i := 0; i < classes; i++ {
		l.slots = append(l.slots, l.head)
	}
}

// end leaves the single chain with no pending event. It takes no
// tie-break number: a chain that pushes nothing consumes none.
func (l *arrivalLane) end() { l.head = eventq.Event{Time: math.Inf(1)} }

// refresh recomputes the head from the per-class slots.
func (l *arrivalLane) refresh() {
	l.head = l.slots[0]
	for j := range l.slots {
		if l.slots[j].Before(&l.head) {
			l.head = l.slots[j]
		}
	}
}

// empty reports whether no chain has a pending event.
func (l *arrivalLane) empty() bool { return math.IsInf(l.head.Time, 1) }

// procCore is the per-processor simulation state and mechanics shared by
// the DES and hybrid engines, over n simulated processors (N for DES,
// Tracked for the hybrid).
type procCore struct {
	o   Options
	r   *rng.Source
	q   *eventq.Calendar // the future event list, recycled across runs
	ps  procSoA
	n   int // simulated processors
	now float64

	// lane holds the external arrival chains, which never enter q; each
	// engine's init opens it for its chains.
	lane arrivalLane

	// Hot-path accelerators, fixed per run. svcExp > 0 marks an
	// exponential service distribution whose samples are drawn directly
	// (bypassing the interface call — dist.Exponential.Sample is exactly
	// r.Exp(rate), so the stream is unchanged). pick carries the
	// precomputed Lemire threshold for uniform draws over the simulated
	// processors; its accept/consume behavior is identical to Intn, so
	// every random stream stays byte-identical.
	svcExp float64
	pick   rng.Bounded

	// Load accounting: total tasks in queues plus in flight.
	totalTasks   int64
	loadIntegral float64 // ∫ totalTasks dt over [warmup, now]
	loadSince    float64 // last accounting time ≥ warmup

	res         Result
	sojournSum  float64
	sojournH    *stats.Histogram
	tails       *tailSampler
	seriesTimes []float64
	seriesLoads []float64

	// Observability layer: counters are incremented in place on the hot
	// path (no allocation); the queue-length histogram shares the evSample
	// tick with the tail sampler.
	met          metrics.Metrics
	sampleEvery  float64
	qhist        []int64
	qhistSamples int64

	// stealBuf holds the tasks of one steal while they move. It grows to
	// the largest steal ever seen and is retained across runs, so the
	// steady-state event loop settles at zero allocations per event.
	stealBuf []float64
}

// reset prepares the core for a fresh run of o over n processors on the
// given stream, recycling the processor state, task deques, event list,
// and steal buffer of any previous run. A recycled core is
// indistinguishable from a new one: the event sequence, random draws, and
// results are byte-identical (the calendar's pop order does not depend on
// the bucket calibration it keeps).
func (c *procCore) reset(o Options, stream *rng.Source, n int) {
	q, ps, stealBuf, lane := c.q, c.ps, c.stealBuf, c.lane
	if q == nil {
		q = eventq.NewCalendar(4 * n)
	} else {
		q.Reset()
	}
	if cap(stealBuf) == 0 {
		stealBuf = make([]float64, 0, dequeArenaCap)
	}
	*c = procCore{
		o: o, r: stream, q: q, lane: lane, ps: ps, n: n,
		pick:     rng.NewBounded(n),
		res:      Result{DrainTime: -1, P50: math.NaN(), P95: math.NaN(), P99: math.NaN()},
		stealBuf: stealBuf,
	}
	c.ps.resize(n)
	if ex, ok := o.Service.(dist.Exponential); ok {
		c.svcExp = ex.Rate
	}
	if o.SojournHistMax > 0 {
		c.sojournH = stats.NewHistogram(0, o.SojournHistMax, 1000)
	}
}

// result returns the measurements of the last run (backend interface).
func (c *procCore) result() Result { return c.res }

// accountLoad integrates the total-load process up to time t.
func (c *procCore) accountLoad(t float64) {
	if t <= c.o.Warmup {
		return
	}
	from := c.loadSince
	if from < c.o.Warmup {
		from = c.o.Warmup
	}
	if t > from {
		c.loadIntegral += float64(c.totalTasks) * (t - from)
	}
	c.loadSince = t
}

// markBusy records the start of a busy period (queue went 0 → 1).
func (c *procCore) markBusy(p int32) {
	c.ps.busySince[p] = c.now
}

// markIdle closes a busy period (queue went 1 → 0), accumulating the
// post-warmup portion.
func (c *procCore) markIdle(p int32) {
	from := c.ps.busySince[p]
	if from < c.o.Warmup {
		from = c.o.Warmup
	}
	if c.now > from {
		c.ps.busyTime[p] += c.now - from
	}
}

// addTask enqueues a new task (with its original arrival time) at
// processor p, counting it into the system load.
func (c *procCore) addTask(p int32, arrival float64) {
	c.totalTasks++
	c.enqueue(p, arrival)
}

// enqueue appends a task already counted in the system load (a stolen,
// rebalanced, or landed in-flight task) to p's queue, starting service if
// p was idle.
func (c *procCore) enqueue(p int32, arrival float64) {
	c.ps.pushBack(p, arrival)
	c.ps.emptyEpoch[p]++
	if c.ps.qlen[p] == 1 {
		c.markBusy(p)
		c.scheduleDeparture(p)
	}
}

// scheduleDeparture samples a service time for the task now at the head of
// p's queue, which must be non-empty. Both divisions — by the exponential
// service rate and by p's rate multiplier — are skipped when the divisor
// is 1: IEEE 754 gives x/1 == x exactly, so the sample is bit-identical
// and every cell at unit rates saves a divide or two per departure.
func (c *procCore) scheduleDeparture(p int32) {
	var s float64
	if c.svcExp > 0 {
		s = c.r.Exp1()
		if c.svcExp != 1 {
			s /= c.svcExp
		}
	} else {
		s = c.o.Service.Sample(c.r)
	}
	if rate := c.ps.rate[p]; rate != 1 {
		s /= rate
	}
	c.q.Push(eventq.Event{Time: c.now + s, Kind: evDeparture, Proc: p})
}

// scheduleArrival sets the single arrival chain's next event at time t,
// reserving the calendar's next tie-break number for it exactly where a
// Push would have taken one.
func (c *procCore) scheduleArrival(t float64) {
	c.lane.head = eventq.Event{Time: t, Kind: evArrival}
	c.q.Reserve(&c.lane.head)
}

// completeTask removes the head task of p, records its sojourn, and starts
// the next task.
func (c *procCore) completeTask(p int32) {
	arrival := c.ps.popFront(p)
	c.totalTasks--
	c.met.Departures++
	if arrival >= c.o.Warmup {
		sj := c.now - arrival
		c.sojournSum += sj
		c.res.Measured++
		if c.sojournH != nil {
			c.sojournH.Add(sj)
		}
	}
	if c.ps.qlen[p] > 0 {
		c.scheduleDeparture(p)
	} else {
		c.markIdle(p)
	}
}

// countAttempt records one steal attempt by thief.
func (c *procCore) countAttempt(thief int32) {
	c.met.StealAttempts++
	c.ps.stealAttempts[thief]++
}

// judgeSteal applies the steal-outcome taxonomy to a simulated victim
// holding load tasks, for a thief that requires at least need: the attempt
// fails against a victim below need or with fewer than two tasks (which
// cannot give one away and keep its head task), counted as an empty victim
// below two tasks and as a threshold failure otherwise. A success is
// counted for thief.
func (c *procCore) judgeSteal(thief int32, load, need int) bool {
	if load < need || load < 2 {
		if load < 2 {
			c.met.StealFailEmpty++
		} else {
			c.met.StealFailThreshold++
		}
		return false
	}
	c.met.StealSuccesses++
	c.ps.stealSuccesses[thief]++
	return true
}

// stealCount returns how many tasks a successful steal takes from a
// load-j victim: K, or ⌈j/2⌉ under the steal-half heuristic.
func (c *procCore) stealCount(load int) int {
	if c.o.Half {
		return (load + 1) / 2
	}
	return c.o.K
}

// transfer moves k tasks from the tail of v's queue to the tail of thief's,
// preserving their relative order. The moved tasks pass through stealBuf,
// keeping the hot path allocation-free.
func (c *procCore) transfer(thief, v int32, k int) {
	tmp := c.stealBuf[:0]
	for j := 0; j < k; j++ {
		tmp = append(tmp, c.ps.popBack(v))
	}
	c.stealBuf = tmp
	for j := len(tmp) - 1; j >= 0; j-- {
		c.enqueue(thief, tmp[j])
	}
}

// scheduleRetry arms an idle processor's next steal retry, stamped with
// its current empty epoch so the retry goes stale if p gains work first.
func (c *procCore) scheduleRetry(p int32) {
	c.q.Push(eventq.Event{
		Time:  c.now + c.r.Exp(c.o.RetryRate),
		Kind:  evRetry,
		Proc:  p,
		Epoch: c.ps.emptyEpoch[p],
	})
}

// finish closes a run ending at simulated time end: it integrates the load
// up to end and assembles the Result, normalizing per-processor means by
// the n simulated processors.
func (c *procCore) finish(end float64, wallStart time.Time) {
	c.accountLoad(end)
	c.res.End = end
	if c.res.Measured > 0 {
		c.res.MeanSojourn = c.sojournSum / float64(c.res.Measured)
	}
	if span := end - c.o.Warmup; span > 0 {
		c.res.MeanLoad = c.loadIntegral / span / float64(c.n)
	}
	if c.tails != nil {
		c.res.Tails = c.tails.tails()
	}
	c.res.SeriesTimes = c.seriesTimes
	c.res.SeriesLoads = c.seriesLoads
	if c.sojournH != nil && c.sojournH.Count() > 0 {
		c.res.P50 = c.sojournH.Quantile(0.50)
		c.res.P95 = c.sojournH.Quantile(0.95)
		c.res.P99 = c.sojournH.Quantile(0.99)
	}
	c.finishMetrics(end, time.Since(wallStart))
}

// finishMetrics closes the observability layer: it flushes open busy
// periods, derives the rate and utilization fields over the n simulated
// processors, and mirrors the counters into the legacy Result fields.
func (c *procCore) finishMetrics(end float64, wall time.Duration) {
	o := &c.o
	c.met.Duration = end
	span := end - o.Warmup
	c.met.Span = 0
	if span > 0 {
		c.met.Span = span
	}

	// Flush busy periods still open at the end of the run.
	var busySum float64
	c.met.PerProc = make([]metrics.ProcMetrics, c.n)
	for i := 0; i < c.n; i++ {
		if c.ps.qlen[i] > 0 {
			from := c.ps.busySince[i]
			if from < o.Warmup {
				from = o.Warmup
			}
			if end > from {
				c.ps.busyTime[i] += end - from
			}
		}
		pm := &c.met.PerProc[i]
		pm.StealAttempts = c.ps.stealAttempts[i]
		pm.StealSuccesses = c.ps.stealSuccesses[i]
		pm.BusyTime = c.ps.busyTime[i]
		if span > 0 {
			pm.Utilization = c.ps.busyTime[i] / span
		}
		busySum += c.ps.busyTime[i]
	}
	if span > 0 {
		c.met.Utilization = busySum / span / float64(c.n)
	}
	c.met.TransfersInFlight = c.met.TransfersStarted - c.met.TransfersCompleted

	if c.qhistSamples > 0 {
		c.met.QueueHist = make([]float64, len(c.qhist))
		denom := float64(c.qhistSamples) * float64(c.n)
		for i, v := range c.qhist {
			c.met.QueueHist[i] = float64(v) / denom
		}
		c.met.QueueHistSamples = c.qhistSamples
	}

	c.met.WallSeconds = wall.Seconds()
	if c.met.WallSeconds > 0 {
		c.met.EventsPerSec = float64(c.met.Events) / c.met.WallSeconds
	}

	c.res.Metrics = c.met
}
