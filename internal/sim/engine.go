package sim

import (
	"math"
	"time"

	"repro/internal/eventq"
	"repro/internal/rng"
	"repro/internal/workload"
)

// engine is the exact discrete-event simulator over all N processors: the
// shared processor core plus the DES-only mechanics — multi-class arrival
// placement, the D-choice victim sampler, preemptive stealing, transfer
// delays, spawning, rebalancing, and the drain stop of static runs.
type engine struct {
	procCore

	classProcs [][]int32     // processor indices per class under Classes (victim sampling is global)
	pickN1     rng.Bounded   // rebalance partner draws over [0, N-1)
	classPick  []rng.Bounded // arrival placement per class under Classes

	// arrivals is the per-replication source of the custom arrival process
	// (nil for the default merged Poisson stream, which keeps the legacy
	// arrival path — and its event and RNG sequence — untouched).
	arrivals workload.ArrivalSource
}

// init prepares e for a fresh run of o on the given stream (backend
// interface), recycling the state of any previous run (see procCore.reset).
func (e *engine) init(o Options, stream *rng.Source) {
	e.reset(o, stream, o.N)
	if o.N > 1 {
		e.pickN1 = rng.NewBounded(o.N - 1)
	}

	// Assign classes. Without Classes, arrivals are placed by pick over
	// all processors.
	e.classProcs = e.classProcs[:0]
	if o.Classes != nil {
		e.classProcs = make([][]int32, len(o.Classes))
		next := 0
		for ci, c := range o.Classes {
			count := int(math.Round(c.Frac * float64(o.N)))
			if ci == len(o.Classes)-1 {
				count = o.N - next
			}
			for j := 0; j < count && next < o.N; j++ {
				e.ps.rate[next] = c.Rate
				e.ps.class[next] = int32(ci)
				e.classProcs[ci] = append(e.classProcs[ci], int32(next))
				next++
			}
		}
	}
	e.classPick = e.classPick[:0]
	for _, ids := range e.classProcs {
		n := len(ids)
		if n == 0 {
			n = 1 // never drawn from: empty classes receive no arrivals
		}
		e.classPick = append(e.classPick, rng.NewBounded(n))
	}

	// Initial load: InitialLoad tasks everywhere, arrival time 0.
	for i := 0; i < o.N; i++ {
		for k := 0; k < o.InitialLoad; k++ {
			e.addTask(int32(i), 0)
		}
	}

	// External arrival chains, in the arrival lane: a custom process when
	// configured, else one merged Poisson stream per class.
	e.arrivals = nil
	e.lane.open(len(o.Classes))
	if o.Arrivals != nil {
		e.arrivals = o.Arrivals.NewSource(o.N)
		e.nextCustomArrival()
	} else if o.Classes == nil {
		if o.Lambda > 0 {
			e.scheduleArrival(e.r.Exp(o.Lambda * float64(o.N)))
		}
	} else {
		for ci, c := range o.Classes {
			n := len(e.classProcs[ci])
			if c.Lambda > 0 && n > 0 {
				e.scheduleClassArrival(int32(ci), e.r.Exp(c.Lambda*float64(n)))
			}
		}
	}
	// Internal spawn stream, thinned over all processors.
	if o.LambdaInt > 0 {
		e.q.Push(eventq.Event{Time: e.r.Exp(o.LambdaInt * float64(o.N)), Kind: evSpawn})
	}
	// Rebalancing chains, one per processor.
	if o.Policy == PolicyRebalance {
		for i := 0; i < o.N; i++ {
			e.q.Push(eventq.Event{Time: e.r.Exp(o.RebalanceRate), Kind: evRebalance, Proc: int32(i)})
		}
	}
	e.scheduleFirstSample()
	e.scheduleSeries()
}

// nextCustomArrival schedules the custom arrival process's next instant,
// ending the lane's chain once the process is exhausted.
func (e *engine) nextCustomArrival() {
	if t := e.arrivals.Next(e.now, e.r); !math.IsInf(t, 1) {
		e.scheduleArrival(t)
	} else {
		e.lane.end()
	}
}

// scheduleClassArrival sets class's arrival chain's next event at time t,
// reserving the calendar's next tie-break number for it.
func (e *engine) scheduleClassArrival(class int32, t float64) {
	s := &e.lane.slots[class]
	*s = eventq.Event{Time: t, Kind: evArrival, Aux: class}
	e.q.Reserve(s)
	e.lane.refresh()
}

// victim samples one steal victim: the most loaded of D uniform draws over
// ALL processors. Sampling includes the thief itself — a self-draw simply
// fails the threshold (the thief's own load is always below what it
// requires of a victim), which matches the mean-field equations where the
// success probability is exactly s_T over the whole population. Excluding
// the thief would beat the n → ∞ prediction by a factor n/(n−1).
func (e *engine) victim(thief int32) (int32, int) {
	best := thief
	bestLoad := int32(-1)
	qlen := e.ps.qlen
	for i := 0; i < e.o.D; i++ {
		v := int32(e.pick.Next(e.r))
		if l := qlen[v]; l > bestLoad {
			best, bestLoad = v, l
		}
	}
	return best, int(bestLoad)
}

// trySteal performs one steal attempt for a thief currently holding
// `left` tasks. Returns true if a task (or K tasks) moved (or began moving).
func (e *engine) trySteal(thief int32, left int) bool {
	e.countAttempt(thief)
	v, load := e.victim(thief)
	if !e.judgeSteal(thief, load, left+e.o.T) {
		return false
	}
	if e.o.TransferRate > 0 {
		// One task enters flight; the thief will not steal again until it
		// lands. It leaves the victim's queue but stays in the system
		// load.
		e.ps.inFlight[thief] = e.ps.popBack(v)
		e.ps.awaiting[thief] = true
		e.met.TransfersStarted++
		e.q.Push(eventq.Event{Time: e.now + e.r.Exp(e.o.TransferRate), Kind: evTransfer, Proc: thief})
		return true
	}
	e.transfer(thief, v, e.stealCount(load))
	return true
}

// afterCompletion runs the stealing policy hooks once p has finished a task.
func (e *engine) afterCompletion(p int32) {
	if e.o.Policy != PolicySteal {
		return
	}
	if e.ps.awaiting[p] {
		return // a stolen task is already on its way
	}
	left := int(e.ps.qlen[p])
	if left > e.o.B {
		return
	}
	if e.trySteal(p, left) {
		return
	}
	// Failed attempt: idle processors may retry at RetryRate.
	if e.o.RetryRate > 0 && e.ps.qlen[p] == 0 {
		e.scheduleRetry(p)
	}
}

// rebalance splits the combined load of p and a random partner as evenly as
// possible; the initially larger side keeps the ceiling half. Tasks move
// from the tail of the larger queue to the tail of the smaller one.
func (e *engine) rebalance(p int32) {
	partner := int32(e.pickN1.Next(e.r))
	if partner >= p {
		partner++
	}
	big, small := p, partner
	if e.ps.qlen[big] < e.ps.qlen[small] {
		big, small = small, big
	}
	// big is the larger side; move tasks until it holds the ceiling half.
	total := int(e.ps.qlen[big] + e.ps.qlen[small])
	keep := (total + 1) / 2
	moved := int64(0)
	for int(e.ps.qlen[big]) > keep {
		e.enqueue(small, e.ps.popBack(big))
		moved++
	}
	if moved > 0 {
		e.met.Rebalances++
		e.met.RebalanceMoves += moved
	}
}

// stopCheckMask sets the cancellation polling cadence: the Stop flag is
// loaded once every stopCheckMask+1 events. At ~100 ns/event that bounds
// the reaction time to abandonment at well under a millisecond while
// keeping the hot loop's per-event cost to one predictable nil test.
const stopCheckMask = 4095

// run is the main event loop.
func (e *engine) run() {
	o := &e.o
	wallStart := time.Now()
	for {
		if o.Stop != nil && e.met.Events&stopCheckMask == stopCheckMask && o.Stop.Load() {
			break
		}
		// The next event is the arrival lane's head or the calendar's
		// minimum, whichever pops first in (Time, seq). Peek, Before and
		// PopMin inline here; PopMin's fast path is an index increment
		// into the drain buffer. A popped lane head stays in its slot
		// until the evArrival case replaces it with the chain's next event.
		var ev eventq.Event
		if e.q.Len() == 0 {
			if e.lane.empty() {
				break
			}
			ev = e.lane.head
		} else if ev = e.q.Peek(); ev.Before(&e.lane.head) {
			e.q.PopMin()
		} else {
			ev = e.lane.head
		}
		if ev.Time > o.Horizon {
			break
		}
		e.accountLoad(ev.Time)
		e.now = ev.Time
		e.met.Events++

		switch ev.Kind {
		case evArrival:
			// Place the task, then schedule its chain's next arrival.
			if o.Classes != nil {
				class := ev.Aux
				ids := e.classProcs[class]
				e.addTask(ids[e.classPick[class].Next(e.r)], e.now)
				e.met.Arrivals++
				e.scheduleClassArrival(class, e.now+e.r.Exp(o.Classes[class].Lambda*float64(len(ids))))
				break
			}
			e.addTask(int32(e.pick.Next(e.r)), e.now)
			e.met.Arrivals++
			if e.arrivals != nil {
				e.nextCustomArrival()
			} else {
				e.scheduleArrival(e.now + e.r.Exp(o.Lambda*float64(o.N)))
			}

		case evSpawn:
			// Thinning: the spawn lands only if the sampled processor is
			// busy, giving per-busy-processor rate LambdaInt.
			p := int32(e.pick.Next(e.r))
			if e.ps.qlen[p] > 0 {
				e.addTask(p, e.now)
				e.met.Spawns++
			}
			e.q.Push(eventq.Event{Time: e.now + e.r.Exp(o.LambdaInt*float64(o.N)), Kind: evSpawn})

		case evDeparture:
			e.completeTask(ev.Proc)
			e.afterCompletion(ev.Proc)

		case evRetry:
			p := ev.Proc
			// Stale if the processor gained work since the retry was armed.
			if e.ps.emptyEpoch[p] != ev.Epoch || e.ps.qlen[p] > 0 || e.ps.awaiting[p] {
				e.met.RetriesStale++
				break
			}
			e.met.Retries++
			if !e.trySteal(p, 0) {
				e.scheduleRetry(p)
			}

		case evTransfer:
			// The task was already counted in the load while in flight.
			p := ev.Proc
			e.ps.awaiting[p] = false
			e.met.TransfersCompleted++
			e.enqueue(p, e.ps.inFlight[p])

		case evRebalance:
			e.rebalance(ev.Proc)
			e.q.Push(eventq.Event{Time: e.now + e.r.Exp(o.RebalanceRate), Kind: evRebalance, Proc: ev.Proc})

		case evSample:
			e.handleSample()

		case evSeries:
			e.handleSeries()
		}

		// Static runs end as soon as the system drains. A custom arrival
		// process disables the early stop: the system may legitimately be
		// empty between bursts or trace instants.
		if e.totalTasks == 0 && o.Lambda == 0 && e.arrivals == nil && e.res.DrainTime < 0 {
			e.res.DrainTime = e.now
			break
		}
	}
	end := e.now
	if e.res.DrainTime < 0 && (o.Lambda > 0 || e.arrivals != nil) {
		end = o.Horizon
	}
	e.finish(end, wallStart)
}
