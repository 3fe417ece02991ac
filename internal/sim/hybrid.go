package sim

// The hybrid backend couples a small tracked sample of processors,
// simulated event-by-event exactly like the DES engine, to the mean-field
// fluid limit standing in for the other N − Tracked processors (the bulk).
// The coupling follows the structure of Kurtz's density-dependent chains:
// every interaction of a tracked processor with "the rest of the system"
// is drawn against the current fluid tail vector s(t).
//
//   - Tracked processors receive their own Poisson arrivals and serve
//     tasks exactly as in the DES engine: both run on the shared processor
//     core (core.go), so this file holds only the coupling.
//   - When a tracked thief steals, its victim is another tracked processor
//     with probability Tracked/N (a real within-sample steal, including
//     the self-draw that the DES victim sampler allows); otherwise the
//     victim is in the bulk and the attempt succeeds with probability
//     s_T(t), the fluid fraction of processors at or above the threshold.
//     Stolen bulk tasks materialize in the thief's queue.
//   - Bulk thieves victimize the sample through a thinned Poisson probe
//     process: each tracked processor is probed at rate α(t)·(N−Tracked)/N,
//     where α(t) = θ(t) + r·(1−s₁) is the fluid per-processor
//     steal-attempt rate: θ(t), the rate of completions that empty a queue
//     (s₁−s₂ under exponential service, the phase-weighted completion flux
//     under phase-type service), plus idle retries.
//     A probed processor at or above the threshold loses K tasks (⌈j/2⌉
//     under steal-half) from the tail of its queue into the bulk.
//
// The fluid state itself evolves by the autonomous mean-field ODE,
// advanced with RK4 on a fixed tick. Feedback from the sample onto the
// fluid is ignored — an O(Tracked/N) bias, see DESIGN.md §13 — and tasks
// stolen from the bulk carry no arrival stamp, so they contribute to load
// and utilization but never to sojourn measurements.
//
// Supported options are the intersection of the DES engine and the
// mean-field models that expose a task-tail coupling (core.StealCoupler):
// PolicyNone or PolicySteal with B = 0, D = 1, no transfer delays, and
// K ≥ 1, steal-half or retries under exponential rate-1 service, or basic
// threshold stealing (K = 1) under any phase-type service; homogeneous
// processors. All bulk reads — s_i, the attempt rate α(t), and victim-load
// sampling — go through a tail snapshot refreshed at each fluid tick, so
// tail-vector models behave exactly as if the state were read directly.

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/ode"
	"repro/internal/rng"
)

// hybridFluidStep is the fluid tick: the bulk state advances by one RK4
// step of this size, and tracked-processor interactions in between read
// the piecewise-constant fluid tails.
const hybridFluidStep = 0.05

// bulkArrival is the arrival stamp of tasks stolen from the fluid bulk.
// It precedes every warmup, so bulk tasks are never sojourn-measured: the
// fluid limit does not know how long they have already been queued.
var bulkArrival = math.Inf(-1)

// validateHybrid rejects option combinations the hybrid coupling cannot
// represent: it needs a mean-field model with task-indexed tails (for s_T
// and the probe rate) and on-empty single-victim stealing.
func (o *Options) validateHybrid() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("sim: hybrid engine: %s", fmt.Sprintf(format, args...))
	}
	if o.Policy == PolicySteal {
		if o.B != 0 {
			return bad("preemptive stealing (B > 0) is not supported")
		}
		if o.D != 1 {
			return bad("victim choices (D > 1) are not supported")
		}
		if o.TransferRate != 0 {
			return bad("transfer delays are not supported")
		}
	}
	m, err := fluidModel(o)
	if err != nil {
		return err
	}
	if _, ok := m.(core.StealCoupler); !ok {
		return bad("model %s does not expose task-indexed tails", m.Name())
	}
	return nil
}

// hybridEngine is the tracked-sample-plus-fluid backend: the shared
// processor core over the Tracked sample, plus the Kurtz coupling to the
// fluid bulk.
type hybridEngine struct {
	procCore

	// Fluid bulk. bulkTails and bulkTheta are snapshots of the coupler's
	// tail vector and queue-emptying rate, refreshed after every fluid tick
	// (the state is piecewise constant in between, so snapshotting changes
	// nothing for tail-vector models and saves phase-type models a
	// suffix-sum per coupling event).
	model     core.Model
	coupler   core.StealCoupler
	x         []float64
	bulkTails []float64
	bulkTheta float64
	scratch   *ode.RK4Scratch

	// Coupling rates, fixed per run.
	trackedFrac float64 // Tracked / N: chance a tracked thief picks a tracked victim
	probeBound  float64 // merged thinning bound on the bulk probe process
	alphaBar    float64 // per-processor bound on the fluid attempt rate α(t)
}

// init prepares a fresh hybrid run of o on the given stream, recycling the
// tracked-processor state, event list, and buffers of any previous run.
func (h *hybridEngine) init(o Options, stream *rng.Source) {
	h.reset(o, stream, o.Tracked)

	m, err := fluidModel(&o)
	if err != nil {
		panic(err) // Options.Validate gates every caller
	}
	h.model = m
	h.coupler = m.(core.StealCoupler)
	h.x = m.Initial()
	h.scratch = ode.NewRK4Scratch(m.Dim())
	h.refreshBulk()

	h.trackedFrac = float64(o.Tracked) / float64(o.N)
	h.alphaBar = 0
	h.probeBound = 0
	if o.Policy == PolicySteal {
		// α(t) ≤ θ̄ + r, where θ̄ bounds the queue-emptying completion rate
		// (1 for exponential service, max phase rate for phase-type): the
		// thinning bound of the bulk probe process, scaled by the bulk
		// fraction and merged over the sample.
		h.alphaBar = h.coupler.EmptyingRateBound() + o.RetryRate
		h.probeBound = h.alphaBar * (1 - h.trackedFrac) * float64(o.Tracked)
	}

	// Priming events: the merged arrival stream of the sample (in the
	// arrival lane), the fluid tick chain, the probe chain, and the
	// samplers. Unlike the DES engine, the series chain starts with an
	// event at t = 0.
	h.lane.open(0)
	h.scheduleArrival(h.r.Exp(o.Lambda * float64(o.Tracked)))
	h.q.Push(eventq.Event{Time: hybridFluidStep, Kind: evFluid})
	if h.probeBound > 0 {
		h.q.Push(eventq.Event{Time: h.r.Exp(h.probeBound), Kind: evProbe})
	}
	h.scheduleFirstSample()
	if o.SeriesEvery > 0 {
		h.q.Push(eventq.Event{Time: 0, Kind: evSeries})
	}
}

// refreshBulk recomputes the tail and emptying-rate snapshots from the
// fluid state; called whenever h.x changes (init and every fluid tick).
func (h *hybridEngine) refreshBulk() {
	h.bulkTails = h.coupler.TaskTails(h.x, h.bulkTails)
	h.bulkTheta = h.coupler.EmptyingRate(h.x)
}

// tail returns s_i of the fluid bulk (0 beyond the truncation).
func (h *hybridEngine) tail(i int) float64 {
	if i < 0 {
		return 1
	}
	if i >= len(h.bulkTails) {
		return 0
	}
	return h.bulkTails[i]
}

// alpha is the fluid per-processor steal-attempt rate: processors
// completing the task that empties their queue, plus idle retries.
func (h *hybridEngine) alpha() float64 {
	a := h.bulkTheta + h.o.RetryRate*(1-h.tail(1))
	if a < 0 {
		return 0
	}
	if a > h.alphaBar {
		return h.alphaBar
	}
	return a
}

// sampleBulkLoad draws a bulk victim's queue length conditional on being
// at or above the threshold: P(j ≥ l | j ≥ T) = s_l / s_T.
func (h *hybridEngine) sampleBulkLoad() int {
	t := h.o.T
	sT := h.tail(t)
	if sT <= 0 {
		return t
	}
	u := h.r.Float64() * sT
	j := t
	for j+1 < len(h.bulkTails) && h.bulkTails[j+1] > u {
		j++
	}
	return j
}

// trySteal performs one steal attempt by an empty tracked thief. The
// victim is tracked with probability Tracked/N (exact within-sample steal,
// self-draws included, mirroring the DES victim sampler); otherwise the
// attempt is resolved against the fluid tails.
func (h *hybridEngine) trySteal(thief int32) bool {
	h.countAttempt(thief)
	if h.r.Float64() < h.trackedFrac {
		v := int32(h.pick.Next(h.r))
		load := int(h.ps.qlen[v])
		if !h.judgeSteal(thief, load, h.o.T) {
			return false
		}
		h.transfer(thief, v, h.stealCount(load))
		return true
	}
	// Bulk victim: one uniform draw against the fluid tail resolves the
	// outcome — success below s_T, a below-threshold victim between s_T
	// and s₂, an (almost) empty victim above s₂.
	u := h.r.Float64()
	if u >= h.tail(h.o.T) {
		if u >= h.tail(2) {
			h.met.StealFailEmpty++
		} else {
			h.met.StealFailThreshold++
		}
		return false
	}
	h.met.StealSuccesses++
	h.ps.stealSuccesses[thief]++
	k := h.o.K
	if h.o.Half {
		k = (h.sampleBulkLoad() + 1) / 2
	}
	for j := 0; j < k; j++ {
		h.addTask(thief, bulkArrival)
	}
	return true
}

// afterCompletion mirrors the DES policy hook: an emptied tracked
// processor attempts a steal, and arms a retry on failure.
func (h *hybridEngine) afterCompletion(p int32) {
	if h.o.Policy != PolicySteal {
		return
	}
	if h.ps.qlen[p] > 0 {
		return // B = 0: only emptied processors steal
	}
	if h.trySteal(p) {
		return
	}
	if h.o.RetryRate > 0 && h.ps.qlen[p] == 0 {
		h.scheduleRetry(p)
	}
}

// probe resolves one bulk-thief probe: thinned to the current α(t), it
// picks a uniform tracked victim and, if the victim is at or above the
// threshold, removes a steal's worth of tasks into the bulk. The victim
// keeps its head task (T ≥ 2K and steal-half leave at least one), so no
// departure needs rescheduling.
func (h *hybridEngine) probe() {
	if h.r.Float64()*h.alphaBar >= h.alpha() {
		return // thinned: the bulk attempt rate is below the bound
	}
	v := int32(h.pick.Next(h.r))
	load := int(h.ps.qlen[v])
	if load < h.o.T || load < 2 {
		return
	}
	k := h.stealCount(load)
	for j := 0; j < k; j++ {
		h.ps.popBack(v)
		h.totalTasks--
	}
	h.met.BulkSteals++
	h.met.BulkStolenTasks += int64(k)
}

// run is the hybrid main loop. It runs to the horizon: the sample keeps
// receiving arrivals, so there is no drain stop.
func (h *hybridEngine) run() {
	o := &h.o
	wallStart := time.Now()
	for {
		if o.Stop != nil && h.met.Events&stopCheckMask == stopCheckMask && o.Stop.Load() {
			break
		}
		// The lane-or-calendar merge of engine.run, inlined the same way.
		var ev eventq.Event
		if h.q.Len() == 0 {
			if h.lane.empty() {
				break
			}
			ev = h.lane.head
		} else if ev = h.q.Peek(); ev.Before(&h.lane.head) {
			h.q.PopMin()
		} else {
			ev = h.lane.head
		}
		if ev.Time > o.Horizon {
			break
		}
		h.accountLoad(ev.Time)
		h.now = ev.Time
		h.met.Events++

		switch ev.Kind {
		case evArrival:
			h.addTask(int32(h.pick.Next(h.r)), h.now)
			h.met.Arrivals++
			h.scheduleArrival(h.now + h.r.Exp(o.Lambda*float64(o.Tracked)))

		case evDeparture:
			h.completeTask(ev.Proc)
			h.afterCompletion(ev.Proc)

		case evRetry:
			p := ev.Proc
			if h.ps.emptyEpoch[p] != ev.Epoch || h.ps.qlen[p] > 0 {
				h.met.RetriesStale++
				break
			}
			h.met.Retries++
			if !h.trySteal(p) {
				h.scheduleRetry(p)
			}

		case evFluid:
			ode.RK4(ode.System(h.model.Derivs), h.x, hybridFluidStep, h.scratch)
			h.model.Project(h.x)
			h.refreshBulk()
			next := h.now + hybridFluidStep
			if next <= o.Horizon {
				h.q.Push(eventq.Event{Time: next, Kind: evFluid})
			}

		case evProbe:
			h.probe()
			h.q.Push(eventq.Event{Time: h.now + h.r.Exp(h.probeBound), Kind: evProbe})

		case evSample:
			h.handleSample()

		case evSeries:
			h.handleSeries()
		}
	}
	h.finish(o.Horizon, wallStart)
}
