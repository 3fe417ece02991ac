// Package sched is the global experiment scheduler: one machine-wide worker
// pool that executes every (table, cell, replication) work item of an
// evaluation run.
//
// The per-cell runner sim.Replication caps its parallelism at Reps
// goroutines, so a table whose cells run sequentially can never use more
// than Reps cores, and a fresh engine is built for every replication. This
// package flattens the work instead: table builders enqueue whole cells up
// front (Pool.Sim), every replication of every cell becomes one queue item,
// and a fixed set of workers — GOMAXPROCS by default — drains them. Each
// worker owns a reusable sim.Runner, so engine allocations scale with the
// worker count rather than with cells × replications.
//
// Determinism: replication i of a cell always runs on the random stream
// rng.DeriveSeed(Seed, i) and lands in slot i of the cell's result slice, so
// aggregates are bit-identical for every worker count and any interleaving
// of cells — the scheduler changes wall-clock time, never numbers.
//
// Failure containment: a panic inside a replication (an engine bug, or a
// fault injected through SetChaos) is confined to its cell — the worker
// survives, the cell resolves, and waiters receive a typed
// ErrReplicationPanic from AggregateCtx instead of the process dying.
// Cancellation reaches into running replications too: Pool.Sim wires the
// cell's cancel flag into sim.Options.Stop, so a cell abandoned mid-run
// stops its engines at the next poll rather than finishing work nobody
// will read.
//
// Work stealing: a cell's queued replications can be leased to a remote
// peer (Cell.Lease), which runs them elsewhere and hands results back with
// Cell.Fulfill. Each replication slot moves through a small atomic state
// machine (pending → running|leased → done), so local workers and thieves
// race with a single CAS as the arbiter and a slot is only ever executed by
// one side. Because replication i always runs on rng.DeriveSeed(Seed, i), a
// stolen replication returns the byte-identical Result the local worker
// would have produced — stealing changes wall-clock time, never numbers.
// A lease that goes quiet (partitioned or crashed thief) is revoked with
// Cell.Reclaim, which re-enqueues the slots locally; a late Fulfill from
// the revoked lease is rejected, so a thief re-running a reclaimed batch
// cannot double-count or corrupt the aggregate.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/sim"
)

// SiteReplication is the chaos injection site probed once per replication:
// a latency fault stalls the replication before its engine run, a panic
// fault kills it (and is contained as ErrReplicationPanic).
const SiteReplication = "sched.replication"

// ErrReplicationPanic is wrapped in the error a Cell reports when one of
// its replications panicked instead of returning a result.
var ErrReplicationPanic = errors.New("sched: replication panicked")

// Pool is a bounded worker pool. Submitting is safe from any goroutine, so
// independent table builders can share one Pool and keep every core busy.
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []job
	closed bool
	wg     sync.WaitGroup
	chaos  atomic.Pointer[chaos.Injector]
}

// job is one unit of work: fn runs on a worker, with that worker's
// long-lived Runner available for engine reuse.
type job func(r *sim.Runner)

// New starts a pool with the given number of workers; workers <= 0 means
// GOMAXPROCS. Close must be called to release the workers.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker()
	}
	return p
}

// SetChaos installs (or, with nil, removes) a fault injector on the
// replication path. Safe to call at any time; a nil or inert injector adds
// one atomic load per replication and nothing else.
func (p *Pool) SetChaos(in *chaos.Injector) { p.chaos.Store(in) }

// worker drains the queue until the pool closes. The Runner persists across
// jobs: this is where engine reuse pays off.
func (p *Pool) worker() {
	defer p.wg.Done()
	var r sim.Runner
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			return
		}
		j := p.queue[0]
		p.queue = p.queue[1:]
		p.mu.Unlock()
		runJob(j, &r)
	}
}

// runJob executes one job with a panic backstop, so a fault in any queued
// work item costs at most that item — never the worker, and never the
// process. Cell replications convert their own panics into a typed cell
// error before this backstop is reached; it exists for raw Go() jobs.
func runJob(j job, r *sim.Runner) {
	defer func() { _ = recover() }()
	j(r)
}

// Go submits one job. It never blocks: the queue is unbounded, so builders
// can enqueue a whole evaluation suite before the first result is read.
func (p *Pool) Go(fn func(r *sim.Runner)) {
	if !p.tryGo(fn) {
		panic("sched: Go on closed Pool")
	}
}

// tryGo is Go that reports failure instead of panicking, for callers that
// may legitimately race pool shutdown (lease reclamation).
func (p *Pool) tryGo(fn job) bool {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return false
	}
	p.queue = append(p.queue, fn)
	p.mu.Unlock()
	p.cond.Signal()
	return true
}

// Close wakes the workers and waits for every submitted job to finish.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// Replication slot states. Every slot resolves exactly once: a local worker
// claims pending→running and resolves in its defer; a thief's lease claims
// pending→leased and the slot resolves through Fulfill, Reclaim (on a
// cancelled cell), or lease revocation by Cancel. The single CAS out of
// pending is the arbiter between local pickup and stealing.
const (
	slotPending int32 = iota // queued, claimable by a worker or a lease
	slotRunning              // a local worker is executing it
	slotLeased               // leased to a remote thief
	slotDone                 // resolved (result written, skipped, or panicked)
)

// Cell is the future of one (Options, Reps) table cell submitted with Sim.
//
// A Cell can be abandoned with Cancel (or, equivalently, by AggregateCtx
// when its context expires): replications still sitting in the pool's queue
// then resolve as no-ops instead of burning a worker on results nobody will
// read, replications already running observe the same flag through
// sim.Options.Stop and abandon their event loop at the next poll, and
// outstanding leases are revoked so a late Fulfill cannot write into a dead
// cell. Cancellation is cooperative; Cancel never blocks.
type Cell struct {
	pool      *Pool
	opts      sim.Options
	results   []sim.Result
	slots     []atomic.Int32
	remaining atomic.Int64
	done      chan struct{}
	cancelled atomic.Bool
	ran       atomic.Int64
	stolen    atomic.Int64

	errMu sync.Mutex
	err   error

	leaseMu   sync.Mutex
	leases    map[uint64]map[int]struct{} // lease id → outstanding indices
	nextLease uint64
}

// Sim validates o and enqueues reps replications of it as independent work
// items. Replication i runs on the stream rng.DeriveSeed(o.Seed, i), exactly as
// sim.Replication would run it.
func (p *Pool) Sim(o sim.Options, reps int) (*Cell, error) {
	if err := (sim.Replication{Reps: reps}).Validate(&o); err != nil {
		return nil, err
	}
	c := &Cell{
		pool:    p,
		opts:    o,
		results: make([]sim.Result, reps),
		slots:   make([]atomic.Int32, reps),
		done:    make(chan struct{}),
		leases:  make(map[uint64]map[int]struct{}),
	}
	// Cancellation reaches running engines through the same flag that
	// skips queued replications.
	c.opts.Stop = &c.cancelled
	c.remaining.Store(int64(reps))
	for i := 0; i < reps; i++ {
		i := i
		p.Go(func(r *sim.Runner) { c.runLocal(r, i) })
	}
	return c, nil
}

// runLocal is the queued work item for one replication slot. If the slot
// was leased (or already resolved) before a worker got here, the job is a
// no-op: resolution is owned by whoever won the CAS out of pending.
func (c *Cell) runLocal(r *sim.Runner, i int) {
	if !c.slots[i].CompareAndSwap(slotPending, slotRunning) {
		return
	}
	defer func() {
		if v := recover(); v != nil {
			c.fail(fmt.Errorf("%w: replication %d: %v", ErrReplicationPanic, i, v))
		}
		c.slots[i].Store(slotDone)
		c.resolve()
	}()
	if c.cancelled.Load() {
		return
	}
	if in := c.pool.chaos.Load(); in != nil {
		in.Sleep(SiteReplication)
		in.MaybePanic(SiteReplication)
	}
	c.results[i] = r.RunRep(c.opts, i)
	c.ran.Add(1)
}

// resolve retires one slot; the last one completes the cell.
func (c *Cell) resolve() {
	if c.remaining.Add(-1) == 0 {
		close(c.done)
	}
}

// Lease claims up to max still-pending replications for a remote thief and
// returns a lease id plus the claimed indices (0, nil when nothing is
// claimable). The thief must run each index as rng.DeriveSeed(Seed, index) —
// i.e. sim.Runner.RunRep(opts, index) on its own copy of the spec — and
// hand results back with Fulfill. The cell keeps no timer: whoever granted
// the lease owns its deadline and must Reclaim it if the thief goes quiet.
func (c *Cell) Lease(max int) (id uint64, indices []int) {
	if max <= 0 || c.cancelled.Load() {
		return 0, nil
	}
	c.leaseMu.Lock()
	defer c.leaseMu.Unlock()
	// Re-check under the lock: Cancel revokes registered leases under
	// leaseMu, so a lease built after the flag flips would never be revoked.
	if c.cancelled.Load() {
		return 0, nil
	}
	for i := range c.slots {
		if len(indices) >= max {
			break
		}
		if c.slots[i].CompareAndSwap(slotPending, slotLeased) {
			indices = append(indices, i)
		}
	}
	if len(indices) == 0 {
		return 0, nil
	}
	c.nextLease++
	id = c.nextLease
	out := make(map[int]struct{}, len(indices))
	for _, i := range indices {
		out[i] = struct{}{}
	}
	c.leases[id] = out
	return id, indices
}

// Fulfill hands back the result of one leased replication. It reports
// whether the result was accepted; a false return means the lease is not
// active for that index — expired, reclaimed, revoked by cancellation, or
// already fulfilled — and the result was discarded. This is the idempotency
// barrier: duplicate completions and completions from a revoked lease can
// never double-write a slot or resolve the cell twice.
func (c *Cell) Fulfill(id uint64, index int, res sim.Result) bool {
	c.leaseMu.Lock()
	defer c.leaseMu.Unlock()
	out := c.leases[id]
	if out == nil {
		return false
	}
	if _, ok := out[index]; !ok {
		return false
	}
	if !c.slots[index].CompareAndSwap(slotLeased, slotDone) {
		return false
	}
	c.results[index] = res
	c.stolen.Add(1)
	delete(out, index)
	if len(out) == 0 {
		delete(c.leases, id)
	}
	c.resolve()
	return true
}

// Reclaim revokes a lease and takes back its unfulfilled slots: on a live
// cell they return to pending and are re-enqueued on the local pool; on a
// cancelled cell (or a closed pool) they resolve as skipped so waiters
// unblock. Already-fulfilled indices are untouched. Returns the number of
// slots taken back. Reclaim on an unknown or fully-fulfilled lease is a
// no-op, so reclamation timers need not coordinate with completions.
func (c *Cell) Reclaim(id uint64) int {
	c.leaseMu.Lock()
	out := c.leases[id]
	delete(c.leases, id)
	cancelled := c.cancelled.Load()
	var requeue []int
	n := 0
	for i := range out {
		if cancelled {
			if c.slots[i].CompareAndSwap(slotLeased, slotDone) {
				c.resolve()
				n++
			}
			continue
		}
		if c.slots[i].CompareAndSwap(slotLeased, slotPending) {
			requeue = append(requeue, i)
			n++
		}
	}
	c.leaseMu.Unlock()
	for _, i := range requeue {
		i := i
		if !c.pool.tryGo(func(r *sim.Runner) { c.runLocal(r, i) }) {
			if c.slots[i].CompareAndSwap(slotPending, slotDone) {
				c.resolve()
			}
		}
	}
	return n
}

// fail records the cell's first replication failure.
func (c *Cell) fail(err error) {
	c.errMu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.errMu.Unlock()
}

// Err returns the first replication failure of the cell, or nil. It is
// meaningful once Done is closed; AggregateCtx checks it for callers.
func (c *Cell) Err() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.err
}

// Aggregate blocks until every replication of the cell has run and returns
// the same aggregate sim.Replication.Run would produce. It must not be
// called on a cancelled or failed cell (skipped and panicked replications
// leave zero Results); batch builders that never cancel and run without
// fault injection use it directly, servers use AggregateCtx.
func (c *Cell) Aggregate() sim.Aggregate {
	<-c.done
	return sim.AggregateResults(c.opts, c.results)
}

// AggregateCtx is Aggregate with two escape hatches: if ctx expires before
// the cell resolves, the cell is cancelled (queued replications never run,
// running ones stop at their next poll) and the context's error is
// returned; if a replication panicked, the wrapped ErrReplicationPanic is
// returned instead of an aggregate built from incomplete results. This is
// how a server abandons the work of a disconnected or timed-out request
// without burning workers, and survives a poisoned replication without
// serving garbage.
func (c *Cell) AggregateCtx(ctx context.Context) (sim.Aggregate, error) {
	select {
	case <-c.done:
		if err := c.Err(); err != nil {
			return sim.Aggregate{}, err
		}
		return sim.AggregateResults(c.opts, c.results), nil
	case <-ctx.Done():
		c.Cancel()
		return sim.Aggregate{}, ctx.Err()
	}
}

// Cancel marks the cell abandoned: replications still queued resolve as
// no-ops, running replications stop at their next event-loop poll, and
// every outstanding lease is revoked (its slots resolve as skipped; a late
// Fulfill is rejected). Cancel is idempotent and safe from any goroutine,
// including after the cell has completed (where it has no effect).
func (c *Cell) Cancel() {
	c.cancelled.Store(true)
	c.leaseMu.Lock()
	for id, out := range c.leases {
		for i := range out {
			if c.slots[i].CompareAndSwap(slotLeased, slotDone) {
				c.resolve()
			}
		}
		delete(c.leases, id)
	}
	c.leaseMu.Unlock()
}

// Done returns a channel closed once every replication has either run or
// been skipped by cancellation.
func (c *Cell) Done() <-chan struct{} { return c.done }

// Ran reports how many replications actually executed an engine run
// locally — reps for a cell that resolved normally without stealing,
// possibly fewer (down to zero) for a cancelled or partly-stolen one.
func (c *Cell) Ran() int64 { return c.ran.Load() }

// Stolen reports how many replications were fulfilled by remote thieves.
// For an uncancelled cell, Ran() + Stolen() is the replication count once
// Done is closed.
func (c *Cell) Stolen() int64 { return c.stolen.Load() }

// Pending counts replications still claimable — not yet picked up locally,
// leased, or resolved. It is a racy snapshot, which is all load gossip
// needs.
func (c *Cell) Pending() int {
	n := 0
	for i := range c.slots {
		if c.slots[i].Load() == slotPending {
			n++
		}
	}
	return n
}
