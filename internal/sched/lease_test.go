package sched_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/sim"
)

// localAggregate runs the cell fully locally and returns its fingerprint,
// the ground truth every stolen variant must reproduce byte-for-byte.
func localAggregate(t *testing.T, seed uint64, reps int) string {
	t.Helper()
	p := sched.New(4)
	defer p.Close()
	c, err := p.Sim(testOptions(seed), reps)
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint(c.Aggregate().Results)
}

// thiefRun mimics a remote peer: it executes a leased index on its own
// runner, from its own copy of the options — exactly what a stolen batch
// does on the other side of an RPC. The options must go through the same
// normalization Pool.Sim applies, or the thief simulates a different model.
func thiefRun(seed uint64, index int) sim.Result {
	o := testOptions(seed)
	if err := (sim.Replication{Reps: 1}).Validate(&o); err != nil {
		panic(err)
	}
	var r sim.Runner
	return r.RunRep(o, index)
}

// TestLeaseFulfillMatchesLocal pins the stealing headline: a cell whose
// replications are partly leased out and fulfilled remotely aggregates to
// the byte-identical result of a fully local run.
func TestLeaseFulfillMatchesLocal(t *testing.T) {
	const seed, reps = 11, 8
	want := localAggregate(t, seed, reps)

	// One worker, so the queue backs up and a lease can claim real slots.
	p := sched.New(1)
	defer p.Close()
	c, err := p.Sim(testOptions(seed), reps)
	if err != nil {
		t.Fatal(err)
	}
	id, indices := c.Lease(3)
	if id == 0 || len(indices) == 0 {
		t.Fatalf("Lease(3) = (%d, %v), want a non-empty lease", id, indices)
	}
	for _, i := range indices {
		if !c.Fulfill(id, i, thiefRun(seed, i)) {
			t.Fatalf("Fulfill(%d, %d) rejected on an active lease", id, i)
		}
	}
	got := fingerprint(c.Aggregate().Results)
	if got != want {
		t.Fatal("stolen cell aggregate differs from fully local run")
	}
	if c.Stolen() != int64(len(indices)) {
		t.Fatalf("Stolen() = %d, want %d", c.Stolen(), len(indices))
	}
	if c.Ran()+c.Stolen() != int64(reps) {
		t.Fatalf("Ran()+Stolen() = %d+%d, want %d", c.Ran(), c.Stolen(), reps)
	}
}

// TestFulfillIdempotent pins the idempotency barrier: duplicate
// completions, completions for indices outside the lease, and completions
// on unknown leases are all rejected without corrupting the cell.
func TestFulfillIdempotent(t *testing.T) {
	const seed, reps = 13, 8
	p := sched.New(1)
	defer p.Close()
	c, err := p.Sim(testOptions(seed), reps)
	if err != nil {
		t.Fatal(err)
	}
	id, indices := c.Lease(2)
	if len(indices) == 0 {
		t.Fatal("no slots leased")
	}
	i := indices[0]
	res := thiefRun(seed, i)
	if !c.Fulfill(id, i, res) {
		t.Fatal("first Fulfill rejected")
	}
	// A partitioned thief re-sends the same completion: must be a no-op.
	if c.Fulfill(id, i, res) {
		t.Fatal("duplicate Fulfill accepted")
	}
	// An index never leased to this thief must be rejected too.
	if c.Fulfill(id, reps-1, thiefRun(seed, reps-1)) &&
		func() bool {
			for _, j := range indices {
				if j == reps-1 {
					return false
				}
			}
			return true
		}() {
		t.Fatal("Fulfill accepted an index outside the lease")
	}
	if c.Fulfill(id+100, i, res) {
		t.Fatal("Fulfill accepted an unknown lease id")
	}
	for _, j := range indices[1:] {
		c.Fulfill(id, j, thiefRun(seed, j))
	}
	if got := fingerprint(c.Aggregate().Results); got != localAggregate(t, seed, reps) {
		t.Fatal("aggregate corrupted by duplicate completions")
	}
	if c.Stolen() != int64(len(indices)) {
		t.Fatalf("Stolen() = %d, want %d (duplicates must not count)", c.Stolen(), len(indices))
	}
}

// TestReclaimRejectsLateFulfill pins partition recovery: after Reclaim the
// slots run locally, the cell completes with the correct aggregate, and the
// original thief's late completion is discarded.
func TestReclaimRejectsLateFulfill(t *testing.T) {
	const seed, reps = 17, 8
	p := sched.New(1)
	defer p.Close()
	c, err := p.Sim(testOptions(seed), reps)
	if err != nil {
		t.Fatal(err)
	}
	id, indices := c.Lease(3)
	if len(indices) == 0 {
		t.Fatal("no slots leased")
	}
	if n := c.Reclaim(id); n != len(indices) {
		t.Fatalf("Reclaim took back %d slots, want %d", n, len(indices))
	}
	// The thief finally answers — into a revoked lease.
	for _, i := range indices {
		if c.Fulfill(id, i, thiefRun(seed, i)) {
			t.Fatal("Fulfill accepted on a reclaimed lease")
		}
	}
	if got := fingerprint(c.Aggregate().Results); got != localAggregate(t, seed, reps) {
		t.Fatal("reclaimed cell aggregate differs from fully local run")
	}
	if c.Stolen() != 0 {
		t.Fatalf("Stolen() = %d after full reclaim, want 0", c.Stolen())
	}
	// Reclaiming again (the timer racing the first reclaim) is a no-op.
	if n := c.Reclaim(id); n != 0 {
		t.Fatalf("second Reclaim took back %d slots, want 0", n)
	}
}

// TestStealVersusLocalRace drives many thieves leasing and fulfilling
// batches while local workers drain the same cells; the race detector
// checks the locking, and the aggregate must still match a local run.
func TestStealVersusLocalRace(t *testing.T) {
	const seed, reps = 19, 24
	want := localAggregate(t, seed, reps)

	p := sched.New(2)
	defer p.Close()
	c, err := p.Sim(testOptions(seed), reps)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				id, indices := c.Lease(2)
				if id == 0 {
					select {
					case <-c.Done():
						return
					default:
						continue
					}
				}
				for _, i := range indices {
					if !c.Fulfill(id, i, thiefRun(seed, i)) {
						t.Error("Fulfill rejected on an active lease")
					}
				}
			}
		}()
	}
	got := fingerprint(c.Aggregate().Results)
	wg.Wait()
	if got != want {
		t.Fatal("raced cell aggregate differs from fully local run")
	}
	if c.Ran()+c.Stolen() != int64(reps) {
		t.Fatalf("Ran()+Stolen() = %d+%d, want %d", c.Ran(), c.Stolen(), reps)
	}
}

// TestCancelRevokesLeases pins that cancellation terminates a cell with
// outstanding leases (waiters unblock) and rejects their late completions.
func TestCancelRevokesLeases(t *testing.T) {
	const seed, reps = 23, 8
	p := sched.New(1)
	defer p.Close()
	c, err := p.Sim(testOptions(seed), reps)
	if err != nil {
		t.Fatal(err)
	}
	id, indices := c.Lease(4)
	if len(indices) == 0 {
		t.Fatal("no slots leased")
	}
	c.Cancel()
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled cell with an outstanding lease never resolved")
	}
	if c.Fulfill(id, indices[0], thiefRun(seed, indices[0])) {
		t.Fatal("Fulfill accepted after cancellation revoked the lease")
	}
	// A fresh lease on a cancelled cell must claim nothing.
	if id2, idx2 := c.Lease(4); id2 != 0 || idx2 != nil {
		t.Fatalf("Lease on cancelled cell = (%d, %v), want (0, nil)", id2, idx2)
	}
}

// TestPendingCounts pins the gossip snapshot: with a saturated one-worker
// pool the cell reports pending work, and leasing reduces it.
func TestPendingCounts(t *testing.T) {
	const seed, reps = 29, 8
	p := sched.New(1)
	defer p.Close()
	c, err := p.Sim(testOptions(seed), reps)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Pending()
	if before == 0 {
		t.Skip("pool drained the queue before the snapshot; nothing to assert")
	}
	_, indices := c.Lease(3)
	after := c.Pending()
	if after > before-len(indices) {
		t.Fatalf("Pending() = %d after leasing %d of %d, want ≤ %d",
			after, len(indices), before, before-len(indices))
	}
	c.Cancel()
	<-c.Done()
}
