package eventq

import (
	"runtime/debug"
	"testing"

	"repro/internal/rng"
)

// The calendar queue is only usable if it agrees with the heap on the
// exact pop sequence — (Time, seq) order with FIFO tie-breaking — because
// the simulator's determinism contract (fixed-seed goldens, cluster
// byte-identity, wscheck TOSTs) pins event orderings, not just event
// multisets. The tests here drive both queues in lockstep over millions
// of randomized operations in several regimes and demand identical events
// from every pop.

// opMix describes one randomized lockstep regime.
type opMix struct {
	name     string
	pushBias float64                                  // probability of push when both legal
	time     func(r *rng.Source, now float64) float64 // next push time
	resetP   float64                                  // probability of a full Reset per op
}

// lockstep drives heap and calendar with an identical operation sequence
// and compares every popped event. Returns the number of pops compared.
func lockstep(t *testing.T, mix opMix, ops int, seed uint64) int {
	t.Helper()
	h := New(16)
	c := NewCalendar(16)
	r := rng.New(seed)
	now := 0.0
	pops := 0
	for i := 0; i < ops; i++ {
		if mix.resetP > 0 && r.Float64() < mix.resetP {
			h.Reset()
			c.Reset()
			now = 0
			continue
		}
		if h.Len() != c.Len() {
			t.Fatalf("op %d: Len diverged: heap %d, calendar %d", i, h.Len(), c.Len())
		}
		if h.Len() == 0 || r.Float64() < mix.pushBias {
			e := Event{
				Time:  mix.time(r, now),
				Kind:  Kind(r.Intn(8)),
				Proc:  int32(r.Intn(1 << 20)),
				Aux:   int32(r.Intn(1 << 20)),
				Epoch: uint32(r.Intn(1 << 16)),
			}
			h.Push(e)
			c.Push(e)
			continue
		}
		a, b := h.PopMin(), c.PopMin()
		if a != b {
			t.Fatalf("op %d (pop %d): heap popped %+v, calendar popped %+v", i, pops, a, b)
		}
		now = a.Time
		pops++
	}
	// Drain both completely.
	for h.Len() > 0 {
		if c.Len() == 0 {
			t.Fatalf("drain: calendar empty with %d heap events left", h.Len())
		}
		a, b := h.PopMin(), c.PopMin()
		if a != b {
			t.Fatalf("drain (pop %d): heap popped %+v, calendar popped %+v", pops, a, b)
		}
		pops++
	}
	if c.Len() != 0 {
		t.Fatalf("drain: heap empty, calendar holds %d", c.Len())
	}
	return pops
}

// TestCalendarLockstepRegimes covers the workload shapes the simulator
// produces plus adversarial ones: exponential hold times (the DES event
// stream), heavy ties (FIFO tie-break), clustered plus far-future
// outliers (retry/transfer events that break span-based width guesses),
// uniform static times, and frequent Resets (engine reuse).
func TestCalendarLockstepRegimes(t *testing.T) {
	ops := 400_000
	if testing.Short() {
		ops = 40_000
	}
	mixes := []opMix{
		{name: "exponential-hold", pushBias: 0.55,
			time: func(r *rng.Source, now float64) float64 { return now + r.Exp(1) }},
		{name: "heavy-ties", pushBias: 0.55,
			time: func(r *rng.Source, now float64) float64 { return now + float64(r.Intn(4)) }},
		{name: "all-equal", pushBias: 0.6,
			time: func(r *rng.Source, now float64) float64 { return 42 }},
		{name: "outliers", pushBias: 0.55,
			time: func(r *rng.Source, now float64) float64 {
				if r.Float64() < 0.02 {
					return now + 1e6*r.Float64Open()
				}
				return now + 0.01*r.Exp(1)
			}},
		{name: "uniform-static", pushBias: 0.5,
			time: func(r *rng.Source, now float64) float64 { return 1000 * r.Float64() }},
		{name: "tiny-gaps", pushBias: 0.55,
			time: func(r *rng.Source, now float64) float64 { return now + 1e-9*r.Exp(1) }},
		{name: "with-resets", pushBias: 0.6, resetP: 0.0005,
			time: func(r *rng.Source, now float64) float64 { return now + r.Exp(1) }},
	}
	for _, mix := range mixes {
		mix := mix
		t.Run(mix.name, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= 3; seed++ {
				pops := lockstep(t, mix, ops, seed)
				if pops < ops/4 {
					t.Fatalf("regime exercised too few pops: %d", pops)
				}
			}
		})
	}
}

// TestCalendarGrowDrainCycles pushes the population up and down across
// the resize thresholds repeatedly, so grow, shrink, and recalibration
// paths all run under lockstep comparison.
func TestCalendarGrowDrainCycles(t *testing.T) {
	h := New(0)
	c := NewCalendar(0)
	r := rng.New(99)
	now := 0.0
	for cycle := 0; cycle < 6; cycle++ {
		target := 1 << (4 + 2*(cycle%3)) // 16, 64, 256 live events
		for h.Len() < target*8 {
			e := Event{Time: now + r.Exp(1), Proc: int32(h.Len())}
			h.Push(e)
			c.Push(e)
		}
		for h.Len() > target {
			a, b := h.PopMin(), c.PopMin()
			if a != b {
				t.Fatalf("cycle %d: heap %+v calendar %+v", cycle, a, b)
			}
			now = a.Time
		}
	}
	for h.Len() > 0 {
		a, b := h.PopMin(), c.PopMin()
		if a != b {
			t.Fatalf("final drain: heap %+v calendar %+v", a, b)
		}
	}
}

// TestCalendarResetWarmIdentity pins the reuse contract: a drained,
// Reset calendar (which retains its calibrated width and bucket sizes)
// must pop a fresh workload in exactly the order a cold calendar does.
func TestCalendarResetWarmIdentity(t *testing.T) {
	warm := NewCalendar(16)
	r := rng.New(7)
	now := 0.0
	for i := 0; i < 10_000; i++ {
		if warm.Len() == 0 || r.Float64() < 0.55 {
			warm.Push(Event{Time: now + r.Exp(1)})
		} else {
			now = warm.PopMin().Time
		}
	}
	warm.Reset()

	cold := NewCalendar(16)
	r2 := rng.New(8)
	now = 0
	for i := 0; i < 20_000; i++ {
		if cold.Len() == 0 || r2.Float64() < 0.5 {
			e := Event{Time: now + r2.Exp(1), Proc: int32(i)}
			warm.Push(e)
			cold.Push(e)
		} else {
			a, b := warm.PopMin(), cold.PopMin()
			if a != b {
				t.Fatalf("op %d: warm %+v cold %+v", i, a, b)
			}
			now = a.Time
		}
	}
}

// TestCalendarPeek checks Peek against the heap oracle without disturbing
// the pop sequence.
func TestCalendarPeek(t *testing.T) {
	h := New(4)
	c := NewCalendar(4)
	r := rng.New(3)
	now := 0.0
	for i := 0; i < 5_000; i++ {
		if h.Len() == 0 || r.Float64() < 0.55 {
			e := Event{Time: now + r.Exp(1), Proc: int32(i)}
			h.Push(e)
			c.Push(e)
			continue
		}
		if p, want := c.Peek(), h.Peek(); p != want {
			t.Fatalf("op %d: Peek: calendar %+v heap %+v", i, p, want)
		}
		a, b := h.PopMin(), c.PopMin()
		if a != b {
			t.Fatalf("op %d: heap %+v calendar %+v", i, a, b)
		}
		now = a.Time
	}
}

// TestCalendarEmptyPanics matches the heap's contract on empty queues.
func TestCalendarEmptyPanics(t *testing.T) {
	c := NewCalendar(1)
	for _, f := range []func(){func() { c.PopMin() }, func() { c.Peek() }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on empty calendar queue")
				}
			}()
			f()
		}()
	}
}

// TestCalendarSteadyStateAllocs pins the calendar's zero-alloc hot path:
// once bucket capacities are learned, a hold-model push/pop cycle must
// not allocate. This is the eventq half of the engine's steady-state
// alloc gate.
func TestCalendarSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement under -short")
	}
	c := NewCalendar(1024)
	r := rng.New(1)
	now := 0.0
	for i := 0; i < 1024; i++ {
		c.Push(Event{Time: now + r.Exp(1)})
	}
	// Warm: run the hold model long enough to stabilize calibration and
	// bucket capacities.
	for i := 0; i < 100_000; i++ {
		e := c.PopMin()
		now = e.Time
		e.Time = now + r.Exp(1)
		c.Push(e)
	}
	avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < 10_000; i++ {
			e := c.PopMin()
			e.Time += r.Exp(1)
			c.Push(e)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state hold model allocated %.2f allocs per 10k events, want 0", avg)
	}
}

// BenchmarkCalendarPushPop is the hold model on the calendar queue,
// directly comparable to BenchmarkPushPop on the heap.
func BenchmarkCalendarPushPop(b *testing.B) {
	c := NewCalendar(1024)
	r := rng.New(1)
	for i := 0; i < 1024; i++ {
		c.Push(Event{Time: r.Float64()})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := c.PopMin()
		e.Time += r.Exp(1)
		c.Push(e)
	}
}

// TestCalendarArenaReuse drives one calendar through alternating event
// populations, 16 → 128 → 16 → 128 pending events, each held long enough
// to recalibrate the bucket count. After the first growth to 128 events
// every resize must re-slice the kept bucket arena, never allocate one.
func TestCalendarArenaReuse(t *testing.T) {
	c := NewCalendar(16)
	r := rng.New(1)
	now := 0.0
	hold := func(n int) int {
		for c.Len() < n {
			c.Push(Event{Time: now + r.Exp(1)})
		}
		for c.Len() > n {
			now = c.PopMin().Time
		}
		for i := 0; i < 20_000; i++ {
			e := c.PopMin()
			now = e.Time
			e.Time = now + r.Exp(1)
			c.Push(e)
		}
		return len(c.b)
	}
	small, large := hold(16), hold(128)
	if small >= large {
		t.Fatalf("bucket count %d at 16 events, %d at 128: the populations did not resize the calendar", small, large)
	}
	arena := &c.arena[0]
	for _, n := range []int{16, 128, 16, 128} {
		want := map[int]int{16: small, 128: large}[n]
		if nb := hold(n); nb != want {
			t.Fatalf("%d events: %d buckets, want %d", n, nb, want)
		}
		if &c.arena[0] != arena {
			t.Fatalf("%d events: the calendar allocated a new bucket arena", n)
		}
	}
	// Warmed, the whole population cycle allocates nothing. Each jump to
	// 128 events overflows a few arena slots before the bucket count
	// catches up; the grown arrays are kept as spares for the next jump.
	cycle := func() {
		for _, n := range []int{16, 128, 16, 128} {
			hold(n)
		}
	}
	// AllocsPerRun counts every malloc in the process, so runtime work
	// driven by the collector can land in its window: an allocation
	// profile shows the background scavenger growing the timer heap of
	// the one P AllocsPerRun leaves, and mark termination taking a sudog.
	// Turning the collector off waits out any cycle in flight, and no
	// cycle starts or ends inside the window, so only the calendar's own
	// allocations are counted.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(3, cycle); allocs != 0 {
		t.Fatalf("warmed 16 → 128 → 16 → 128 cycle: %v allocations, want 0", allocs)
	}
}
