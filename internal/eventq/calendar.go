package eventq

import "math"

// Calendar is a calendar queue (Brown 1988): a power-of-two array of
// "day" buckets, each covering one width-sized window of simulated time.
// An event at time t lives in bucket ⌊t/width⌋ mod nbuckets; draining
// advances day by day, wrapping around the array once per "year" of
// nbuckets·width simulated time.
//
// This implementation keeps the buckets *unsorted* and maintains a small
// sorted buffer, today, holding the pending events of the day currently
// being drained. Push is then a bare append for any future day (no
// back-scan, no shifting), and PopMin is an index increment into today —
// the per-operation sorting cost of the textbook sorted-bucket variant
// collapses into one insertion sort per day over the O(1) events that
// share it. Only a push landing on the current day pays a sorted insert
// into today, which is exactly the event that must interleave with the
// in-progress drain.
//
// With the bucket width matched to the typical gap between pending event
// times — which the simulator's merged exponential streams keep
// near-uniform — each bucket holds O(1) events and Push, PopMin, and Peek
// are O(1) amortized, versus a heap's O(log n). The width and bucket
// count are recalibrated adaptively (see recalibrate) from the live event
// population, so no workload knowledge is required up front.
//
// The pop order is exactly the heap's: globally minimal (Time, seq), FIFO
// on equal timestamps. Bucketing and calibration only move events between
// buckets; the day-membership check on both the push and drain sides is
// the same ⌊t·inv⌋ arithmetic, so no calibration state can reorder two
// events. The zero value is not ready for use; call NewCalendar.
type Calendar struct {
	today []Event // pending events of day `day`, sorted by (Time, seq)
	cur   int     // next index of today to pop
	b     [][]Event
	mask  int64   // len(b) - 1
	inv   float64 // 1 / width: day index of time t is ⌊t·inv⌋
	day   int64   // unmasked index of the day being drained
	n     int     // events in buckets; Len() adds today's live remainder
	seq   uint64  // tie-break counter, assigned on Push

	// work accumulates the operation costs a well-calibrated calendar
	// would not pay: sorted-insert shifts in today beyond a small slack,
	// empty-day scans beyond a small slack, drain-time scans over events
	// that stay behind (future years piling into one bucket), and appends
	// into an overcrowded bucket. Crossing the budget in workBudget
	// triggers recalibration, which resets it — so a queue whose width has
	// gone stale (or started uncalibrated) self-heals in O(n) amortized
	// against the work that exposed the staleness.
	work int

	spill []Event   // resize/calibration scratch, retained across runs
	arena []Event   // bucket storage, the largest carved so far (see setBuckets)
	spare [][]Event // empty arrays of buckets that outgrew their slot (see refill)
}

const (
	calMinBuckets = 16
	calMaxBuckets = 1 << 20

	// calMaxDay bounds ⌊t·inv⌋ before the int64 conversion; times mapping
	// beyond it share the last representable day, which costs performance
	// (they pile into one bucket) but never correctness (the drain filter
	// uses the same clamp, and today is sorted regardless).
	calMaxDay = float64(int64(1) << 62)

	// calWidthMin and calWidthMax clamp the calibrated width.
	calWidthMin = 1e-12
	calWidthMax = 1e12

	// Buckets are carved out of one contiguous arena with calBucketCap
	// capacity each (three-index slices, so an overfull bucket copies out
	// on append instead of clobbering its neighbor). Calibration targets
	// ~1 event per bucket, but occupancy near the current day is Poisson
	// with a fat aliasing tail and occasionally reaches 9+; capacity 16
	// keeps those excursions from ever crossing an append growth boundary,
	// which is what makes the steady-state hot path allocation-free rather
	// than merely allocation-rare. Above calPresizeMax buckets the arena
	// (nb·16·32 B) stops being worth the footprint and buckets start empty.
	calBucketCap  = 16
	calPresizeMax = 1 << 14

	// calTodayCap pre-sizes the today buffer; a calibrated day holds O(1)
	// events, and the buffer is retained (and regrown at most once) across
	// days, Resets, and recalibrations.
	calTodayCap = 64
)

// setBuckets replaces the buckets, which must be empty, with nb empty
// ones. Up to calPresizeMax buckets it re-slices the bucket array and the
// arena it keeps, allocating only when nb exceeds every size carved so
// far, so an engine recycled across cells of different n stops allocating
// once it has seen the largest.
func (q *Calendar) setBuckets(nb int) {
	for _, b := range q.b {
		if cap(b) > calBucketCap {
			q.spare = append(q.spare, b[:0])
		}
	}
	q.mask = int64(nb - 1)
	if nb > calPresizeMax {
		q.b = make([][]Event, nb)
		return
	}
	if cap(q.b) < nb {
		q.b = make([][]Event, nb)
	}
	q.b = q.b[:nb]
	if len(q.arena) < nb*calBucketCap {
		q.arena = make([]Event, nb*calBucketCap)
	}
	for i := range q.b {
		q.b[i] = q.arena[i*calBucketCap : i*calBucketCap : (i+1)*calBucketCap]
	}
}

// NewCalendar returns a calendar queue pre-sized for about n pending
// events. The width starts at 1 and is recalibrated from the live events
// as soon as that guess proves wrong.
func NewCalendar(n int) *Calendar {
	nb := calMinBuckets
	for nb < n && nb < calMaxBuckets {
		nb <<= 1
	}
	q := &Calendar{inv: 1, today: make([]Event, 0, calTodayCap)}
	q.setBuckets(nb)
	return q
}

// Len returns the number of pending events. Keeping today's live
// remainder out of n is what makes PopMin's fast path three statements —
// small enough to inline into the simulator's event loop.
func (q *Calendar) Len() int { return q.n + len(q.today) - q.cur }

// dayOf maps a time to its unmasked day index.
func (q *Calendar) dayOf(t float64) int64 {
	f := t * q.inv
	if f >= calMaxDay {
		return int64(1) << 62
	}
	return int64(f) // toward zero; event times are non-negative in practice
}

// Push inserts an event. The tie-break sequence number is assigned
// internally, so simultaneous events pop in push order.
func (q *Calendar) Push(e Event) {
	q.Reserve(&e)
	d := q.dayOf(e.Time)
	if d > q.day && q.n+len(q.today)-q.cur > 0 {
		// The common case: a future day. Unsorted append; ordering is
		// established when the day is drained.
		bi := int(d & q.mask)
		b := q.b[bi]
		if len(b) == cap(b) {
			b = q.refill(b)
		}
		b = append(b, e)
		q.b[bi] = b
		if len(b) > 8 {
			// An overcrowded bucket is invisible to the drain until it is
			// reached, so charge its congestion here, proportionally: n
			// events piling into one bucket accumulate ~n²/16 work and
			// trip the budget long before the O(n²) drain sort could.
			q.work += len(b) >> 3
		}
		q.n++
	} else {
		q.pushNear(d, e)
	}
	if (q.n > 2*len(q.b) && len(q.b) < calMaxBuckets) || q.work > q.workBudget() {
		q.recalibrate()
	}
}

// Reserve stamps *e with the tie-break number Push would assign it now,
// and consumes that number, without inserting e. An event kept outside
// the calendar under its reservation orders against the calendar's events
// (by Before, against Peek) exactly as if it had been pushed at the
// moment of the reservation. Stamping in place, rather than returning a
// stamped copy, keeps the caller's event where it lives: a copy out of a
// temporary whose fields were just written piecewise stalls the store
// buffer on every call.
func (q *Calendar) Reserve(e *Event) {
	e.seq = q.seq
	q.seq++
}

// pushNear handles the pushes that interact with the drain state: the
// first event of a (re)filled queue, an event on the day currently being
// drained, and an event behind the current day (never from the simulator,
// whose pushes are ≥ now — only from generic clients and the fuzzer).
func (q *Calendar) pushNear(d int64, e Event) {
	if q.n+len(q.today)-q.cur == 0 {
		q.day = d
		q.today = append(q.today[:0], e)
		q.cur = 0
		return
	}
	if d < q.day {
		// Rewind: return today's remainder to its bucket, restart the
		// drain at the earlier day, and fall through to the sorted insert.
		bi := int(q.day & q.mask)
		q.b[bi] = append(q.b[bi], q.today[q.cur:]...)
		q.n += len(q.today) - q.cur
		q.today = q.today[:0]
		q.cur = 0
		q.day = d
		q.extractDay(d)
	}
	// d == q.day: the event joins the in-progress drain at its sorted
	// position. The scan runs from the back (simulator pushes are
	// overwhelmingly the latest time in the day) and never crosses cur —
	// everything before cur already popped, so a client pushing a time
	// earlier than any pending event lands exactly at the drain cursor.
	t := q.today
	j := len(t)
	for j > q.cur {
		if t[j-1].Before(&e) {
			break
		}
		j--
	}
	if steps := len(t) - j; steps > 2 {
		q.work += steps - 2
	}
	t = append(t, Event{})
	copy(t[j+1:], t[j:])
	t[j] = e
	q.today = t
}

// refill returns the events of the full bucket b in a spare array with
// room for more, and keeps b's own array as a spare unless it is an arena
// slot. With no spare large enough it returns b, and the caller's append
// grows it. Buckets overflow their arena slots in population jumps, while
// the bucket count lags the population; setBuckets keeps the grown
// arrays, so a calendar cycling between populations it has seen stops
// allocating.
func (q *Calendar) refill(b []Event) []Event {
	for i := len(q.spare) - 1; i >= 0; i-- {
		s := q.spare[i]
		if cap(s) <= len(b) {
			continue
		}
		q.spare[i] = q.spare[len(q.spare)-1]
		q.spare = q.spare[:len(q.spare)-1]
		if cap(b) > calBucketCap {
			q.spare = append(q.spare, b[:0])
		}
		return append(s, b...)
	}
	return b
}

// workBudget is the amortization budget for excess work between
// recalibrations; see the work field.
func (q *Calendar) workBudget() int { return 4*q.n + 64 }

// PopMin removes and returns the earliest event. It panics if the queue
// is empty. The fast path — the current day still has events — is an
// index increment, small enough to inline into the caller's event loop.
func (q *Calendar) PopMin() Event {
	if q.cur == len(q.today) {
		q.advance() // leaves the refilled today at cursor 0
	}
	q.cur++
	return q.today[q.cur-1]
}

// Peek returns the earliest event without removing it. It panics if the
// queue is empty. (It may advance the internal drain state to the next
// non-empty day, which is invisible to callers.)
func (q *Calendar) Peek() Event {
	if q.cur >= len(q.today) {
		q.advance()
	}
	return q.today[q.cur]
}

// advance refills today with the next non-empty day's events, sorted.
// Called only when today is exhausted (cur == len(today), so n alone is
// the pending count); panics if the queue is empty.
func (q *Calendar) advance() {
	if q.n == 0 {
		panic("eventq: PopMin on empty queue")
	}
	if (q.n < len(q.b)/4 && len(q.b) > calMinBuckets) || q.work > q.workBudget() {
		q.recalibrate()
		if q.cur < len(q.today) {
			return // the rebuild restarted the drain at the minimum day
		}
	}
	q.today = q.today[:0]
	q.cur = 0
	d := q.day + 1
	adv := 0
	for q.extractDay(d) == 0 {
		d++
		adv++
		if adv > len(q.b) {
			// A full year without an event: the population is sparse on
			// this width. Locate the minimum directly rather than looping
			// over more empty years.
			q.work += adv
			q.directMin()
			return
		}
	}
	if adv > 2 {
		q.work += adv - 2
	}
	q.day = d
}

// extractDay moves the events of day d from d's bucket into today,
// keeping later years' events behind, and sorts what it moved. It
// returns the number of events moved. today must hold only live events
// of a single drain (callers reset it before a new day).
func (q *Calendar) extractDay(d int64) int {
	bi := int(d & q.mask)
	b := q.b[bi]
	if len(b) == 0 {
		return 0
	}
	keep := b[:0]
	moved := 0
	for i := range b {
		if q.dayOf(b[i].Time) <= d {
			q.today = append(q.today, b[i])
			moved++
		} else {
			keep = append(keep, b[i])
		}
	}
	q.b[bi] = keep
	q.n -= moved
	if len(keep) > 2 {
		// Future-year events rescanned on every lap of the calendar are a
		// sign the width is too fine for the population's spread.
		q.work += len(keep) - 2
	}
	if moved > 1 {
		sortEvents(q.today[len(q.today)-moved:])
	}
	return moved
}

// directMin jumps the drain to the day of the globally minimal event by
// scanning every pending event. O(n + nbuckets), reached only when a
// whole year is empty.
func (q *Calendar) directMin() {
	first := true
	var bt float64
	for i := range q.b {
		b := q.b[i]
		for j := range b {
			if first || b[j].Time < bt {
				bt = b[j].Time
				first = false
			}
		}
	}
	d := q.dayOf(bt)
	q.extractDay(d)
	q.day = d
}

// Reset empties the queue, retaining bucket capacity and the calibrated
// width, and restarts the tie-break counter — a recycled queue pops in
// exactly the order a fresh one would.
func (q *Calendar) Reset() {
	for i := range q.b {
		q.b[i] = q.b[i][:0]
	}
	q.today = q.today[:0]
	q.cur = 0
	q.n = 0
	q.seq = 0
	q.day = 0
	q.work = 0
}

// recalibrate re-fits the calendar to the live event population: one
// bucket per pending event (within bounds) and a width estimated from a
// sorted sample of pending times, targeting about one event per bucket.
//
// The estimate runs first, and if the current geometry already matches --
// same bucket count, width within a factor of three -- the rebuild is
// skipped entirely: the excess work that tripped the budget was inherent
// (Poisson occupancy tails, year aliasing of rare far-future events), and
// moving events between buckets cannot reduce it. Skipping is what keeps
// a calibrated queue's hot path free of even amortized allocations: in
// steady state no event is ever copied and no bucket ever regrows.
func (q *Calendar) recalibrate() {
	q.work = 0
	live := q.n + len(q.today) - q.cur
	nb := calMinBuckets
	for nb < live && nb < calMaxBuckets {
		nb <<= 1
	}
	w := q.estimateWidth()
	cur := 1 / q.inv
	if nb == len(q.b) && (w == 0 || (w > cur/3 && w < 3*cur)) {
		// Hysteresis: a width within 3x of calibrated is close enough that
		// rebuilding would buy nothing, and estimates jitter run to run --
		// a tighter band would let a queue sitting near the boundary
		// oscillate between rebuilds forever.
		return
	}

	sp := q.spill[:0]
	for i := range q.b {
		sp = append(sp, q.b[i]...)
		q.b[i] = q.b[i][:0]
	}
	sp = append(sp, q.today[q.cur:]...)
	q.spill = sp
	q.today = q.today[:0]
	q.cur = 0
	q.n = 0
	if nb != len(q.b) {
		q.setBuckets(nb)
	}
	if w > 0 {
		q.inv = 1 / w
	}
	if len(sp) == 0 {
		return
	}
	minT := sp[0].Time
	for i := 1; i < len(sp); i++ {
		if sp[i].Time < minT {
			minT = sp[i].Time
		}
	}
	// Redistribution order is immaterial: seq numbers were assigned at the
	// original Push, and the drain sorts by (Time, seq).
	for _, e := range sp {
		bi := int(q.dayOf(e.Time) & q.mask)
		b := q.b[bi]
		if len(b) == cap(b) {
			b = q.refill(b)
		}
		q.b[bi] = append(b, e)
	}
	q.n = len(sp)
	q.day = q.dayOf(minT)
	q.extractDay(q.day) // restart the drain, today sorted again
	// Redistribution into fresh buckets counts congestion of its own; that
	// cost is the rebuild's, not evidence of a stale width.
	q.work = 0
}

// estimateWidth returns the calibrated bucket width for the pending
// population, or 0 if there is too little to learn from. It samples up
// to 64 pending times (strided across the whole population, so single
// overfull buckets and spread-out ones are measured alike) and derives
// the width from the median adjacent gap of the sorted sample: for k
// samples spanning a dense region S the median gap g is about ln2*S/k,
// so width g*k/n puts ~0.7*S/n per bucket -- about 1.4 events per bucket
// once nbuckets is near n. The median makes the estimate robust to a few
// far-future outliers (a retry or transfer landing long after the dense
// near-term window), which would wreck a max-min span estimate.
func (q *Calendar) estimateWidth() float64 {
	live := q.n + len(q.today) - q.cur
	if live < 2 {
		return 0
	}
	var buf [64]float64
	k := 0
	stride := live/len(buf) + 1
	cnt := 0
	for bi := -1; bi < len(q.b) && k < len(buf); bi++ {
		// Pass -1 walks the live remainder of today; the rest walks the
		// buckets. Sortedness is irrelevant — the sample is sorted below.
		var b []Event
		if bi < 0 {
			b = q.today[q.cur:]
		} else {
			b = q.b[bi]
		}
		for j := range b {
			if cnt%stride == 0 {
				buf[k] = b[j].Time
				k++
				if k == len(buf) {
					break
				}
			}
			cnt++
		}
	}
	if k < 2 {
		return 0
	}
	s := buf[:k]
	insertionSort(s)
	var gaps [63]float64
	g := gaps[:k-1]
	for i := 0; i < k-1; i++ {
		g[i] = s[i+1] - s[i]
	}
	insertionSort(g)
	m := g[(k-1)/2]
	if m <= 0 {
		// Over half the sampled gaps are ties; fall back to the mean gap.
		m = (s[k-1] - s[0]) / float64(k-1)
	}
	if m <= 0 {
		return 0 // all sampled times equal; nothing to calibrate against
	}
	w := m * float64(k) / float64(live)
	if math.IsNaN(w) || w < calWidthMin {
		w = calWidthMin
	} else if w > calWidthMax {
		w = calWidthMax
	}
	return w
}

// sortEvents sorts a small Event slice in place by (Time, seq). Insertion
// sort: a drained day holds O(1) events when calibrated, and an all-ties
// bucket arrives already in seq order, which is the sorted order.
func sortEvents(a []Event) {
	for i := 1; i < len(a); i++ {
		e := a[i]
		j := i - 1
		for j >= 0 && e.Before(&a[j]) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = e
	}
}

// insertionSort sorts a small float64 slice in place (k ≤ 64; avoids the
// sort package's interface and allocation overhead on the rebuild path).
func insertionSort(a []float64) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
