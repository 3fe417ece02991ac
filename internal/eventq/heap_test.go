package eventq

// Queue is the ordering oracle of the package tests: a plain 4-ary
// min-heap of Events ordered by (Time, seq). The lockstep, property, and
// fuzz tests drive it side by side with the calendar queue and demand the
// same pop sequence. The zero value is an empty queue ready for use.
type Queue struct {
	a   []Event
	seq uint64
}

// New returns a queue with capacity pre-allocated for n events.
func New(n int) *Queue {
	return &Queue{a: make([]Event, 0, n)}
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.a) }

// Cap returns the current backing capacity. Reset retains it, which is what
// lets a reused engine replay a run without re-growing its event list.
func (q *Queue) Cap() int { return cap(q.a) }

// Push inserts an event. The sequence number is assigned internally.
func (q *Queue) Push(e Event) {
	e.seq = q.seq
	q.seq++
	q.a = append(q.a, e)
	q.siftUp(len(q.a) - 1)
}

// PopMin removes and returns the earliest event. It panics if the queue is
// empty; callers check Len first.
func (q *Queue) PopMin() Event {
	if len(q.a) == 0 {
		panic("eventq: PopMin on empty queue")
	}
	top := q.a[0]
	last := len(q.a) - 1
	q.a[0] = q.a[last]
	q.a = q.a[:last]
	if last > 0 {
		q.siftDown(0)
	}
	return top
}

// Peek returns the earliest event without removing it. It panics if empty.
func (q *Queue) Peek() Event {
	if len(q.a) == 0 {
		panic("eventq: Peek on empty queue")
	}
	return q.a[0]
}

// Reset empties the queue, retaining capacity.
func (q *Queue) Reset() {
	q.a = q.a[:0]
	q.seq = 0
}

// less orders events by time, then insertion sequence.
func (q *Queue) less(i, j int) bool {
	if q.a[i].Time != q.a[j].Time {
		return q.a[i].Time < q.a[j].Time
	}
	return q.a[i].seq < q.a[j].seq
}

func (q *Queue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 4
		if !q.less(i, parent) {
			return
		}
		q.a[i], q.a[parent] = q.a[parent], q.a[i]
		i = parent
	}
}

func (q *Queue) siftDown(i int) {
	n := len(q.a)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q.less(c, min) {
				min = c
			}
		}
		if !q.less(min, i) {
			return
		}
		q.a[i], q.a[min] = q.a[min], q.a[i]
		i = min
	}
}
