// Package eventq implements the future event list of the discrete-event
// simulator: an adaptive calendar queue of timestamped events (Calendar).
//
// Events pop in (Time, seq) order, where seq is an internal insertion
// counter, so simultaneous events fire in push order (FIFO tie-break) and
// runs are fully deterministic. That tie-break is part of the simulator's
// determinism contract: fixed-seed goldens, cluster stolen-replication
// byte-identity, and the wscheck TOST suites all pin exact event
// orderings. The package tests hold the calendar to it against a 4-ary
// min-heap oracle that lives only in the tests.
//
// Event times must be finite; they are typically non-negative and
// non-decreasing in simulation use, but the queue orders arbitrary finite
// times correctly. Cancellation uses epoch counters checked by the caller
// on dequeue (lazy invalidation) rather than in-queue deletion; the queue
// itself only needs Push and PopMin.
//
// A client may also keep some of its events beside the calendar: Reserve
// stamps an event with the tie-break number a Push at that moment would
// have assigned, without inserting it, and Before compares two stamped
// events in pop order. Merging such events with Peek by Before pops every
// event exactly where one calendar holding all of them would.
package eventq

// Kind identifies the type of a simulator event. The simulator defines the
// meaning of each value; the queue treats it as opaque.
type Kind uint8

// Event is one entry in the future event list.
type Event struct {
	Time  float64 // simulated firing time
	seq   uint64  // insertion order, breaks ties deterministically
	Kind  Kind    // event type tag (opaque to the queue)
	Proc  int32   // processor index the event applies to
	Aux   int32   // second processor / parameter, event-specific
	Epoch uint32  // validity epoch for lazy cancellation
}

// Before reports whether e pops before f: the earlier time, or on equal
// times the smaller tie-break number.
func (e *Event) Before(f *Event) bool {
	return e.Time < f.Time || (e.Time == f.Time && e.seq < f.seq)
}
