package eventq

import "testing"

// FuzzEventQueue interprets the input as an operation stream and drives
// the heap oracle and the calendar queue in lockstep: every pop (and the
// final full drain) must return identical events from both queues, ties
// included. Each operation consumes three bytes: an opcode and a 16-bit
// quantized timestamp — quantization to 1/8 time units makes equal
// timestamps common, so the FIFO tie-break is exercised constantly, and
// an occasional ×1024 stretch plants the far-future outliers that stress
// bucket-width calibration.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0}) // ties at t=0
	seed := make([]byte, 0, 600)
	for i := 0; i < 200; i++ { // pseudo-random mixed workload
		x := byte(i*37 + i*i*11)
		seed = append(seed, x, byte(i*73), byte(i*29+5))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		h := New(0)
		c := NewCalendar(0)
		pop := func(ctx string) {
			a, b := h.PopMin(), c.PopMin()
			if a != b {
				t.Fatalf("%s: heap popped %+v, calendar popped %+v", ctx, a, b)
			}
		}
		for i := 0; i+2 < len(data); i += 3 {
			op := data[i]
			raw := uint16(data[i+1])<<8 | uint16(data[i+2])
			tm := float64(raw) / 8
			if op&0x70 == 0x70 {
				tm *= 1024 // far-future outlier
			}
			switch {
			case op == 0xFF:
				h.Reset()
				c.Reset()
			case op%3 != 0 || h.Len() == 0:
				e := Event{Time: tm, Kind: Kind(op), Proc: int32(raw), Aux: int32(op) - 3, Epoch: uint32(raw) * 7}
				h.Push(e)
				c.Push(e)
			default:
				if p, want := c.Peek(), h.Peek(); p != want {
					t.Fatalf("op %d: Peek: calendar %+v, heap %+v", i, p, want)
				}
				pop("pop")
			}
			if h.Len() != c.Len() {
				t.Fatalf("op %d: Len diverged: heap %d, calendar %d", i, h.Len(), c.Len())
			}
		}
		for h.Len() > 0 {
			pop("drain")
		}
		if c.Len() != 0 {
			t.Fatalf("calendar holds %d events after heap drained", c.Len())
		}
	})
}

// FuzzReservedLane drives a calendar plus a one-slot lane of reserved
// events — the shape of the simulator's arrival lane — in lockstep with
// the heap oracle, which receives every event as a plain push. An event
// sent to the lane takes its tie-break number through Reserve and waits
// outside the calendar; each pop takes the lane's event when it is Before
// the calendar's Peek (or the calendar is empty), else the calendar's
// PopMin. The merged pops must equal the oracle's, ties included. The
// operation encoding is FuzzEventQueue's; opcodes with bit 0x08 set go to
// the lane while it is free.
func FuzzReservedLane(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 0, 0, 0, 0, 0, 8, 0, 0, 3, 0, 0, 3, 0, 0}) // lane and calendar ties at t=0
	seed := make([]byte, 0, 600)
	for i := 0; i < 200; i++ {
		x := byte(i*41 + i*i*13)
		seed = append(seed, x, byte(i*67), byte(i*31+9))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		h := New(0)
		c := NewCalendar(0)
		var lane Event
		laneFull := false
		pop := func(ctx string) {
			var got Event
			if c.Len() == 0 {
				got, laneFull = lane, false
			} else if got = c.Peek(); !laneFull || got.Before(&lane) {
				c.PopMin()
			} else {
				got, laneFull = lane, false
			}
			if want := h.PopMin(); got != want {
				t.Fatalf("%s: heap popped %+v, calendar and lane popped %+v", ctx, want, got)
			}
		}
		for i := 0; i+2 < len(data); i += 3 {
			op := data[i]
			raw := uint16(data[i+1])<<8 | uint16(data[i+2])
			tm := float64(raw) / 8
			if op&0x70 == 0x70 {
				tm *= 1024 // far-future outlier
			}
			switch {
			case op == 0xFF:
				h.Reset()
				c.Reset()
				laneFull = false
			case op%3 != 0 || h.Len() == 0:
				e := Event{Time: tm, Kind: Kind(op), Proc: int32(raw), Aux: int32(op) - 3, Epoch: uint32(raw) * 7}
				h.Push(e)
				if op&0x08 != 0 && !laneFull {
					lane, laneFull = e, true
					c.Reserve(&lane)
				} else {
					c.Push(e)
				}
			default:
				pop("pop")
			}
			n := c.Len()
			if laneFull {
				n++
			}
			if h.Len() != n {
				t.Fatalf("op %d: Len diverged: heap %d, calendar and lane %d", i, h.Len(), n)
			}
		}
		for h.Len() > 0 {
			pop("drain")
		}
		if c.Len() != 0 || laneFull {
			t.Fatalf("calendar holds %d events (lane full: %v) after heap drained", c.Len(), laneFull)
		}
	})
}
