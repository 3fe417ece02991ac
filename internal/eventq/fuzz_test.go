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
