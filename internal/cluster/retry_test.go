package cluster

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestBackoffSchedule pins the exact delay schedule with injected sleep
// and jitter hooks: min(backoffCap, Base·2^k) scaled by
// 1 + backoffJitter·(2u − 1).
func TestBackoffSchedule(t *testing.T) {
	var delays []time.Duration
	b := Backoff{
		Base:     300 * time.Millisecond,
		Attempts: 5,
		Sleep:    func(d time.Duration) { delays = append(delays, d) },
		Rand:     func() float64 { return 0.75 },
	}
	calls := 0
	errFail := errors.New("boom")
	err := b.Do(context.Background(), func(context.Context) error {
		calls++
		return errFail
	})
	if !errors.Is(err, errFail) {
		t.Fatalf("Do = %v, want the last failure", err)
	}
	if calls != 5 {
		t.Fatalf("fn ran %d times, want 5", calls)
	}
	jitter := 1 + backoffJitter*0.5 // u = 0.75
	var want []time.Duration
	for _, d := range []time.Duration{
		300 * time.Millisecond,
		600 * time.Millisecond,
		1200 * time.Millisecond,
		backoffCap, // 2400ms, capped
	} {
		want = append(want, time.Duration(float64(d)*jitter))
	}
	if backoffCap >= 2400*time.Millisecond {
		t.Fatalf("backoffCap %v no longer caps the fourth delay", backoffCap)
	}
	if len(delays) != len(want) {
		t.Fatalf("delays = %v, want %v", delays, want)
	}
	for i := range want {
		if delays[i] != want[i] {
			t.Fatalf("delays = %v, want %v", delays, want)
		}
	}
}

// TestBackoffCapAndJitterRange pins that delays stay within
// Base·(1−backoffJitter) and backoffCap·(1+backoffJitter), that large k
// reaches the cap, and that the exponent cannot overflow into a negative
// shift.
func TestBackoffCapAndJitterRange(t *testing.T) {
	b := Backoff{Base: time.Millisecond}.WithDefaults()
	lo := time.Duration(float64(time.Millisecond) * (1 - backoffJitter))
	hi := time.Duration(float64(backoffCap) * (1 + backoffJitter))
	for k := 0; k < 80; k++ {
		for _, u := range []float64{0, 0.5, 0.999} {
			if d := b.delay(k, u); d < lo || d > hi {
				t.Fatalf("delay(%d, %v) = %v outside [%v, %v]", k, u, d, lo, hi)
			}
		}
	}
	if d := b.delay(79, 0.5); d != backoffCap {
		t.Fatalf("delay(79, 0.5) = %v, want the cap %v", d, backoffCap)
	}
}

// TestBackoffStopsOnSuccess pins that a success ends the loop immediately.
func TestBackoffStopsOnSuccess(t *testing.T) {
	var delays []time.Duration
	b := Backoff{
		Base: 10 * time.Millisecond, Attempts: 5,
		Sleep: func(d time.Duration) { delays = append(delays, d) },
		Rand:  func() float64 { return 0.5 },
	}
	calls := 0
	err := b.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do = %v, want nil", err)
	}
	if calls != 3 || len(delays) != 2 {
		t.Fatalf("calls = %d, delays = %d, want 3 and 2", calls, len(delays))
	}
}

// TestBackoffHonorsDeadline pins deadline propagation: when the context
// cannot cover the next delay, Do gives up without sleeping.
func TestBackoffHonorsDeadline(t *testing.T) {
	slept := 0
	b := Backoff{
		Base: 500 * time.Millisecond, Attempts: 5,
		Sleep: func(time.Duration) { slept++ },
		Rand:  func() float64 { return 0.5 },
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	calls := 0
	errFail := errors.New("boom")
	err := b.Do(ctx, func(context.Context) error { calls++; return errFail })
	if !errors.Is(err, errFail) {
		t.Fatalf("Do = %v, want the failure", err)
	}
	if calls != 1 || slept != 0 {
		t.Fatalf("calls = %d, sleeps = %d; want 1 attempt and no sleep past the deadline", calls, slept)
	}
}

// TestBackoffDeadContext pins that an already-cancelled context stops the
// loop before fn runs again.
func TestBackoffDeadContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := Backoff{Attempts: 3, Sleep: func(time.Duration) {}}.Do(ctx,
		func(context.Context) error { calls++; return errors.New("x") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Fatalf("fn ran %d times on a dead context, want 0", calls)
	}
}
