package retry

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestScheduleDeterministicPerSeed pins that the delay sequence is a
// pure function of the policy: two schedules agree delay-for-delay, and
// Reset replays the identical sequence.
func TestScheduleDeterministicPerSeed(t *testing.T) {
	pol := Policy{Initial: 10 * time.Millisecond, Max: time.Second}
	a, b := New(pol), New(pol)
	var first []time.Duration
	for i := 0; i < 12; i++ {
		da, db := a.Next(), b.Next()
		if da != db {
			t.Fatalf("attempt %d: schedules diverge: %v vs %v", i, da, db)
		}
		first = append(first, da)
	}
	a.Reset()
	for i, want := range first {
		if got := a.Next(); got != want {
			t.Fatalf("after Reset, attempt %d = %v, want %v", i, got, want)
		}
	}
}

// TestScheduleNoJitterExact pins the exact delay sequence: the
// arithmetic itself.
func TestScheduleNoJitterExact(t *testing.T) {
	s := New(Policy{Initial: 5 * time.Millisecond, Max: 40 * time.Millisecond})
	want := []time.Duration{
		5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond,
		40 * time.Millisecond, 40 * time.Millisecond,
	}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("attempt %d = %v, want %v", i, got, w)
		}
	}
}

// fast is a real-time policy whose waits are microseconds long.
func fast(attempts int) Policy {
	return Policy{Initial: time.Microsecond, Max: 10 * time.Microsecond, MaxAttempts: attempts}
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	calls := 0
	err := Do(context.Background(), fast(5), nil,
		func() error {
			calls++
			if calls < 3 {
				return errors.New("transient")
			}
			return nil
		})
	if err != nil {
		t.Fatalf("Do = %v, want nil", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestDoBoundedAttempts(t *testing.T) {
	calls := 0
	boom := errors.New("boom")
	err := Do(context.Background(), fast(4), nil,
		func() error { calls++; return boom })
	if !errors.Is(err, boom) || calls != 4 {
		t.Fatalf("err = %v, calls = %d; want boom after exactly 4 attempts", err, calls)
	}
}

func TestDoStopsOnNonRetryable(t *testing.T) {
	fatal := errors.New("fatal")
	calls := 0
	err := Do(context.Background(), fast(5),
		func(err error) bool { return !errors.Is(err, fatal) },
		func() error { calls++; return fatal })
	if !errors.Is(err, fatal) || calls != 1 {
		t.Fatalf("err = %v, calls = %d; want fatal after 1 attempt", err, calls)
	}
}

func TestDoHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Do(ctx, fast(5), nil,
		func() error { calls++; cancel(); return errors.New("transient") })
	if !errors.Is(err, context.Canceled) || calls != 1 {
		t.Fatalf("err = %v, calls = %d; want context.Canceled after 1 attempt", err, calls)
	}
}

// TestDoCancelledMidSleep: a cancellation arriving DURING the
// between-attempt wait is honored at the wait — the op never runs
// again. This is the drain-deadline shape: a reconnect loop must
// release the instant the deadline passes, not after its backoff.
func TestDoCancelledMidSleep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	start := time.Now()
	err := Do(ctx, Policy{Initial: time.Hour, MaxAttempts: 5}, nil,
		func() error {
			calls++
			time.AfterFunc(time.Millisecond, cancel) // the deadline fires mid-sleep
			return errors.New("transient")
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (no attempt after the cancelled wait)", calls)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("Do slept %v of an hour-long backoff despite cancellation", elapsed)
	}
}

// TestDoRealTimerInterrupted: a cancellation pending before the wait
// cuts it short instead of sleeping it out.
func TestDoRealTimerInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	start := time.Now()
	err := Do(ctx, Policy{Initial: time.Hour, MaxAttempts: 3}, nil,
		func() error { calls++; cancel(); return errors.New("transient") })
	if !errors.Is(err, context.Canceled) || calls != 1 {
		t.Fatalf("err = %v, calls = %d; want context.Canceled after 1 attempt", err, calls)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("Do slept %v of an hour-long backoff despite cancellation", elapsed)
	}
}

// TestScheduleWaitCancelled: Wait on a cancelled context does not sleep
// (the policy's first delay is an hour), reports the cancellation, and
// consumes exactly one scheduled delay: the next one is the sequence's
// second.
func TestScheduleWaitCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pol := Policy{Initial: time.Hour, Max: 4 * time.Hour}
	s := New(pol)
	if err := s.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	ref := New(pol)
	ref.Next()
	if got, want := s.Next(), ref.Next(); got != want {
		t.Fatalf("delay after the cancelled Wait = %v, want the second delay %v", got, want)
	}
}
