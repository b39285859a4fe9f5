// Package retry provides exponential backoff: the delay sequence a
// Schedule emits is a pure function of its Policy, so every component
// that retries — the serving layer's half-open quarantine probes, its
// durability-fault reopen loop, a follower's reconnect loop — is
// reproducible in tests and across runs.
package retry

import (
	"context"
	"time"
)

// Policy shapes a backoff schedule. The delay doubles between attempts.
type Policy struct {
	// Initial is the delay before the first retry; 0 means 10ms.
	Initial time.Duration
	// Max caps the delay; 0 means 5s.
	Max time.Duration
	// MaxAttempts bounds the total number of operation invocations Do
	// performs (first try included); values below 1 mean 3.
	MaxAttempts int
}

func (p Policy) withDefaults() Policy {
	if p.Initial <= 0 {
		p.Initial = 10 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 5 * time.Second
	}
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 3
	}
	return p
}

// Schedule emits the delay sequence of one Policy. It is not safe for
// concurrent use.
type Schedule struct {
	pol     Policy
	attempt int
}

// New returns a schedule at attempt zero. Two schedules built from the
// same policy emit identical delay sequences.
func New(pol Policy) *Schedule {
	return &Schedule{pol: pol.withDefaults()}
}

// Next returns the delay to wait before the next retry and advances the
// schedule: Initial, then doubling per attempt until it reaches Max.
func (s *Schedule) Next() time.Duration {
	d := s.pol.Initial
	for i := 0; i < s.attempt; i++ {
		if d >= s.pol.Max-d { // 2*d >= Max, without overflow
			d = s.pol.Max
			break
		}
		d *= 2
	}
	s.attempt++
	return d
}

// Wait sleeps the schedule's next delay on a timer that ctx interrupts:
// when ctx is done before or during the wait, Wait returns ctx.Err()
// instead of nil, so a reconnect loop or half-open probe can never sleep
// past a drain deadline.
func (s *Schedule) Wait(ctx context.Context) error {
	d := s.Next()
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Reset rewinds the schedule to attempt zero, so a breaker that closes
// and later re-trips replays the identical delay sequence.
func (s *Schedule) Reset() {
	s.attempt = 0
}

// Do invokes op up to pol.MaxAttempts times, sleeping the backoff
// between attempts. It stops early when op succeeds, when retryable
// (nil means "retry everything") rejects the error, or when ctx is
// done — whichever comes first — and returns the last error (or
// ctx.Err() on cancellation before or during a wait: the between-
// attempt sleep is interruptible, so a caller under a drain deadline is
// released the moment the deadline hits, not after the backoff runs
// out).
func Do(ctx context.Context, pol Policy, retryable func(error) bool, op func() error) error {
	pol = pol.withDefaults()
	sched := New(pol)
	var err error
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			if cerr := sched.Wait(ctx); cerr != nil {
				return cerr
			}
		}
		if err = op(); err == nil {
			return nil
		}
		if retryable != nil && !retryable(err) {
			return err
		}
	}
	return err
}
