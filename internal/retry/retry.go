// Package retry provides seeded, jittered exponential backoff: the
// delay sequence a Schedule emits is a pure function of its Policy and
// seed, so every component that retries — the serving layer's
// half-open quarantine probes, its durability-fault reopen loop — is
// reproducible in tests and across runs.
//
// The jitter is "equal jitter": a delay d becomes
// d*(1-Jitter) + u*d*Jitter with u drawn uniformly from the seeded
// generator. Consumers that share one logical fault domain should share
// one Schedule so the stream stays aligned with the decisions made.
package retry

import (
	"context"
	"math/rand"
	"time"
)

// Policy shapes a backoff schedule. The delay doubles between attempts.
type Policy struct {
	// Initial is the pre-jitter delay before the first retry; 0 means
	// 10ms.
	Initial time.Duration
	// Max caps the pre-jitter delay; 0 means 5s.
	Max time.Duration
	// Jitter is the fraction of each delay that is randomized, in
	// [0, 1]. 0 disables jitter (fully deterministic even without the
	// seed); negative values mean the default of 0.5.
	Jitter float64
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
	if p.Jitter < 0 {
		p.Jitter = 0.5
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 3
	}
	return p
}

// Schedule emits the delay sequence of one Policy under one seed. It is
// not safe for concurrent use.
type Schedule struct {
	pol     Policy
	seed    int64
	rng     *rand.Rand
	attempt int
}

// New returns a schedule at attempt zero. Two schedules built from the
// same policy and seed emit identical delay sequences.
func New(pol Policy, seed int64) *Schedule {
	return &Schedule{pol: pol.withDefaults(), seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the delay to wait before the next retry and advances the
// schedule. The pre-jitter delay is Initial*2^attempt capped at
// Max; jitter then replaces the final Jitter fraction with a uniform
// draw from the seeded generator.
func (s *Schedule) Next() time.Duration {
	d := float64(s.pol.Initial)
	for i := 0; i < s.attempt; i++ {
		d *= 2
		if d >= float64(s.pol.Max) {
			d = float64(s.pol.Max)
			break
		}
	}
	s.attempt++
	if s.pol.Jitter > 0 {
		d = d*(1-s.pol.Jitter) + s.rng.Float64()*d*s.pol.Jitter
	}
	return time.Duration(d)
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

// Reset rewinds the schedule to attempt zero AND re-seeds the
// generator, so a breaker that closes and later re-trips replays the
// identical delay sequence.
func (s *Schedule) Reset() {
	s.attempt = 0
	s.rng = rand.New(rand.NewSource(s.seed))
}

// Do invokes op up to pol.MaxAttempts times, sleeping a jittered
// backoff between attempts. It stops early when op succeeds, when
// retryable (nil means "retry everything") rejects the error, or when
// ctx is done — whichever comes first — and returns the last error (or
// ctx.Err() on cancellation before or during a wait: the between-
// attempt sleep is interruptible, so a caller under a drain deadline is
// released the moment the deadline hits, not after the backoff runs
// out).
func Do(ctx context.Context, pol Policy, seed int64, retryable func(error) bool, op func() error) error {
	pol = pol.withDefaults()
	sched := New(pol, seed)
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
