package serve

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"activerules/internal/engine"
)

func TestAttributeIndictsOnlyDeterministicFaults(t *testing.T) {
	pe := &engine.PanicError{Value: "boom"}
	cases := []struct {
		name string
		err  error
		want []string
	}{
		{"rule panic", &engine.ExecError{Rule: "r1", Cause: pe}, []string{"r1"}},
		{"rule sql error", &engine.ExecError{Rule: "r1", Cause: errors.New("dup")}, nil},
		{"livelock cycle dedups and sorts", &engine.LivelockError{Cycle: []string{"b", "a", "b"}}, []string{"a", "b"}},
		{"budget without witness", engine.ErrMaxSteps, nil},
		{"cancellation", &engine.CancelledError{Cause: errors.New("deadline")}, nil},
		{"durability", &engine.DurabilityError{Op: "commit", Cause: errors.New("disk")}, nil},
		{"user-script panic (no rule)", errors.New("engine: user script: panic"), nil},
	}
	for _, c := range cases {
		if got := attribute(c.err); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: attribute = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestBreakerTripAndProbeLifecycle(t *testing.T) {
	t0 := time.Unix(0, 0)
	b := newBreaker(2, true)

	// One fault: counted, not tripped.
	if b.noteFault([]string{"r"}, t0) {
		t.Fatal("tripped below threshold")
	}
	// A success in between resets the consecutive count.
	b.noteSuccess(map[string]int{"r": 1})
	if b.noteFault([]string{"r"}, t0) {
		t.Fatal("tripped after reset + one fault")
	}
	// Second consecutive fault trips.
	if !b.noteFault([]string{"r"}, t0) {
		t.Fatal("did not trip at threshold")
	}
	if got := b.quarantinedNames(); len(got) != 1 || got[0] != "r" {
		t.Fatalf("quarantined = %v", got)
	}

	// Not due yet.
	if p := b.dueProbes(t0.Add(9 * time.Millisecond)); p != nil {
		t.Fatalf("early probe: %v", p)
	}
	// Due: half-open, so it is neither quarantined nor re-probed.
	if p := b.dueProbes(t0.Add(10 * time.Millisecond)); len(p) != 1 || p[0] != "r" {
		t.Fatalf("dueProbes = %v", p)
	}
	if got := b.quarantinedNames(); len(got) != 0 {
		t.Fatalf("half-open rule still listed quarantined: %v", got)
	}
	if got := b.probingNames(); len(got) != 1 {
		t.Fatalf("probing = %v", got)
	}

	// Probe fails: re-open with the doubled backoff (20ms).
	t1 := t0.Add(10 * time.Millisecond)
	if !b.noteFault([]string{"r"}, t1) {
		t.Fatal("failed probe should change the active set")
	}
	if p := b.dueProbes(t1.Add(19 * time.Millisecond)); p != nil {
		t.Fatalf("re-opened breaker probed before doubled backoff: %v", p)
	}
	if p := b.dueProbes(t1.Add(20 * time.Millisecond)); len(p) != 1 {
		t.Fatalf("dueProbes after doubled backoff = %v", p)
	}

	// Probe succeeds: breaker closes and the schedule resets, so a
	// later re-trip replays the same 10ms-first sequence.
	if restored := b.noteSuccess(map[string]int{"r": 1}); len(restored) != 1 || restored[0] != "r" {
		t.Fatalf("restored = %v", restored)
	}
	t2 := t1.Add(time.Hour)
	b.noteFault([]string{"r"}, t2)
	b.noteFault([]string{"r"}, t2)
	if p := b.dueProbes(t2.Add(10 * time.Millisecond)); len(p) != 1 {
		t.Fatalf("reset schedule should probe at 10ms again, got %v", p)
	}
}

func TestBreakerDisabledProbingNeverProbes(t *testing.T) {
	b := newBreaker(1, false)
	b.noteFault([]string{"x"}, time.Unix(0, 0))
	if p := b.dueProbes(time.Unix(1<<40, 0)); p != nil {
		t.Fatalf("probing disabled but dueProbes = %v", p)
	}
}
