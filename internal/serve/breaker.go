package serve

import (
	"errors"
	"sort"
	"time"

	"activerules/internal/engine"
	"activerules/internal/retry"
	"activerules/internal/rules"
)

// breaker is the per-rule circuit breaker driving quarantine. It is
// owned by the worker goroutine; snapshots for Health flow out under
// the server mutex.
//
// States per rule, classic three-state breaker:
//
//	closed    — healthy; consecutive faults are counted.
//	open      — quarantined: the rule is deactivated (removed from the
//	            active set) until its probe time arrives.
//	half-open — the probe time arrived: the rule is reactivated for
//	            live traffic. Its next attributed fault re-opens the
//	            breaker with a longer (exponential) backoff;
//	            a request in which it fires successfully closes it.
//
// Probe delays follow retry's zero Policy: 10ms, doubling to a 5s cap.
type breaker struct {
	threshold int
	probing   bool
	health    map[string]*ruleHealth
}

type ruleHealth struct {
	fails       int // consecutive attributed faults while closed
	quarantined bool
	halfOpen    bool
	sched       *retry.Schedule
	probeAt     time.Time
}

func newBreaker(threshold int, probing bool) *breaker {
	if threshold < 1 {
		threshold = 3
	}
	return &breaker{
		threshold: threshold,
		probing:   probing,
		health:    map[string]*ruleHealth{},
	}
}

func (b *breaker) get(name string) *ruleHealth {
	h := b.health[name]
	if h == nil {
		h = &ruleHealth{}
		b.health[name] = h
	}
	return h
}

// attribute maps an execution error to the rules it indicts: a panicking
// consideration indicts its rule; a livelock witness indicts every rule
// in the repeating cycle. Other failures (SQL errors, deadlines, budget
// exhaustion without a witness, durability faults) indict nobody — they
// are not evidence of a hostile rule.
func attribute(err error) []string {
	var xe *engine.ExecError
	if errors.As(err, &xe) {
		var pe *engine.PanicError
		if errors.As(xe.Cause, &pe) {
			return []string{xe.Rule}
		}
		return nil
	}
	var le *engine.LivelockError
	if errors.As(err, &le) {
		seen := map[string]bool{}
		var out []string
		for _, r := range le.Cycle {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
		sort.Strings(out)
		return out
	}
	return nil
}

// noteFault records attributed faults at now and reports whether the
// active rule set changed (a breaker opened or re-opened).
func (b *breaker) noteFault(rules []string, now time.Time) (changed bool) {
	for _, name := range rules {
		h := b.get(name)
		switch {
		case h.quarantined && h.halfOpen:
			// Probe failed: re-open with the next, longer backoff.
			h.halfOpen = false
			h.probeAt = now.Add(h.sched.Next())
			changed = true
		case h.quarantined:
			// Already open; nothing to do (shouldn't receive faults).
		default:
			h.fails++
			if h.fails >= b.threshold {
				h.quarantined = true
				h.fails = 0
				if h.sched == nil {
					h.sched = retry.New(retry.Policy{})
				}
				h.probeAt = now.Add(h.sched.Next())
				changed = true
			}
		}
	}
	return changed
}

// noteSuccess records a request that completed: every rule that fired
// in it is proven live. Half-open rules that fired close their breaker
// (restored); closed rules that fired reset their fault count.
// Reporting whether any breaker closed lets the server refresh its
// degraded-mode report.
func (b *breaker) noteSuccess(firedByRule map[string]int) (restored []string) {
	for name := range firedByRule {
		h := b.health[name]
		if h == nil {
			continue
		}
		if h.quarantined && h.halfOpen {
			h.quarantined = false
			h.halfOpen = false
			h.fails = 0
			h.sched.Reset()
			restored = append(restored, name)
			continue
		}
		h.fails = 0
	}
	sort.Strings(restored)
	return restored
}

// dueProbes transitions every open breaker whose probe time has arrived
// into half-open and returns their names (sorted), or nil. The caller
// reactivates them in the engine's rule set.
func (b *breaker) dueProbes(now time.Time) []string {
	if !b.probing {
		return nil
	}
	var out []string
	for name, h := range b.health {
		if h.quarantined && !h.halfOpen && !h.probeAt.After(now) {
			h.halfOpen = true
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// quarantined returns the names of rules whose breaker is open (NOT
// half-open: a probing rule is live), sorted.
func (b *breaker) quarantinedNames() []string {
	var out []string
	for name, h := range b.health {
		if h.quarantined && !h.halfOpen {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// probingNames returns the names of half-open rules, sorted.
func (b *breaker) probingNames() []string {
	var out []string
	for name, h := range b.health {
		if h.quarantined && h.halfOpen {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// retain drops breaker state for every rule defs no longer defines, so
// a hot rule-set swap does not leave ghost quarantine entries for rules
// that no longer exist. Surviving names keep their state: a quarantined
// rule stays quarantined across a swap that keeps it. A name survives
// when rules.Without would deactivate one of defs for it — the same
// name match the active set is built with.
func (b *breaker) retain(defs []rules.Definition) {
	for name := range b.health {
		if len(rules.Without(defs, name)) == len(defs) {
			delete(b.health, name)
		}
	}
}
