package analysis

import (
	"math/bits"
	"sort"
	"strings"

	"activerules/internal/rules"
	"activerules/internal/schema"
)

// RestrictedVerdict is the outcome of analysis under restricted
// user-generated operations — the first half of the paper's "Restricted
// user operations" future-work item (Section 9): when users are known to
// perform only certain operations on certain tables, fewer rules are
// reachable and properties may hold that do not hold in general.
type RestrictedVerdict struct {
	// UserOps is the restriction: the only operations user transactions
	// may perform.
	UserOps schema.OpSet

	// Reachable is the set of rules that can ever be triggered — rules
	// triggered directly by UserOps, closed under the Triggers relation
	// — in definition order. Unreachable rules are dead under the
	// restriction and are excluded from every check.
	Reachable []*rules.Rule

	// Termination, Confluence, and Observable are the three analyses
	// restricted to the reachable rules.
	Termination *TerminationVerdict
	Confluence  *ConfluenceVerdict
	Observable  *ObservableVerdict
}

// ReachableNames returns the reachable rule names, sorted.
func (v *RestrictedVerdict) ReachableNames() []string {
	out := rules.Names(v.Reachable)
	sort.Strings(out)
	return out
}

// ReachableRules computes the rules that can become triggered when user
// transactions are restricted to ops: the rules whose Triggered-By
// intersects ops, closed under Triggers (a rule triggered by a reachable
// rule's action is reachable).
func (a *Analyzer) ReachableRules(ops schema.OpSet) []*rules.Rule {
	n := a.set.Len()
	in := make([]bool, n)
	var queue []*rules.Rule
	for _, r := range a.set.Rules() {
		if ops.Intersects(r.TriggeredBy()) {
			in[r.Index()] = true
			queue = append(queue, r)
		}
	}
	g := a.graph()
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		for _, nxt := range g.Successors(r) {
			if !in[nxt.Index()] {
				in[nxt.Index()] = true
				queue = append(queue, nxt)
			}
		}
	}
	var out []*rules.Rule
	for _, r := range a.set.Rules() {
		if in[r.Index()] {
			out = append(out, r)
		}
	}
	return out
}

// AnalyzeRestricted runs termination, confluence, and observable
// determinism under the assumption that user transactions only perform
// the given operations. All checks consider only the reachable rules, so
// a rule set that is unsafe in general may be certified safe for a known
// workload.
func (a *Analyzer) AnalyzeRestricted(ops schema.OpSet) *RestrictedVerdict {
	reach := a.ReachableRules(ops)
	v := &RestrictedVerdict{UserOps: ops.Clone(), Reachable: reach}
	v.Termination = a.TerminationOf(reach)
	v.Confluence = a.confluenceOver(reach, v.Termination)
	v.Observable = a.observableOver(reach, v.Termination)
	return v
}

// sigWithin is the Definition 7.1 fixpoint restricted to a member set
// (members and the result in definition order). It is the only one: a
// joiner is tested against the members that joined earlier in the same
// round, in definition order, stopping at the first it may not commute
// with, so which pairs Commute examines — and with refinement on, which
// upgrades a report lists — is fixed by the rule set alone.
//
// The test reads the verdict table a word at a time. Of the 64 members
// a word holds, the ones r is known not to commute with are one AND
// away; only the members without a verdict that come before the first
// of those are put to Commute, in order — the pairs a member-by-member
// scan would have had to evaluate before it stopped.
func (a *Analyzer) sigWithin(members []*rules.Rule, tables []string) []*rules.Rule {
	want := map[string]bool{}
	for _, t := range tables {
		want[strings.ToLower(t)] = true
	}
	in := rules.NewBits(a.set.Len())
	for _, r := range members {
		for _, op := range a.view.of(r).performsSorted {
			if want[op.Table] {
				in.Add(r.Index())
				break
			}
		}
	}
	t, all := a.table(), a.set.Rules()
	joins := func(r *rules.Rule) bool {
		for w, inw := range in {
			if inw == 0 {
				continue
			}
			k, m := t.word(r.Index(), w)
			hit := inw & k & m
			unknown := inw &^ k
			if hit != 0 {
				unknown &= hit&-hit - 1 // below the first hit
			}
			for ; unknown != 0; unknown &= unknown - 1 {
				if ok, _ := a.Commute(r, all[w<<6|bits.TrailingZeros64(unknown)]); !ok {
					return true
				}
			}
			if hit != 0 {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for _, r := range members {
			if !in.Has(r.Index()) && joins(r) {
				in.Add(r.Index())
				changed = true
			}
		}
	}
	return a.rulesOf(in) // members only, and members are in definition order
}
