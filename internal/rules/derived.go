package rules

import "activerules/internal/schema"

// Triggers computes the Triggers relationship of Section 3: all rules r'
// (possibly including r itself) that can become triggered as a result of
// r's action, i.e. Performs(r) ∩ Triggered-By(r') ≠ ∅. The result is in
// definition order.
func (s *Set) Triggers(r *Rule) []*Rule {
	var out []*Rule
	for _, r2 := range s.rules {
		if r.performs.Intersects(r2.triggeredBy) {
			out = append(out, r2)
		}
	}
	return out
}

// CanTrigger reports whether r's action can trigger r2.
func (s *Set) CanTrigger(r, r2 *Rule) bool {
	return r.performs.Intersects(r2.triggeredBy)
}

// CanBeUntriggeredBy reports whether operations of r1 can untrigger r2:
// whether r2 is in the Can-Untrigger set of Section 3 for O' =
// Performs(r1). A rule can be untriggered when a deletion from its
// table can undo the insertions or updates that triggered it:
//
//	Can-Untrigger(O') = {r ∈ R | (D,t) ∈ O' and (I,t) or (U,t.c) ∈
//	                     Triggered-By(r) for some t, t.c}
func (s *Set) CanBeUntriggeredBy(r2, r1 *Rule) bool {
	for op := range r1.performs {
		if op.Kind != schema.OpDelete {
			continue
		}
		for trig := range r2.triggeredBy {
			if trig.Table != op.Table {
				continue
			}
			if trig.Kind == schema.OpInsert || trig.Kind == schema.OpUpdate {
				return true
			}
		}
	}
	return false
}

// Choose computes the Choose set of Section 3: the subset of the
// triggered rules eligible for consideration, i.e. those with no other
// triggered rule having precedence over them. It ORs the triggered
// rules' HigherRows into above, the rules some triggered rule outranks
// (a rule never outranks itself), and keeps the triggered rules that row
// lacks. The result preserves the order of the input slice and is
// appended to dst, which may be nil and must not overlap triggered; a
// rule-processing loop passes the slice it got back last time, cut to
// length zero. above is the caller's scratch row, NewBits(Len()) long;
// nil allocates one.
func (s *Set) Choose(dst, triggered []*Rule, above Bits) []*Rule {
	if above == nil {
		above = NewBits(len(s.rules))
	} else {
		clear(above)
	}
	for _, r := range triggered {
		for w, bits := range s.HigherRow(r) {
			above[w] |= bits
		}
	}
	for _, r := range triggered {
		if !above.Has(r.index) {
			dst = append(dst, r)
		}
	}
	return dst
}

// UnorderedPairs enumerates all unordered pairs {ri, rj}, i < j by
// definition index. These are the pairs the Confluence Requirement of
// Definition 6.5 must be checked for (Observation 6.2).
func (s *Set) UnorderedPairs() [][2]*Rule {
	var out [][2]*Rule
	for i, ri := range s.rules {
		for _, rj := range s.rules[i+1:] {
			if s.Unordered(ri, rj) {
				out = append(out, [2]*Rule{ri, rj})
			}
		}
	}
	return out
}

// ObservableRules returns the rules whose actions may be observable.
func (s *Set) ObservableRules() []*Rule {
	var out []*Rule
	for _, r := range s.rules {
		if r.observable {
			out = append(out, r)
		}
	}
	return out
}
