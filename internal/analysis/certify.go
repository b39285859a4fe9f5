// Package analysis implements the static analyses of Aiken, Widom, and
// Hellerstein (SIGMOD 1992): termination via the triggering graph
// (Section 5), rule commutativity (Lemma 6.1), the Confluence Requirement
// (Definition 6.5) and confluence (Theorem 6.7), partial confluence with
// respect to a set of tables (Section 7), and observable determinism via
// the fictional Obs table (Section 8).
//
// All verdicts are conservative: Guaranteed means the property provably
// holds; otherwise the verdict isolates the responsible rules and states
// criteria — commutativity certifications, priority orderings, or cycle
// discharges — that, if satisfied, guarantee the property. Certifications
// supplied by the user (the interactive process of Sections 5 and 6.4)
// are honored by every analysis.
package analysis

import (
	"sort"
	"strings"
)

// pairKey canonicalizes an unordered pair of rule names.
type pairKey struct{ a, b string }

func mkPair(a, b string) pairKey {
	a, b = strings.ToLower(a), strings.ToLower(b)
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b}
}

// Certification records the facts a user has verified interactively:
//
//   - Commutativity certifications (Section 6.1): pairs that appear
//     noncommutative under the conservative conditions of Lemma 6.1 but
//     that the user has verified actually commute (e.g. the paper's
//     examples: an insert that never satisfies the other rule's delete
//     condition, or updates that never touch the same tuples).
//
//   - Termination discharges (Section 5): rules on triggering-graph
//     cycles for which the user has verified that repeated consideration
//     eventually makes the condition false or the action a no-op (e.g.
//     delete-only or monotonic rules). A discharged rule breaks every
//     cycle through it.
//
// The zero value is ready to use. Certification is not safe for
// concurrent mutation.
type Certification struct {
	commutes   map[pairKey]bool
	discharged map[string]bool
	noEdges    map[[2]string]bool // directed: [from, to]
}

// NewCertification returns an empty certification set.
func NewCertification() *Certification {
	return &Certification{
		commutes:   make(map[pairKey]bool),
		discharged: make(map[string]bool),
		noEdges:    make(map[[2]string]bool),
	}
}

// CertifyCommutes declares that rules a and b commute even if Lemma 6.1
// cannot prove it. The declaration is symmetric.
func (c *Certification) CertifyCommutes(a, b string) *Certification {
	if c.commutes == nil {
		c.commutes = make(map[pairKey]bool)
	}
	c.commutes[mkPair(a, b)] = true
	return c
}

// Commutes reports whether the pair has been certified commutative.
func (c *Certification) Commutes(a, b string) bool {
	if c == nil || len(c.commutes) == 0 {
		return false
	}
	return c.commutes[mkPair(a, b)]
}

// DischargeRule declares that rule name cannot sustain a triggering
// cycle: repeated consideration eventually disables it (Section 5).
func (c *Certification) DischargeRule(name string) *Certification {
	if c.discharged == nil {
		c.discharged = make(map[string]bool)
	}
	c.discharged[strings.ToLower(name)] = true
	return c
}

// Discharged reports whether the rule has a termination discharge.
func (c *Certification) Discharged(name string) bool {
	if c == nil || len(c.discharged) == 0 {
		return false
	}
	return c.discharged[strings.ToLower(name)]
}

// DischargeEdge declares that rule from cannot actually trigger rule to,
// even though Performs(from) ∩ Triggered-By(to) ≠ ∅ — e.g. from's
// updates never produce values satisfying to's condition, or touch
// disjoint tuples. The directed triggering-graph edge is dropped by the
// termination analysis (a finer-grained discharge than removing a whole
// rule).
func (c *Certification) DischargeEdge(from, to string) *Certification {
	if c.noEdges == nil {
		c.noEdges = make(map[[2]string]bool)
	}
	c.noEdges[[2]string{strings.ToLower(from), strings.ToLower(to)}] = true
	return c
}

// EdgeDischarged reports whether the directed edge has a discharge.
func (c *Certification) EdgeDischarged(from, to string) bool {
	if c == nil || len(c.noEdges) == 0 {
		return false
	}
	return c.noEdges[[2]string{strings.ToLower(from), strings.ToLower(to)}]
}

// DischargedEdges returns the discharged edges, sorted.
func (c *Certification) DischargedEdges() [][2]string {
	if c == nil {
		return nil
	}
	out := make([][2]string, 0, len(c.noEdges))
	for e := range c.noEdges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// CertifiedPairs returns the certified-commutative pairs, sorted, for
// reports.
func (c *Certification) CertifiedPairs() [][2]string {
	if c == nil {
		return nil
	}
	out := make([][2]string, 0, len(c.commutes))
	for p := range c.commutes {
		out = append(out, [2]string{p.a, p.b})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// DischargedRules returns the discharged rule names, sorted.
func (c *Certification) DischargedRules() []string {
	if c == nil {
		return nil
	}
	out := make([]string, 0, len(c.discharged))
	for n := range c.discharged {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Clone returns an independent copy.
func (c *Certification) Clone() *Certification {
	nc := NewCertification()
	if c == nil {
		return nc
	}
	for p := range c.commutes {
		nc.commutes[p] = true
	}
	for n := range c.discharged {
		nc.discharged[n] = true
	}
	for e := range c.noEdges {
		nc.noEdges[e] = true
	}
	return nc
}
