package compile

import (
	"activerules/internal/rules"
	"activerules/internal/schema"
	"activerules/internal/storage"
)

// Delta-driven triggering (the RETE/discrimination-network idea,
// specialized to Starburst's set-oriented transitions): instead of
// re-asking every rule "has your table changed since your mark?" on
// every step, the engine maintains a candidate bitset that a mutation
// updates directly. The index is keyed on (table, op kind) — exactly
// the granularity at which the database's history (storage.Change)
// records primitives — and a rule appears under every key that could
// contribute an operation in its Triggered-By set. Candidate bits
// over-approximate triggering:
// the engine still evaluates the exact transition predicate against
// the net effect before considering a rule, so a stale bit costs one
// (cheap, table-restricted) net computation and is then cleared; a
// missing bit would be a soundness bug, which DESIGN.md §11 argues
// cannot happen and the differential battery cross-checks.

// tableKind is one discrimination-network key.
type tableKind struct {
	table string
	kind  storage.ChangeKind
}

// Matcher is the immutable discrimination network for one rule set:
// which rules watch which (table, kind) keys. It is shared by every
// engine (and engine clone) running that set.
type Matcher struct {
	n     int                    // number of rules
	watch map[tableKind][]int    // key -> watching rule indices, ascending
	kinds [][]storage.ChangeKind // per rule: watched kinds, deduplicated
}

// NewMatcher builds the discrimination network for a rule set.
func NewMatcher(set *rules.Set) *Matcher {
	rs := set.Rules()
	m := &Matcher{
		n:     len(rs),
		watch: make(map[tableKind][]int),
		kinds: make([][]storage.ChangeKind, len(rs)),
	}
	for i, r := range rs {
		var seen [3]bool
		for _, op := range r.TriggeredBy().Sorted() {
			k := opKindToKind(op.Kind)
			if seen[k] {
				continue
			}
			seen[k] = true
			m.kinds[i] = append(m.kinds[i], k)
			key := tableKind{table: op.Table, kind: k}
			m.watch[key] = append(m.watch[key], i)
		}
	}
	return m
}

func opKindToKind(k schema.OpKind) storage.ChangeKind {
	switch k {
	case schema.OpInsert:
		return storage.ChangeInsert
	case schema.OpDelete:
		return storage.ChangeDelete
	default:
		return storage.ChangeUpdate
	}
}

// Candidates is one engine's mutable candidate bitset over the rules of
// a Matcher. The engine sets bits through Note as mutations are
// recorded, scans them in rule-definition order, and clears a bit once
// the history proves the rule cannot be triggered at its current mark.
type Candidates struct {
	m    *Matcher
	bits []uint64
}

// NewCandidates returns an all-clear candidate set for the matcher.
func (m *Matcher) NewCandidates() *Candidates {
	return &Candidates{m: m, bits: make([]uint64, (m.n+63)/64)}
}

// Note marks every rule watching (table, kind) as a trigger candidate.
// table is the schema's canonical (lower-case) name, as a Mutator receives
// it (sqlmini.Mutator); Note does not fold case.
func (c *Candidates) Note(table string, kind storage.ChangeKind) {
	for _, i := range c.m.watch[tableKind{table: table, kind: kind}] {
		c.bits[i>>6] |= 1 << (uint(i) & 63)
	}
}

// Has reports whether rule i is a candidate.
func (c *Candidates) Has(i int) bool {
	return c.bits[i>>6]&(1<<(uint(i)&63)) != 0
}

// Clear drops rule i from the candidate set.
func (c *Candidates) Clear(i int) {
	c.bits[i>>6] &^= 1 << (uint(i) & 63)
}

// Reset drops every candidate (assertion boundaries: commit, rollback).
func (c *Candidates) Reset() {
	for i := range c.bits {
		c.bits[i] = 0
	}
}

// Words returns the candidate set as bit words, rule i at bit i&63 of
// word i>>6: a scan visits them in ascending index order, the
// rule-definition order TriggeredRules must preserve. The slice is the
// set's own; a scan may Clear the rule it is visiting, since the word it
// read is its own copy.
func (c *Candidates) Words() []uint64 { return c.bits }

// Clone returns an independent copy sharing the immutable matcher; the
// execution-graph explorer forks engines this way.
func (c *Candidates) Clone() *Candidates {
	nc := &Candidates{m: c.m, bits: make([]uint64, len(c.bits))}
	copy(nc.bits, c.bits)
	return nc
}

// StaleAt reports whether candidate rule i, on table t, is provably
// stale: the history holds no change of a kind it watches at or after
// mark, so its transition predicate cannot hold and the bit may be
// cleared. This is the per-kind refinement of the engine's LastChange
// short-circuit.
func (c *Candidates) StaleAt(i int, t *storage.Table, mark int) bool {
	for _, k := range c.m.kinds[i] {
		if t.LastChangeOf(k) >= mark {
			return false
		}
	}
	return true
}

// Rebuild recomputes the candidate set from scratch as the exact
// fixpoint of the lazy-clearing rule: rule i, on tables[i], is a
// candidate iff some watched kind changed its table at or after
// marks[i]. The incremental path maintains a superset of this (bits are
// cleared lazily); tests drive both paths and compare observable
// behavior.
func (c *Candidates) Rebuild(tables []*storage.Table, marks []int) {
	c.Reset()
	for i := 0; i < c.m.n; i++ {
		if !c.StaleAt(i, tables[i], marks[i]) {
			c.bits[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}
