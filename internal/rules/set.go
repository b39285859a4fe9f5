package rules

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"activerules/internal/schema"
	"activerules/internal/sqlmini"
)

// Set is a compiled, validated rule set R together with the priority
// partial order P (Section 3). Sets are immutable after construction.
type Set struct {
	sch    *schema.Schema
	rules  []*Rule
	byName map[string]*Rule

	// higher is the transitive closure of P as one bit row per rule
	// (see HigherRow), len(rules) rows of rowWords words each.
	higher   []uint64
	rowWords int

	// compiled holds the set's compiled program once internal/compile
	// has built it (see Compiled); it lives and dies with the set.
	compiledOnce sync.Once
	compiled     any
}

// NewSet compiles the definitions against the schema. It validates rule
// names, tables, trigger columns, priority references (rejecting priority
// cycles), parses and resolves conditions and actions, and precomputes
// the derived sets of Section 3.
func NewSet(sch *schema.Schema, defs []Definition) (*Set, error) {
	s := &Set{sch: sch, byName: make(map[string]*Rule, len(defs))}
	for _, def := range defs {
		r, err := compileRule(sch, def)
		if err != nil {
			return nil, err
		}
		if _, dup := s.byName[r.Name]; dup {
			return nil, fmt.Errorf("rules: duplicate rule name %q", r.Name)
		}
		r.index = len(s.rules)
		s.rules = append(s.rules, r)
		s.byName[r.Name] = r
	}
	if err := s.buildPriorities(); err != nil {
		return nil, err
	}
	return s, nil
}

func compileRule(sch *schema.Schema, def Definition) (*Rule, error) {
	name := normName(def.Name)
	if name == "" {
		return nil, fmt.Errorf("rules: rule with empty name")
	}
	table := sch.Table(def.Table)
	if table == nil {
		return nil, fmt.Errorf("rules: rule %q is on unknown table %q", name, def.Table)
	}
	if len(def.Triggers) == 0 {
		return nil, fmt.Errorf("rules: rule %q has no triggering operations", name)
	}
	r := &Rule{Name: name, Table: table.Name, Line: def.Line, Col: def.Col}
	seen := map[string]bool{}
	for _, ts := range def.Triggers {
		cols := make([]string, len(ts.Columns))
		for i, c := range ts.Columns {
			c = strings.ToLower(c)
			if !table.HasColumn(c) {
				return nil, fmt.Errorf("rules: rule %q: table %q has no column %q", name, table.Name, c)
			}
			cols[i] = c
		}
		if ts.Kind != schema.OpUpdate && len(cols) > 0 {
			return nil, fmt.Errorf("rules: rule %q: %s trigger cannot list columns", name, ts.Kind)
		}
		key := ts.Kind.String()
		if ts.Kind != schema.OpUpdate {
			if seen[key] {
				return nil, fmt.Errorf("rules: rule %q: duplicate %s trigger", name, ts.Kind)
			}
			seen[key] = true
		}
		r.Triggers = append(r.Triggers, TriggerSpec{Kind: ts.Kind, Columns: cols})
	}
	r.triggeredBy = computeTriggeredBy(table, r.Triggers)

	rc := &sqlmini.ResolveContext{
		Schema:       sch,
		RuleTable:    table.Name,
		AllowedTrans: r.AllowedTrans(),
	}
	if strings.TrimSpace(def.Condition) != "" {
		cond, err := sqlmini.ParseExpr(def.Condition)
		if err != nil {
			return nil, fmt.Errorf("rules: rule %q condition: %v", name, err)
		}
		if err := sqlmini.ResolveExpr(cond, rc); err != nil {
			return nil, fmt.Errorf("rules: rule %q condition: %v", name, err)
		}
		if err := sqlmini.CheckCondition(cond, sch); err != nil {
			return nil, fmt.Errorf("rules: rule %q condition: %v", name, err)
		}
		r.Condition = cond
	}
	if len(def.Action) == 0 {
		return nil, fmt.Errorf("rules: rule %q has no action", name)
	}
	for _, src := range def.Action {
		sts, err := sqlmini.ParseStatements(src)
		if err != nil {
			return nil, fmt.Errorf("rules: rule %q action: %v", name, err)
		}
		for _, st := range sts {
			if err := sqlmini.ResolveStatement(st, rc); err != nil {
				return nil, fmt.Errorf("rules: rule %q action: %v", name, err)
			}
			if err := sqlmini.CheckStatement(st, sch); err != nil {
				return nil, fmt.Errorf("rules: rule %q action: %v", name, err)
			}
			r.Action = append(r.Action, st)
		}
	}

	// Derived sets: Performs, Reads, Observable (Section 3).
	r.performs = schema.NewOpSet()
	r.reads = schema.NewColSet()
	if r.Condition != nil {
		r.reads.AddAll(sqlmini.ExprReads(r.Condition, sch))
	}
	for _, st := range r.Action {
		r.performs.AddAll(sqlmini.StatementPerforms(st))
		r.reads.AddAll(sqlmini.StatementReads(st, sch))
		if sqlmini.IsObservable(st) {
			r.observable = true
		}
	}

	for _, p := range def.Precedes {
		r.Precedes = append(r.Precedes, normName(p))
	}
	for _, f := range def.Follows {
		r.Follows = append(r.Follows, normName(f))
	}
	return r, nil
}

// buildPriorities validates priority references, constructs the direct
// ordering from precedes/follows clauses, and closes it transitively,
// rejecting cycles (which would make P not a partial order).
func (s *Set) buildPriorities() error {
	s.rowWords = len(NewBits(len(s.rules)))
	s.higher = make([]uint64, len(s.rules)*s.rowWords)
	for _, r := range s.rules {
		for _, name := range r.Precedes {
			other, ok := s.byName[name]
			if !ok {
				return fmt.Errorf("rules: rule %q precedes unknown rule %q", r.Name, name)
			}
			if other == r {
				return fmt.Errorf("rules: rule %q precedes itself", r.Name)
			}
			s.HigherRow(r).Add(other.index)
		}
		for _, name := range r.Follows {
			other, ok := s.byName[name]
			if !ok {
				return fmt.Errorf("rules: rule %q follows unknown rule %q", r.Name, name)
			}
			if other == r {
				return fmt.Errorf("rules: rule %q follows itself", r.Name)
			}
			s.HigherRow(other).Add(r.index)
		}
	}
	if r := s.closePriorities(); r != nil {
		return fmt.Errorf("rules: priority cycle involving rule %q", r.Name)
	}
	return nil
}

// closePriorities closes s.higher transitively (Warshall's algorithm,
// the inner loop one row OR) and returns the first rule, in definition
// order, that the closure orders above itself, or nil when P is a
// partial order. A rule with priority over nobody adds nothing to
// anyone's row, so its column is never scanned.
func (s *Set) closePriorities() *Rule {
	empty := NewBits(len(s.rules))
	for _, k := range s.rules {
		rowK := s.HigherRow(k)
		if !slices.Equal(rowK, empty) {
			for _, i := range s.rules {
				if rowI := s.HigherRow(i); rowI.Has(k.index) {
					for w, bits := range rowK {
						rowI[w] |= bits
					}
				}
			}
		}
	}
	for _, r := range s.rules {
		if s.Higher(r, r) {
			return r
		}
	}
	return nil
}

// Compiled returns the set's compiled program, calling build the first
// time only. The slot belongs to internal/compile, which cannot be
// imported from here (it imports this package) and so stores its
// *Program as an any. Keeping the program on the set, not in a table
// keyed by it, lets the collector free both together: a server builds a
// new set for every swap, tenant and non-empty quarantine (an emptied
// quarantine returns to the full set and its program).
func (s *Set) Compiled(build func() any) any {
	s.compiledOnce.Do(func() { s.compiled = build() })
	return s.compiled
}

// Schema returns the schema the set was compiled against.
func (s *Set) Schema() *schema.Schema { return s.sch }

// Rules returns the rules in definition order. The slice must not be
// modified.
func (s *Set) Rules() []*Rule { return s.rules }

// Len returns the number of rules.
func (s *Set) Len() int { return len(s.rules) }

// Rule returns the named rule, or nil.
func (s *Set) Rule(name string) *Rule { return s.byName[strings.ToLower(name)] }

// Higher reports whether ri > rj is in the transitive closure of P. It
// is HigherRow(ri).Has(rj.Index()) without forming the row: the
// analyses ask it per pair of rules.
func (s *Set) Higher(ri, rj *Rule) bool {
	return s.higher[ri.index*s.rowWords+rj.index>>6]&(1<<(rj.index&63)) != 0
}

// HigherRow returns the rules r has priority over in the transitive
// closure of P, as a bit row indexed by Rule.Index. The row is the
// set's own storage and must not be modified.
func (s *Set) HigherRow(r *Rule) Bits {
	return Bits(s.higher[r.index*s.rowWords : (r.index+1)*s.rowWords])
}

// Ordered reports whether ri and rj are ordered (ri > rj or rj > ri in P).
// A rule is not considered ordered with itself.
func (s *Set) Ordered(ri, rj *Rule) bool {
	return s.Higher(ri, rj) || s.Higher(rj, ri)
}

// Unordered reports whether two distinct rules have no priority ordering.
func (s *Set) Unordered(ri, rj *Rule) bool {
	return ri != rj && !s.Ordered(ri, rj)
}

// WithOrdering returns a new Set identical to s but with the additional
// direct orderings given as (higher, lower) name pairs. It is used by the
// interactive confluence workflow of Section 6.4 (Approach 2: add a
// priority between conflicting rules). The underlying rules are shared.
func (s *Set) WithOrdering(pairs ...[2]string) (*Set, error) {
	ns := &Set{sch: s.sch, rules: s.rules, byName: s.byName,
		higher: slices.Clone(s.higher), rowWords: s.rowWords}
	for _, p := range pairs {
		hi := ns.Rule(p[0])
		lo := ns.Rule(p[1])
		if hi == nil || lo == nil {
			return nil, fmt.Errorf("rules: WithOrdering: unknown rule in pair %v", p)
		}
		if hi == lo {
			return nil, fmt.Errorf("rules: WithOrdering: rule %q cannot precede itself", p[0])
		}
		ns.HigherRow(hi).Add(lo.index)
	}
	// Re-close transitively and check antisymmetry.
	if r := ns.closePriorities(); r != nil {
		return nil, fmt.Errorf("rules: WithOrdering: priority cycle involving rule %q", r.Name)
	}
	return ns, nil
}
