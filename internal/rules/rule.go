// Package rules defines the Starburst production-rule model of Section 2
// and the preliminary analysis definitions of Section 3: Triggered-By,
// Performs, Triggers, Reads, Can-Untrigger, Choose, and Observable, plus
// the user-defined priority partial order P.
//
// A rule is authored as a Definition (raw SQL text plus trigger and
// priority clauses) and compiled into a Rule by NewSet, which validates
// the whole rule set against a schema and precomputes the derived sets.
package rules

import (
	"fmt"
	"sort"
	"strings"

	"activerules/internal/schema"
	"activerules/internal/sqlmini"
)

// TriggerSpec is one triggering operation of a rule's transition
// predicate: inserted, deleted, or updated(c1, ..., cn). For OpUpdate an
// empty Columns list means "any column of the rule's table".
type TriggerSpec struct {
	Kind    schema.OpKind
	Columns []string // OpUpdate only
}

// String renders the spec in rule-definition syntax.
func (ts TriggerSpec) String() string {
	switch ts.Kind {
	case schema.OpInsert:
		return "inserted"
	case schema.OpDelete:
		return "deleted"
	case schema.OpUpdate:
		if len(ts.Columns) == 0 {
			return "updated"
		}
		return "updated(" + strings.Join(ts.Columns, ", ") + ")"
	default:
		return fmt.Sprintf("TriggerSpec(%d)", int(ts.Kind))
	}
}

// Definition is the authored form of a rule, mirroring the syntax of
// Section 2:
//
//	create rule name on table
//	when transition predicate
//	[if condition]
//	then action
//	[precedes rule-list]
//	[follows rule-list]
type Definition struct {
	Name     string
	Table    string
	Triggers []TriggerSpec
	// Condition is an SQL predicate source; empty means "no condition"
	// (always true).
	Condition string
	// Action is a sequence of SQL statement sources executed in order.
	Action []string
	// Precedes and Follows name rules this rule is ordered against.
	Precedes []string
	Follows  []string

	// Line and Col locate the rule's CREATE RULE keyword in its source
	// file (1-based); zero when the rule was built programmatically.
	Line, Col int
}

// Without returns defs with the named rules deactivated (Starburst's
// deactivate operation): their definitions are removed and every
// priority reference to them is dropped, so the rest still validates.
// Names are compared the way NewSet normalizes them, trimmed and
// lowercased, on both sides.
func Without(defs []Definition, names ...string) []Definition {
	drop := make(map[string]bool, len(names))
	for _, n := range names {
		drop[normName(n)] = true
	}
	kept := func(in []string) []string {
		var out []string
		for _, n := range in {
			if !drop[normName(n)] {
				out = append(out, n)
			}
		}
		return out
	}
	out := make([]Definition, 0, len(defs))
	for _, d := range defs {
		if drop[normName(d.Name)] {
			continue
		}
		d.Precedes = kept(d.Precedes)
		d.Follows = kept(d.Follows)
		out = append(out, d)
	}
	return out
}

// normName is a rule name as a Set knows it.
func normName(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

// Rule is a compiled rule: parsed and resolved condition/action plus the
// precomputed derived sets of Section 3.
type Rule struct {
	Name     string
	Table    string
	Triggers []TriggerSpec

	Condition sqlmini.Expr        // nil when the rule has no condition
	Action    []sqlmini.Statement // resolved statements

	Precedes []string // as authored (validated names)
	Follows  []string

	// Line and Col locate the rule definition in its source file
	// (1-based); zero when built programmatically.
	Line, Col int

	// Derived sets (Section 3), computed at compile time:
	triggeredBy schema.OpSet
	performs    schema.OpSet
	reads       schema.ColSet
	observable  bool

	// index is the rule's position in its Set, for deterministic
	// iteration and compact bitset-style bookkeeping.
	index int
}

// Index returns the rule's position within its Set.
func (r *Rule) Index() int { return r.index }

// TriggeredBy returns the operations in O that trigger the rule.
func (r *Rule) TriggeredBy() schema.OpSet { return r.triggeredBy }

// Performs returns the operations in O the rule's action may perform.
func (r *Rule) Performs() schema.OpSet { return r.performs }

// Reads returns the columns the rule may read in its condition or action,
// with transition-table references charged to the rule's table.
func (r *Rule) Reads() schema.ColSet { return r.reads }

// Observable reports whether the rule's action may be observable
// (contains a SELECT or ROLLBACK statement).
func (r *Rule) Observable() bool { return r.observable }

// AllowedTrans returns the transition tables this rule may reference,
// derived from its triggering operations (Section 2).
func (r *Rule) AllowedTrans() map[sqlmini.TransKind]bool {
	out := map[sqlmini.TransKind]bool{}
	for _, ts := range r.Triggers {
		switch ts.Kind {
		case schema.OpInsert:
			out[sqlmini.TransInserted] = true
		case schema.OpDelete:
			out[sqlmini.TransDeleted] = true
		case schema.OpUpdate:
			out[sqlmini.TransNewUpdated] = true
			out[sqlmini.TransOldUpdated] = true
		}
	}
	return out
}

// String renders the full rule in definition syntax.
func (r *Rule) String() string {
	var sb strings.Builder
	sb.WriteString("create rule ")
	sb.WriteString(r.Name)
	sb.WriteString(" on ")
	sb.WriteString(r.Table)
	sb.WriteString("\nwhen ")
	parts := make([]string, len(r.Triggers))
	for i, ts := range r.Triggers {
		parts[i] = ts.String()
	}
	sb.WriteString(strings.Join(parts, ", "))
	if r.Condition != nil {
		sb.WriteString("\nif ")
		sb.WriteString(r.Condition.String())
	}
	sb.WriteString("\nthen ")
	acts := make([]string, len(r.Action))
	for i, st := range r.Action {
		acts[i] = st.String()
	}
	sb.WriteString(strings.Join(acts, ";\n     "))
	if len(r.Precedes) > 0 {
		sb.WriteString("\nprecedes ")
		sb.WriteString(strings.Join(r.Precedes, ", "))
	}
	if len(r.Follows) > 0 {
		sb.WriteString("\nfollows ")
		sb.WriteString(strings.Join(r.Follows, ", "))
	}
	return sb.String()
}

// computeTriggeredBy expands the rule's trigger specs into an OpSet.
// updated with no columns expands to every column of the rule's table.
func computeTriggeredBy(table *schema.Table, specs []TriggerSpec) schema.OpSet {
	out := schema.NewOpSet()
	for _, ts := range specs {
		switch ts.Kind {
		case schema.OpInsert:
			out.Add(schema.Insert(table.Name))
		case schema.OpDelete:
			out.Add(schema.Delete(table.Name))
		case schema.OpUpdate:
			cols := ts.Columns
			if len(cols) == 0 {
				cols = table.ColumnNames()
			}
			for _, c := range cols {
				out.Add(schema.Update(table.Name, c))
			}
		}
	}
	return out
}

// SortRulesByName orders a slice of rules by name, for stable reports.
func SortRulesByName(rs []*Rule) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Name < rs[j].Name })
}

// Names returns the rule names in slice order.
func Names(rs []*Rule) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Name
	}
	return out
}
