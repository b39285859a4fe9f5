package schema

import (
	"fmt"
	"sort"
	"strings"
)

// OpKind distinguishes the three database modification operations of the
// operation universe O (Section 3): insert, delete, and column update.
type OpKind int

// The three operation kinds.
const (
	OpInsert OpKind = iota // (I, t)
	OpDelete               // (D, t)
	OpUpdate               // (U, t.c)
)

// String returns "insert", "delete", or "update".
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpUpdate:
		return "update"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one element of the operation universe O: (I,t), (D,t), or (U,t.c).
// Column is empty unless Kind is OpUpdate. Ops are comparable and may be
// used as map keys.
type Op struct {
	Kind   OpKind
	Table  string
	Column string // only for OpUpdate
}

// Insert returns the operation (I, t).
func Insert(table string) Op { return Op{Kind: OpInsert, Table: strings.ToLower(table)} }

// Delete returns the operation (D, t).
func Delete(table string) Op { return Op{Kind: OpDelete, Table: strings.ToLower(table)} }

// Update returns the operation (U, t.c).
func Update(table, column string) Op {
	return Op{Kind: OpUpdate, Table: strings.ToLower(table), Column: strings.ToLower(column)}
}

// String renders the op as in the paper: "(I,t)", "(D,t)", or "(U,t.c)".
func (o Op) String() string {
	switch o.Kind {
	case OpInsert:
		return "(I," + o.Table + ")"
	case OpDelete:
		return "(D," + o.Table + ")"
	case OpUpdate:
		return "(U," + o.Table + "." + o.Column + ")"
	default:
		return fmt.Sprintf("(?%d,%s)", int(o.Kind), o.Table)
	}
}

// OpSet is a set of operations. The zero value is an empty, usable set for
// reads; use NewOpSet or Add for writes.
type OpSet map[Op]struct{}

// NewOpSet returns a set containing the given operations.
func NewOpSet(ops ...Op) OpSet {
	s := make(OpSet, len(ops))
	for _, o := range ops {
		s[o] = struct{}{}
	}
	return s
}

// Add inserts op into the set.
func (s OpSet) Add(op Op) { s[op] = struct{}{} }

// AddAll inserts every operation of other into the set.
func (s OpSet) AddAll(other OpSet) {
	for o := range other {
		s[o] = struct{}{}
	}
}

// Contains reports whether op is in the set.
func (s OpSet) Contains(op Op) bool {
	_, ok := s[op]
	return ok
}

// Intersects reports whether the two sets share any operation.
func (s OpSet) Intersects(other OpSet) bool {
	small, large := s, other
	if len(large) < len(small) {
		small, large = large, small
	}
	for o := range small {
		if _, ok := large[o]; ok {
			return true
		}
	}
	return false
}

// Len returns the number of operations in the set.
func (s OpSet) Len() int { return len(s) }

// Clone returns an independent copy of the set.
func (s OpSet) Clone() OpSet {
	out := make(OpSet, len(s))
	for o := range s {
		out[o] = struct{}{}
	}
	return out
}

// Sorted returns the operations in a deterministic order (by table, kind,
// column), for stable reports and tests.
func (s OpSet) Sorted() []Op {
	out := make([]Op, 0, len(s))
	for o := range s {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Column < b.Column
	})
	return out
}

// String renders the set as "{(I,t), (U,t.c)}" in deterministic order.
func (s OpSet) String() string {
	ops := s.Sorted()
	parts := make([]string, len(ops))
	for i, o := range ops {
		parts[i] = o.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// ColumnRef identifies a column t.c in the set C of Section 3. ColumnRefs
// are comparable and may be used as map keys.
type ColumnRef struct {
	Table  string
	Column string
}

// ColRef constructs a ColumnRef with canonicalized names.
func ColRef(table, column string) ColumnRef {
	return ColumnRef{Table: strings.ToLower(table), Column: strings.ToLower(column)}
}

// String renders the reference as "t.c".
func (c ColumnRef) String() string { return c.Table + "." + c.Column }

// ColSet is a set of column references (the Reads sets of Section 3).
type ColSet map[ColumnRef]struct{}

// NewColSet returns a set containing the given column references.
func NewColSet(refs ...ColumnRef) ColSet {
	s := make(ColSet, len(refs))
	for _, r := range refs {
		s[r] = struct{}{}
	}
	return s
}

// Add inserts ref into the set.
func (s ColSet) Add(ref ColumnRef) { s[ref] = struct{}{} }

// AddAll inserts every reference of other into the set.
func (s ColSet) AddAll(other ColSet) {
	for r := range other {
		s[r] = struct{}{}
	}
}

// Contains reports whether ref is in the set.
func (s ColSet) Contains(ref ColumnRef) bool {
	_, ok := s[ref]
	return ok
}

// Len returns the number of references in the set.
func (s ColSet) Len() int { return len(s) }

// Clone returns an independent copy of the set.
func (s ColSet) Clone() ColSet {
	out := make(ColSet, len(s))
	for r := range s {
		out[r] = struct{}{}
	}
	return out
}

// Sorted returns the references sorted by table then column.
func (s ColSet) Sorted() []ColumnRef {
	out := make([]ColumnRef, 0, len(s))
	for r := range s {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Column < out[j].Column
	})
	return out
}

// String renders the set as "{t.a, t.b}" in deterministic order.
func (s ColSet) String() string {
	refs := s.Sorted()
	parts := make([]string, len(refs))
	for i, r := range refs {
		parts[i] = r.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
