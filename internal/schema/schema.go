// Package schema defines database schemas for the rule analyzer: tables,
// typed columns, and the universe of database modification operations
// O = {(I,t), (D,t), (U,t.c)} from Section 3 of Aiken, Widom, and
// Hellerstein (SIGMOD 1992).
//
// A Schema is immutable once built; all analysis and execution components
// share one Schema value. Names are case-insensitive and canonicalized to
// lower case.
package schema

import (
	"fmt"
	"sort"
	"strings"
)

// Type is the data type of a column.
type Type int

// Column types supported by the SQL subset.
const (
	Int Type = iota
	Float
	String
	Bool
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Int:
		return "int"
	case Float:
		return "float"
	case String:
		return "string"
	case Bool:
		return "bool"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// ParseType parses a type name as written in schema definition files.
func ParseType(s string) (Type, error) {
	switch strings.ToLower(s) {
	case "int", "integer":
		return Int, nil
	case "float", "real", "double":
		return Float, nil
	case "string", "text", "char", "varchar":
		return String, nil
	case "bool", "boolean":
		return Bool, nil
	default:
		return 0, fmt.Errorf("unknown column type %q", s)
	}
}

// Column is a named, typed column of a table.
type Column struct {
	Name string
	Type Type
}

// Table is a named relation with an ordered list of columns.
type Table struct {
	Name    string
	Columns []Column

	index map[string]int // column name -> position
}

// ColumnIndex returns the position of the named column, or -1 if absent.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.index[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// HasColumn reports whether the table has a column with the given name.
func (t *Table) HasColumn(name string) bool { return t.ColumnIndex(name) >= 0 }

// Column returns the column at position i.
func (t *Table) Column(i int) Column { return t.Columns[i] }

// ColumnNames returns the column names in declaration order.
func (t *Table) ColumnNames() []string {
	names := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		names[i] = c.Name
	}
	return names
}

// Schema is an immutable set of tables.
type Schema struct {
	tables map[string]*Table
	order  []string // table names in declaration order
}

// Builder incrementally constructs a Schema.
type Builder struct {
	s   *Schema
	err error
}

// NewBuilder returns an empty schema builder.
func NewBuilder() *Builder {
	return &Builder{s: &Schema{tables: make(map[string]*Table)}}
}

// Table adds a table with the given columns, specified as alternating
// name/type pairs via Col values.
func (b *Builder) Table(name string, cols ...Column) *Builder {
	if b.err != nil {
		return b
	}
	name = strings.ToLower(name)
	if name == "" {
		b.err = fmt.Errorf("schema: empty table name")
		return b
	}
	if _, dup := b.s.tables[name]; dup {
		b.err = fmt.Errorf("schema: duplicate table %q", name)
		return b
	}
	if len(cols) == 0 {
		b.err = fmt.Errorf("schema: table %q has no columns", name)
		return b
	}
	t := &Table{Name: name, index: make(map[string]int)}
	for _, c := range cols {
		cn := strings.ToLower(c.Name)
		if cn == "" {
			b.err = fmt.Errorf("schema: table %q has a column with an empty name", name)
			return b
		}
		if _, dup := t.index[cn]; dup {
			b.err = fmt.Errorf("schema: table %q has duplicate column %q", name, cn)
			return b
		}
		t.index[cn] = len(t.Columns)
		t.Columns = append(t.Columns, Column{Name: cn, Type: c.Type})
	}
	b.s.tables[name] = t
	b.s.order = append(b.s.order, name)
	return b
}

// Build finalizes the schema. The builder must not be reused afterwards.
func (b *Builder) Build() (*Schema, error) {
	if b.err != nil {
		return nil, b.err
	}
	return b.s, nil
}

// Col is a convenience constructor for a Column.
func Col(name string, typ Type) Column { return Column{Name: name, Type: typ} }

// Table returns the named table, or nil if it does not exist.
func (s *Schema) Table(name string) *Table { return s.tables[strings.ToLower(name)] }

// HasTable reports whether the schema contains the named table.
func (s *Schema) HasTable(name string) bool { return s.Table(name) != nil }

// TableNames returns all table names in declaration order.
func (s *Schema) TableNames() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// NumTables returns the number of tables.
func (s *Schema) NumTables() int { return len(s.order) }

// String renders the schema in the definition-file syntax.
func (s *Schema) String() string {
	var sb strings.Builder
	for _, name := range s.order {
		t := s.tables[name]
		sb.WriteString("table ")
		sb.WriteString(t.Name)
		sb.WriteString(" (")
		for i, c := range t.Columns {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(c.Name)
			sb.WriteByte(' ')
			sb.WriteString(c.Type.String())
		}
		sb.WriteString(")\n")
	}
	return sb.String()
}

// SortedTables returns the tables sorted by name, for deterministic output.
func (s *Schema) SortedTables() []*Table {
	names := s.TableNames()
	sort.Strings(names)
	out := make([]*Table, len(names))
	for i, n := range names {
		out[i] = s.tables[n]
	}
	return out
}
