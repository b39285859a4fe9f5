package schema

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestBuilderBasic(t *testing.T) {
	s, err := NewBuilder().
		Table("Account", Col("ID", Int), Col("Owner", String), Col("Balance", Float)).
		Table("audit", Col("id", Int), Col("msg", String)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if s.NumTables() != 2 {
		t.Fatalf("NumTables = %d, want 2", s.NumTables())
	}
	acct := s.Table("ACCOUNT") // case-insensitive lookup
	if acct == nil {
		t.Fatal("Table(ACCOUNT) = nil")
	}
	if acct.Name != "account" {
		t.Errorf("name not canonicalized: %q", acct.Name)
	}
	if got := acct.ColumnIndex("Balance"); got != 2 {
		t.Errorf("ColumnIndex(Balance) = %d, want 2", got)
	}
	if acct.ColumnIndex("missing") != -1 {
		t.Error("ColumnIndex(missing) should be -1")
	}
	if !acct.HasColumn("owner") || acct.HasColumn("nope") {
		t.Error("HasColumn wrong")
	}
	if got := s.TableNames(); got[0] != "account" || got[1] != "audit" {
		t.Errorf("TableNames = %v", got)
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*Schema, error)
	}{
		{"duplicate table", func() (*Schema, error) {
			return NewBuilder().Table("t", Col("a", Int)).Table("T", Col("a", Int)).Build()
		}},
		{"duplicate column", func() (*Schema, error) {
			return NewBuilder().Table("t", Col("a", Int), Col("A", Int)).Build()
		}},
		{"no columns", func() (*Schema, error) {
			return NewBuilder().Table("t").Build()
		}},
		{"empty table name", func() (*Schema, error) {
			return NewBuilder().Table("", Col("a", Int)).Build()
		}},
		{"empty column name", func() (*Schema, error) {
			return NewBuilder().Table("t", Col("", Int)).Build()
		}},
	}
	for _, c := range cases {
		if _, err := c.build(); err == nil {
			t.Errorf("%s: expected error, got nil", c.name)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	src := `
-- accounts and their audit trail
table account (id int, owner string, balance float, frozen bool)
# hash comments work too
table audit (
  id int,
  msg string
)
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumTables() != 2 {
		t.Fatalf("NumTables = %d, want 2", s.NumTables())
	}
	if s.Table("account").Columns[3].Type != Bool {
		t.Error("frozen should be bool")
	}
	// The printed form must reparse to an equal schema.
	s2, err := Parse(s.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if s.String() != s2.String() {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", s, s2)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"tabel t (a int)",
		"table t a int)",
		"table t (a int",
		"table t (a blob)",
		"table t (a)",
		"table",
		"table t (a int) garbage",
		"table t (a int, a int)",
		"table t (a int) table t (b int)",
		"table t (a int); -- semicolon unsupported",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseTypeAliases(t *testing.T) {
	for name, want := range map[string]Type{
		"int": Int, "INTEGER": Int, "float": Float, "REAL": Float,
		"double": Float, "string": String, "text": String, "varchar": String,
		"bool": Bool, "Boolean": Bool,
	} {
		got, err := ParseType(name)
		if err != nil || got != want {
			t.Errorf("ParseType(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
}

func TestOpConstructorsAndString(t *testing.T) {
	if got := Insert("T").String(); got != "(I,t)" {
		t.Errorf("Insert = %s", got)
	}
	if got := Delete("t").String(); got != "(D,t)" {
		t.Errorf("Delete = %s", got)
	}
	if got := Update("T", "C").String(); got != "(U,t.c)" {
		t.Errorf("Update = %s", got)
	}
}

func TestOpSetOperations(t *testing.T) {
	s := NewOpSet(Insert("a"), Delete("b"))
	if !s.Contains(Insert("a")) || s.Contains(Insert("b")) {
		t.Error("Contains wrong")
	}
	other := NewOpSet(Update("b", "x"), Delete("b"))
	if !s.Intersects(other) {
		t.Error("sets share (D,b), Intersects should be true")
	}
	if s.Intersects(NewOpSet(Update("a", "x"))) {
		t.Error("no shared op, Intersects should be false")
	}
	clone := s.Clone()
	clone.Add(Insert("z"))
	if s.Contains(Insert("z")) {
		t.Error("Clone is not independent")
	}
	s.AddAll(other)
	if s.Len() != 3 { // {(I,a), (D,b), (U,b.x)}
		t.Errorf("Len after AddAll = %d, want 3", s.Len())
	}
	if got := NewOpSet(Update("t", "c"), Insert("t")).String(); got != "{(I,t), (U,t.c)}" {
		t.Errorf("String = %s", got)
	}
}

func TestColSetOperations(t *testing.T) {
	s := NewColSet(ColRef("T", "A"), ColRef("t", "b"))
	if s.Len() != 2 {
		t.Fatalf("Len = %d (case canonicalization broken?)", s.Len())
	}
	if !s.Contains(ColRef("t", "a")) {
		t.Error("Contains(t.a) = false")
	}
	clone := s.Clone()
	clone.Add(ColRef("u", "x"))
	if s.Contains(ColRef("u", "x")) {
		t.Error("Clone is not independent")
	}
	s.AddAll(clone)
	if s.Len() != 3 {
		t.Errorf("Len after AddAll = %d, want 3", s.Len())
	}
	if got := s.String(); got != "{t.a, t.b, u.x}" {
		t.Errorf("String = %s", got)
	}
}

// Property: Intersects is symmetric and consistent with an explicit scan.
func TestOpSetIntersectsProperty(t *testing.T) {
	mk := func(bits uint8) OpSet {
		all := []Op{Insert("t"), Delete("t"), Update("t", "a"), Insert("u"), Delete("u"), Update("u", "b")}
		s := NewOpSet()
		for i, o := range all {
			if bits&(1<<i) != 0 {
				s.Add(o)
			}
		}
		return s
	}
	f := func(a, b uint8) bool {
		sa, sb := mk(a), mk(b)
		want := false
		for o := range sa {
			if sb.Contains(o) {
				want = true
			}
		}
		return sa.Intersects(sb) == want && sb.Intersects(sa) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Sorted output is deterministic and sorted.
func TestOpSetSortedProperty(t *testing.T) {
	f := func(tables []bool) bool {
		s := NewOpSet()
		for i, ins := range tables {
			name := strings.Repeat("t", i%3+1)
			if ins {
				s.Add(Insert(name))
			} else {
				s.Add(Update(name, "c"))
			}
		}
		got := s.Sorted()
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if a.Table > b.Table {
				return false
			}
			if a.Table == b.Table && a.Kind > b.Kind {
				return false
			}
		}
		return len(got) == s.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
