package storage

import (
	"testing"

	"activerules/internal/schema"
)

// TestHoldersAnswers: a column's first probe asks for a scan and builds
// nothing; from its second, a probe counts a value's live holders and
// names the one holder while the index knows it; nulls, floats, bools
// and a value of another kind are not indexed and ask for a scan. A
// Clone and a Fork start without their original's indexes or marks and
// build their own, so a copy's changes never reach the original's.
func TestHoldersAnswers(t *testing.T) {
	db := NewDB(schema.MustParse("table t (id int, s string, f float, b bool)"))
	tbl := db.Table("t")
	ids := map[int64]TupleID{}
	for i, s := range []string{"x", "y", "x", ""} {
		ids[int64(i)] = db.MustInsert("t", IntV(int64(i)), StringV(s), FloatV(1), BoolV(true))
	}
	db.MustInsert("t", Null, Null, Null, Null)
	type answer struct {
		n   int
		one TupleID
		ok  bool
	}
	probe := func(tbl *Table, col int, v Value) answer {
		n, one, ok := tbl.Holders(col, v)
		a := answer{n: n, ok: ok}
		if one != nil {
			a.one = one.ID
		}
		return a
	}
	for col, v := range []Value{IntV(2), StringV("y")} {
		if got := probe(tbl, col, v); got != (answer{}) {
			t.Errorf("the first probe of column %d: %+v; want a scan", col, got)
		}
	}
	if n := indexes(tbl); n != 0 {
		t.Fatalf("%d indexes built by first probes, want none", n)
	}
	for _, c := range []struct {
		col  int
		v    Value
		want answer
	}{
		{0, IntV(2), answer{1, ids[2], true}},
		{0, IntV(9), answer{0, 0, true}},
		{1, StringV("y"), answer{1, ids[1], true}},
		{1, StringV("x"), answer{2, 0, true}},
		{1, StringV(""), answer{1, ids[3], true}},
		{0, Null, answer{}},
		{1, Null, answer{}},
		{0, StringV("2"), answer{}},
		{0, FloatV(2), answer{}},
		{2, FloatV(1), answer{}},
		{3, BoolV(true), answer{}},
	} {
		if got := probe(tbl, c.col, c.v); got != c.want {
			t.Errorf("Holders(%d, %v) = %+v, want %+v", c.col, c.v, got, c.want)
		}
	}
	if n := indexes(tbl); n != 2 {
		t.Fatalf("%d indexes built, want the two of the int and string columns", n)
	}
	db.DeleteRows("t", []TupleID{ids[0]}) // x's known holder: the other one is not known
	if got := probe(tbl, 1, StringV("x")); got != (answer{1, 0, true}) {
		t.Errorf("after its known holder went, x: %+v; want one holder, not known", got)
	}
	for _, c := range []*DB{db.Clone(), db.Fork()} {
		ct := c.Table("t")
		if n := indexes(ct); n != 0 || ct.probed != 0 {
			t.Fatalf("a copy starts with %d indexes and marks %b", n, ct.probed)
		}
		if err := c.UpdateRows("t", []string{"id"}, []TupleID{ct.IDs()[0]}, []Value{IntV(7)}); err != nil {
			t.Fatal(err)
		}
		if got := probe(ct, 0, IntV(7)); got.ok {
			t.Errorf("a copy's first probe: %+v; want a scan", got)
		}
		if got := probe(ct, 0, IntV(7)); got.n != 1 || !got.ok {
			t.Errorf("the copy's own index: 7 has %+v", got)
		}
		if got := probe(tbl, 0, IntV(7)); got.n != 0 {
			t.Errorf("a copy's update reached the original's index: %+v", got)
		}
	}
	if err := indexErr(tbl); err != nil {
		t.Error(err)
	}
}

// indexes counts t's built equality indexes.
func indexes(t *Table) int {
	n := 0
	for ix := t.idx; ix != nil; ix = ix.next {
		n++
	}
	return n
}
