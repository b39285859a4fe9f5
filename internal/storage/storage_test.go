package storage

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"activerules/internal/schema"
)

func testSchema(t *testing.T) *schema.Schema {
	t.Helper()
	return schema.MustParse(`
table account (id int, owner string, balance float, frozen bool)
table audit (id int, msg string)
`)
}

// restore is RestoreRows of one row, vals, under identity id.
func restore(db *DB, table string, id TupleID, vals []Value) error {
	return db.RestoreRows(table, 1, func(dst []Value) (TupleID, error) {
		copy(dst, vals)
		return id, nil
	})
}

func TestValueConstructorsAndPredicates(t *testing.T) {
	if !Null.IsNull() || IntV(1).IsNull() {
		t.Error("IsNull wrong")
	}
	if !IntV(1).IsNumeric() || !FloatV(1).IsNumeric() || StringV("x").IsNumeric() {
		t.Error("IsNumeric wrong")
	}
	if IntV(3).AsFloat() != 3.0 || FloatV(2.5).AsFloat() != 2.5 {
		t.Error("AsFloat wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("AsFloat on string should panic")
		}
	}()
	StringV("x").AsFloat()
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b  Value
		cmp   int
		known bool
	}{
		{IntV(1), IntV(2), -1, true},
		{IntV(2), IntV(2), 0, true},
		{IntV(3), FloatV(2.5), 1, true},
		{FloatV(2.0), IntV(2), 0, true},
		{StringV("a"), StringV("b"), -1, true},
		{StringV("b"), StringV("b"), 0, true},
		{BoolV(false), BoolV(true), -1, true},
		{BoolV(true), BoolV(true), 0, true},
		{Null, IntV(1), 0, false},
		{IntV(1), Null, 0, false},
		{Null, Null, 0, false},
		{IntV(1), StringV("1"), 0, false},
		{BoolV(true), IntV(1), 0, false},
		// Two ints compare exactly, beyond float64's 53-bit mantissa;
		// an int against a float still compares as float64.
		{IntV(1<<53 + 1), IntV(1 << 53), 1, true},
		{IntV(1 << 53), IntV(1<<53 + 1), -1, true},
		{IntV(math.MaxInt64), IntV(math.MaxInt64 - 1), 1, true},
		{IntV(math.MinInt64), IntV(math.MinInt64 + 1), -1, true},
		{IntV(1<<53 + 1), FloatV(1 << 53), 0, true},
	}
	for _, c := range cases {
		cmp, known := c.a.Compare(c.b)
		if known != c.known || (known && cmp != c.cmp) {
			t.Errorf("Compare(%s, %s) = %d,%v; want %d,%v", c.a, c.b, cmp, known, c.cmp, c.known)
		}
	}
	if !IntV(2).Equal(FloatV(2)) {
		t.Error("2 should Equal 2.0")
	}
	if Null.Equal(Null) {
		t.Error("null must not Equal null (SQL semantics)")
	}
}

func TestValueCoerce(t *testing.T) {
	v, err := IntV(3).Coerce(schema.Float)
	if err != nil || v.Kind != KindFloat || v.F != 3 {
		t.Errorf("int->float coerce = %v, %v", v, err)
	}
	if _, err := StringV("x").Coerce(schema.Int); err == nil {
		t.Error("string->int coerce should fail")
	}
	if _, err := FloatV(1.5).Coerce(schema.Int); err == nil {
		t.Error("float->int coerce should fail")
	}
	if v, err := Null.Coerce(schema.Bool); err != nil || !v.IsNull() {
		t.Error("null coerces to any type")
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"null":    Null,
		"42":      IntV(42),
		"-7":      IntV(-7),
		"2.5":     FloatV(2.5),
		"'it''s'": StringV("it's"),
		"true":    BoolV(true),
		"false":   BoolV(false),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String(%#v) = %q, want %q", v, got, want)
		}
	}
}

func TestInsertDeleteUpdate(t *testing.T) {
	db := NewDB(testSchema(t))
	id := db.MustInsert("account", IntV(1), StringV("ann"), FloatV(100), BoolV(false))
	if db.Table("account").Len() != 1 {
		t.Fatal("insert failed")
	}
	// int coerced to float column
	if err := db.UpdateRows("account", []string{"balance"}, []TupleID{id}, []Value{IntV(50)}); err != nil {
		t.Fatal(err)
	}
	got := db.Table("account").Get(id).Vals[2]
	if got.Kind != KindFloat || got.F != 50 {
		t.Errorf("balance after update = %v", got)
	}
	if err := db.DeleteRows("account", []TupleID{id}); err != nil || db.Table("account").Len() != 0 {
		t.Errorf("delete failed: %v", err)
	}
	if db.DeleteRows("account", []TupleID{id}) == nil {
		t.Error("double delete should fail")
	}
}

func TestInsertErrors(t *testing.T) {
	db := NewDB(testSchema(t))
	if _, err := db.Insert("nosuch", []Value{IntV(1)}); err == nil {
		t.Error("insert into missing table should fail")
	}
	if _, err := db.Insert("audit", []Value{IntV(1)}); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := db.Insert("audit", []Value{IntV(1), IntV(2)}); err == nil {
		t.Error("type mismatch should fail")
	}
}

func TestUpdateErrors(t *testing.T) {
	db := NewDB(testSchema(t))
	id := db.MustInsert("audit", IntV(1), StringV("m"))
	if err := db.UpdateRows("nosuch", []string{"msg"}, []TupleID{id}, []Value{StringV("x")}); err == nil {
		t.Error("update missing table should fail")
	}
	if err := db.UpdateRows("audit", []string{"nocol"}, []TupleID{id}, []Value{StringV("x")}); err == nil {
		t.Error("update missing column should fail")
	}
	if err := db.UpdateRows("audit", []string{"msg"}, []TupleID{id + 100}, []Value{StringV("x")}); err == nil {
		t.Error("update missing tuple should fail")
	}
	if err := db.UpdateRows("audit", []string{"msg"}, []TupleID{id}, []Value{IntV(1)}); err == nil {
		t.Error("update type mismatch should fail")
	}
}

func TestCloneIndependence(t *testing.T) {
	db := NewDB(testSchema(t))
	id := db.MustInsert("audit", IntV(1), StringV("m"))
	cl := db.Clone()
	if !db.Equal(cl) {
		t.Fatal("clone should equal original")
	}
	if err := cl.UpdateRows("audit", []string{"msg"}, []TupleID{id}, []Value{StringV("changed")}); err != nil {
		t.Fatal(err)
	}
	if db.Equal(cl) {
		t.Error("mutating the clone changed the original")
	}
	if got := db.Table("audit").Get(id).Vals[1].S; got != "m" {
		t.Errorf("original mutated: %q", got)
	}
	// Inserts into the clone must not collide with inserts into the original.
	id2 := cl.MustInsert("audit", IntV(2), StringV("a"))
	id3 := db.MustInsert("audit", IntV(3), StringV("b"))
	if id2 != id3 {
		t.Errorf("clone and original should allocate the same next ID independently: %d vs %d", id2, id3)
	}
}

func TestFingerprintIgnoresIdentityAndOrder(t *testing.T) {
	s := testSchema(t)
	a, b := NewDB(s), NewDB(s)
	a.MustInsert("audit", IntV(1), StringV("x"))
	a.MustInsert("audit", IntV(2), StringV("y"))
	// Insert in the opposite order, with different identities (burn one).
	b.MustInsert("account", IntV(9), StringV("tmp"), FloatV(0), BoolV(false))
	b.MustInsert("audit", IntV(2), StringV("y"))
	b.MustInsert("audit", IntV(1), StringV("x"))
	b.DeleteRows("account", []TupleID{1})
	if !a.Equal(b) {
		t.Error("fingerprint should ignore tuple identity and insertion order")
	}
	b.MustInsert("audit", IntV(1), StringV("x")) // duplicate row: multiset differs
	if a.Equal(b) {
		t.Error("fingerprint must distinguish multisets")
	}
}

func TestTableFingerprint(t *testing.T) {
	s := testSchema(t)
	a, b := NewDB(s), NewDB(s)
	a.MustInsert("audit", IntV(1), StringV("x"))
	b.MustInsert("audit", IntV(1), StringV("x"))
	b.MustInsert("account", IntV(1), StringV("z"), FloatV(1), BoolV(true))
	if a.TableFingerprint([]string{"audit"}) != b.TableFingerprint([]string{"AUDIT"}) {
		t.Error("audit tables are identical; partial fingerprint should match")
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("full fingerprints should differ")
	}
	if a.TableFingerprint([]string{"account"}) == b.TableFingerprint([]string{"account"}) {
		t.Error("account tables differ; partial fingerprint should differ")
	}
}

func TestScanOrderAndEarlyStop(t *testing.T) {
	db := NewDB(testSchema(t))
	for i := 0; i < 5; i++ {
		db.MustInsert("audit", IntV(int64(i)), StringV("m"))
	}
	var seen []int64
	db.Table("audit").Scan(func(tu *Tuple) bool {
		seen = append(seen, tu.Vals[0].I)
		return len(seen) < 3
	})
	if len(seen) != 3 || seen[0] != 0 || seen[1] != 1 || seen[2] != 2 {
		t.Errorf("Scan order/early-stop wrong: %v", seen)
	}
}

func TestOrderCompaction(t *testing.T) {
	db := NewDB(testSchema(t))
	var ids []TupleID
	for i := 0; i < 100; i++ {
		ids = append(ids, db.MustInsert("audit", IntV(int64(i)), StringV("m")))
	}
	for _, id := range ids[:90] {
		db.DeleteRows("audit", []TupleID{id})
	}
	tbl := db.Table("audit")
	if tbl.Len() != 10 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	if len(tbl.slots) > 40 {
		t.Errorf("slots not compacted: %d entries for 10 live rows", len(tbl.slots))
	}
	got := tbl.IDs()
	if len(got) != 10 || got[0] != ids[90] {
		t.Errorf("IDs after compaction = %v", got)
	}
}

// Property: a random sequence of operations applied to a DB and to its
// clone-of-final-state yields equal fingerprints; and Clone+mutate never
// affects the original fingerprint.
func TestRandomOpsCloneProperty(t *testing.T) {
	s := testSchema(t)
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		db := NewDB(s)
		var live []TupleID
		for i := 0; i < int(n); i++ {
			switch rng.Intn(3) {
			case 0:
				live = append(live, db.MustInsert("audit", IntV(rng.Int63n(10)), StringV("m")))
			case 1:
				if len(live) > 0 {
					k := rng.Intn(len(live))
					db.DeleteRows("audit", []TupleID{live[k]})
					live = append(live[:k], live[k+1:]...)
				}
			case 2:
				if len(live) > 0 {
					id := live[rng.Intn(len(live))]
					if err := db.UpdateRows("audit", []string{"id"}, []TupleID{id}, []Value{IntV(rng.Int63n(10))}); err != nil {
						return false
					}
				}
			}
		}
		before := db.Fingerprint()
		cl := db.Clone()
		if cl.Fingerprint() != before {
			return false
		}
		cl.MustInsert("audit", IntV(999), StringV("q"))
		return db.Fingerprint() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStringRendering(t *testing.T) {
	db := NewDB(testSchema(t))
	db.MustInsert("audit", IntV(1), StringV("x"))
	out := db.String()
	if out == "" {
		t.Error("String should render something")
	}
	if db.TotalRows() != 1 {
		t.Errorf("TotalRows = %d", db.TotalRows())
	}
}
