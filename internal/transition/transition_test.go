package transition

import (
	"testing"

	"activerules/internal/schema"
	"activerules/internal/storage"
)

func fixture() (*storage.DB, *Log) {
	sch := schema.MustParse("table t (id int, v int)\ntable u (id int)")
	return storage.NewDB(sch), &Log{}
}

// doInsert / doDelete / doUpdate apply a change to the DB and record it,
// as the engine's recording mutator does.
func doInsert(db *storage.DB, l *Log, table string, vals ...storage.Value) storage.TupleID {
	id := db.MustInsert(table, vals...)
	l.RecordInsert(table, id)
	return id
}

func doDelete(db *storage.DB, l *Log, table string, id storage.TupleID) {
	tu := db.Table(table).Get(id)
	old := make([]storage.Value, len(tu.Vals))
	copy(old, tu.Vals)
	db.Delete(table, id)
	l.RecordDelete(table, id, old)
}

func doUpdate(db *storage.DB, l *Log, table string, id storage.TupleID, col string, v storage.Value) {
	tu := db.Table(table).Get(id)
	old := make([]storage.Value, len(tu.Vals))
	copy(old, tu.Vals)
	if _, err := db.Update(table, id, col, v); err != nil {
		panic(err)
	}
	l.RecordUpdate(table, id, old)
}

func TestNetRule1CompositeUpdate(t *testing.T) {
	db, l := fixture()
	id := db.MustInsert("t", storage.IntV(1), storage.IntV(10))
	mark := l.Mark()
	doUpdate(db, l, "t", id, "v", storage.IntV(20))
	doUpdate(db, l, "t", id, "v", storage.IntV(30))
	n := ComputeTable(l, mark, db, "t")
	tn := n.Table("t")
	if tn == nil || len(tn.Updated) != 1 {
		t.Fatalf("expected one composite update, got %+v", tn)
	}
	if tn.Updated[0].Old[1].I != 10 || tn.Updated[0].New[1].I != 30 {
		t.Errorf("composite update = %v -> %v", tn.Updated[0].Old, tn.Updated[0].New)
	}
	if got := n.Ops().String(); got != "{(U,t.v)}" {
		t.Errorf("Ops = %s", got)
	}
}

func TestNetRule2UpdateThenDelete(t *testing.T) {
	db, l := fixture()
	id := db.MustInsert("t", storage.IntV(1), storage.IntV(10))
	mark := l.Mark()
	doUpdate(db, l, "t", id, "v", storage.IntV(99))
	doDelete(db, l, "t", id)
	n := ComputeTable(l, mark, db, "t")
	tn := n.Table("t")
	if len(tn.Deleted) != 1 || len(tn.Updated) != 0 {
		t.Fatalf("expected only a deletion: %+v", tn)
	}
	// The deletion is of the ORIGINAL tuple.
	if tn.Deleted[0][1].I != 10 {
		t.Errorf("deleted values = %v, want original v=10", tn.Deleted[0])
	}
	if got := n.Ops().String(); got != "{(D,t)}" {
		t.Errorf("Ops = %s", got)
	}
}

func TestNetRule3InsertThenUpdate(t *testing.T) {
	db, l := fixture()
	mark := l.Mark()
	id := doInsert(db, l, "t", storage.IntV(1), storage.IntV(10))
	doUpdate(db, l, "t", id, "v", storage.IntV(42))
	n := ComputeTable(l, mark, db, "t")
	tn := n.Table("t")
	if len(tn.Inserted) != 1 || len(tn.Updated) != 0 {
		t.Fatalf("expected only an insertion: %+v", tn)
	}
	if tn.Inserted[0][1].I != 42 {
		t.Errorf("inserted values = %v, want updated v=42", tn.Inserted[0])
	}
	if got := n.Ops().String(); got != "{(I,t)}" {
		t.Errorf("Ops = %s", got)
	}
}

func TestNetRule4InsertThenDelete(t *testing.T) {
	db, l := fixture()
	mark := l.Mark()
	id := doInsert(db, l, "t", storage.IntV(1), storage.IntV(10))
	doDelete(db, l, "t", id)
	n := ComputeTable(l, mark, db, "t")
	if !n.IsEmpty() {
		t.Fatalf("insert+delete should have no net effect: %+v", n.Table("t"))
	}
	if n.Ops().Len() != 0 {
		t.Errorf("Ops should be empty")
	}
}

func TestNetIdentityUpdateDropped(t *testing.T) {
	db, l := fixture()
	id := db.MustInsert("t", storage.IntV(1), storage.IntV(10))
	mark := l.Mark()
	doUpdate(db, l, "t", id, "v", storage.IntV(20))
	doUpdate(db, l, "t", id, "v", storage.IntV(10)) // back to original
	n := ComputeTable(l, mark, db, "t")
	if !n.IsEmpty() {
		t.Fatalf("identity composite update should vanish: %+v", n.Table("t"))
	}
}

func TestNetUpdatedColumns(t *testing.T) {
	db, l := fixture()
	a := db.MustInsert("t", storage.IntV(1), storage.IntV(10))
	b := db.MustInsert("t", storage.IntV(2), storage.IntV(20))
	mark := l.Mark()
	doUpdate(db, l, "t", a, "v", storage.IntV(11))
	doUpdate(db, l, "t", b, "id", storage.IntV(3))
	n := ComputeTable(l, mark, db, "t")
	tn := n.Table("t")
	if len(tn.UpdatedColumns) != 2 || tn.UpdatedColumns[0] != "id" || tn.UpdatedColumns[1] != "v" {
		t.Errorf("UpdatedColumns = %v", tn.UpdatedColumns)
	}
	if got := n.Ops().String(); got != "{(U,t.id), (U,t.v)}" {
		t.Errorf("Ops = %s", got)
	}
}

func TestNetSuffixSemantics(t *testing.T) {
	// A rule that has already seen the first part of the log computes its
	// net effect only over the suffix.
	db, l := fixture()
	id := doInsert(db, l, "t", storage.IntV(1), storage.IntV(10))
	mark := l.Mark() // rule considered here
	doUpdate(db, l, "t", id, "v", storage.IntV(20))
	n := ComputeTable(l, mark, db, "t")
	tn := n.Table("t")
	// From the suffix's viewpoint the tuple already existed: an update.
	if len(tn.Updated) != 1 || len(tn.Inserted) != 0 {
		t.Fatalf("suffix net should be an update: %+v", tn)
	}
	// From the start of the log it is an insertion of the updated tuple.
	n2 := ComputeTable(l, 0, db, "t")
	tn2 := n2.Table("t")
	if len(tn2.Inserted) != 1 || tn2.Inserted[0][1].I != 20 {
		t.Fatalf("full net should be insert of updated tuple: %+v", tn2)
	}
}

func TestNetMultipleTables(t *testing.T) {
	db, l := fixture()
	mark := l.Mark()
	doInsert(db, l, "t", storage.IntV(1), storage.IntV(1))
	doInsert(db, l, "u", storage.IntV(2))
	// One net per table is all the engine computes; the multi-table
	// reference sees both at once.
	for _, table := range []string{"t", "u"} {
		n := ComputeTable(l, mark, db, table)
		if tn := n.Table(table); tn == nil || len(tn.Inserted) != 1 {
			t.Errorf("net on %s = %+v, want one inserted row", table, tn)
		}
		if other := map[string]string{"t": "u", "u": "t"}[table]; n.Table(other) != nil {
			t.Errorf("net on %s carries table %s", table, other)
		}
	}
	n := refCompute(l, mark, db)
	if len(n.Tables()) != 2 {
		t.Fatalf("Tables = %v", n.Tables())
	}
	want := "{(I,t), (I,u)}"
	if got := n.Ops().String(); got != want {
		t.Errorf("Ops = %s, want %s", got, want)
	}
}

func TestUntriggeringScenario(t *testing.T) {
	// The untriggering case of Section 3: rule r1 is triggered by an
	// insert, but r2 deletes the inserted tuples before r1 is considered.
	// After r2's action, the composite transition has no (I,t) left.
	db, l := fixture()
	mark := l.Mark() // r1's viewpoint
	id := doInsert(db, l, "t", storage.IntV(1), storage.IntV(1))
	if !ComputeTable(l, mark, db, "t").Ops().Contains(schema.Insert("t")) {
		t.Fatal("r1 should initially be triggered by (I,t)")
	}
	doDelete(db, l, "t", id) // r2's action
	if ComputeTable(l, mark, db, "t").Ops().Contains(schema.Insert("t")) {
		t.Error("after deletion the composite transition should not contain (I,t): r1 untriggered")
	}
}

func TestFingerprintStability(t *testing.T) {
	// Same net content in different orders yields the same fingerprint.
	mk := func(reverse bool) [32]byte {
		db, l := fixture()
		mark := l.Mark()
		vals := [][]storage.Value{
			{storage.IntV(1), storage.IntV(1)},
			{storage.IntV(2), storage.IntV(2)},
		}
		if reverse {
			vals[0], vals[1] = vals[1], vals[0]
		}
		for _, v := range vals {
			doInsert(db, l, "t", v...)
		}
		return ComputeTable(l, mark, db, "t").TableFingerprint("t")
	}
	if mk(false) != mk(true) {
		t.Error("fingerprint should be order-independent")
	}
	// Different content differs.
	db, l := fixture()
	mark := l.Mark()
	doInsert(db, l, "t", storage.IntV(9), storage.IntV(9))
	if ComputeTable(l, mark, db, "t").TableFingerprint("t") == mk(false) {
		t.Error("different nets should have different fingerprints")
	}
	// Empty net has a stable fingerprint distinct from non-empty.
	db2, l2 := fixture()
	e1 := ComputeTable(l2, 0, db2, "t").TableFingerprint("t")
	if e1 == mk(false) {
		t.Error("empty net should differ from non-empty")
	}
}

func TestFingerprintDistinguishesKind(t *testing.T) {
	// An insert of a row and a delete of the same row must not collide.
	mkIns := func() [32]byte {
		db, l := fixture()
		mark := l.Mark()
		doInsert(db, l, "t", storage.IntV(1), storage.IntV(1))
		return ComputeTable(l, mark, db, "t").TableFingerprint("t")
	}
	mkDel := func() [32]byte {
		db, l := fixture()
		id := db.MustInsert("t", storage.IntV(1), storage.IntV(1))
		mark := l.Mark()
		doDelete(db, l, "t", id)
		return ComputeTable(l, mark, db, "t").TableFingerprint("t")
	}
	if mkIns() == mkDel() {
		t.Error("insert net and delete net of the same row must differ")
	}
}

func TestTruncate(t *testing.T) {
	db, l := fixture()
	doInsert(db, l, "t", storage.IntV(1), storage.IntV(1))
	if l.Mark() != 1 {
		t.Fatalf("Mark = %d", l.Mark())
	}
	l.Truncate()
	if l.Mark() != 0 {
		t.Fatalf("Mark after Truncate = %d", l.Mark())
	}
	if !ComputeTable(l, 0, db, "t").IsEmpty() {
		t.Error("net after truncate should be empty")
	}
}
