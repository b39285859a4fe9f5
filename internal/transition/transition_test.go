package transition_test

import (
	"testing"

	"activerules/internal/schema"
	"activerules/internal/storage"
)

// fixture is an empty two-table database with a transaction open on it
// and the reference's recorder driving it.
func fixture() (*storage.DB, *recorder) {
	db := storage.NewDB(schema.MustParse("table t (id int, v int)\ntable u (id int)"))
	return db, record(db)
}

// doInsert / doDelete / doUpdate apply a one-row statement to the DB
// through the recorder, as the engine's mutator would.
func doInsert(l *recorder, table string, vals ...storage.Value) storage.TupleID {
	id := l.db.NextID()
	if _, err := l.Insert(table, [][]storage.Value{vals}); err != nil {
		panic(err)
	}
	return id
}

func doDelete(l *recorder, table string, id storage.TupleID) {
	if err := l.Delete(table, []storage.TupleID{id}); err != nil {
		panic(err)
	}
}

func doUpdate(l *recorder, table string, id storage.TupleID, col string, v storage.Value) {
	if err := l.Update(table, []string{col}, []storage.TupleID{id}, []storage.Value{v}); err != nil {
		panic(err)
	}
}

func TestNetRule1CompositeUpdate(t *testing.T) {
	db, l := fixture()
	id := doInsert(l, "t", storage.IntV(1), storage.IntV(10))
	mark := l.Mark()
	doUpdate(l, "t", id, "v", storage.IntV(20))
	doUpdate(l, "t", id, "v", storage.IntV(30))
	n := compute(db, mark, "t")
	tn := n.Table("t")
	if tn == nil || len(tn.Updated) != 1 {
		t.Fatalf("expected one composite update, got %+v", tn)
	}
	if tn.Updated[0].Old[1].I != 10 || tn.Updated[0].New[1].I != 30 {
		t.Errorf("composite update = %v -> %v", tn.Updated[0].Old, tn.Updated[0].New)
	}
	if got := netOps(n, "t").String(); got != "{(U,t.v)}" {
		t.Errorf("Ops = %s", got)
	}
}

func TestNetRule2UpdateThenDelete(t *testing.T) {
	db, l := fixture()
	id := doInsert(l, "t", storage.IntV(1), storage.IntV(10))
	mark := l.Mark()
	doUpdate(l, "t", id, "v", storage.IntV(99))
	doDelete(l, "t", id)
	n := compute(db, mark, "t")
	tn := n.Table("t")
	if len(tn.Deleted) != 1 || len(tn.Updated) != 0 {
		t.Fatalf("expected only a deletion: %+v", tn)
	}
	// The deletion is of the ORIGINAL tuple.
	if tn.Deleted[0][1].I != 10 {
		t.Errorf("deleted values = %v, want original v=10", tn.Deleted[0])
	}
	if got := netOps(n, "t").String(); got != "{(D,t)}" {
		t.Errorf("Ops = %s", got)
	}
}

func TestNetRule3InsertThenUpdate(t *testing.T) {
	db, l := fixture()
	mark := l.Mark()
	id := doInsert(l, "t", storage.IntV(1), storage.IntV(10))
	doUpdate(l, "t", id, "v", storage.IntV(42))
	n := compute(db, mark, "t")
	tn := n.Table("t")
	if len(tn.Inserted) != 1 || len(tn.Updated) != 0 {
		t.Fatalf("expected only an insertion: %+v", tn)
	}
	if tn.Inserted[0][1].I != 42 {
		t.Errorf("inserted values = %v, want updated v=42", tn.Inserted[0])
	}
	if got := netOps(n, "t").String(); got != "{(I,t)}" {
		t.Errorf("Ops = %s", got)
	}
}

func TestNetRule4InsertThenDelete(t *testing.T) {
	db, l := fixture()
	mark := l.Mark()
	id := doInsert(l, "t", storage.IntV(1), storage.IntV(10))
	doDelete(l, "t", id)
	n := compute(db, mark, "t")
	if !n.IsEmpty() {
		t.Fatalf("insert+delete should have no net effect: %+v", n.Table("t"))
	}
	if netOps(n, "t").Len() != 0 {
		t.Errorf("Ops should be empty")
	}
}

func TestNetIdentityUpdateDropped(t *testing.T) {
	db, l := fixture()
	id := doInsert(l, "t", storage.IntV(1), storage.IntV(10))
	mark := l.Mark()
	doUpdate(l, "t", id, "v", storage.IntV(20))
	doUpdate(l, "t", id, "v", storage.IntV(10)) // back to original
	n := compute(db, mark, "t")
	if !n.IsEmpty() {
		t.Fatalf("identity composite update should vanish: %+v", n.Table("t"))
	}
}

func TestNetUpdatedColumns(t *testing.T) {
	db, l := fixture()
	a := doInsert(l, "t", storage.IntV(1), storage.IntV(10))
	b := doInsert(l, "t", storage.IntV(2), storage.IntV(20))
	mark := l.Mark()
	doUpdate(l, "t", a, "v", storage.IntV(11))
	doUpdate(l, "t", b, "id", storage.IntV(3))
	n := compute(db, mark, "t")
	tn := n.Table("t")
	if len(tn.UpdatedColumns) != 2 || tn.UpdatedColumns[0] != "id" || tn.UpdatedColumns[1] != "v" {
		t.Errorf("UpdatedColumns = %v", tn.UpdatedColumns)
	}
	if got := netOps(n, "t").String(); got != "{(U,t.id), (U,t.v)}" {
		t.Errorf("Ops = %s", got)
	}
}

func TestNetSuffixSemantics(t *testing.T) {
	// A rule that has already seen the first part of the log computes its
	// net effect only over the suffix.
	db, l := fixture()
	id := doInsert(l, "t", storage.IntV(1), storage.IntV(10))
	mark := l.Mark() // rule considered here
	doUpdate(l, "t", id, "v", storage.IntV(20))
	n := compute(db, mark, "t")
	tn := n.Table("t")
	// From the suffix's viewpoint the tuple already existed: an update.
	if len(tn.Updated) != 1 || len(tn.Inserted) != 0 {
		t.Fatalf("suffix net should be an update: %+v", tn)
	}
	// From the start of the log it is an insertion of the updated tuple.
	n2 := compute(db, 0, "t")
	tn2 := n2.Table("t")
	if len(tn2.Inserted) != 1 || tn2.Inserted[0][1].I != 20 {
		t.Fatalf("full net should be insert of updated tuple: %+v", tn2)
	}
}

func TestNetMultipleTables(t *testing.T) {
	db, l := fixture()
	mark := l.Mark()
	doInsert(l, "t", storage.IntV(1), storage.IntV(1))
	doInsert(l, "u", storage.IntV(2))
	// One net per table is all the engine computes; the multi-table
	// reference sees both at once.
	for _, table := range []string{"t", "u"} {
		n := compute(db, mark, table)
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
	id := doInsert(l, "t", storage.IntV(1), storage.IntV(1))
	if !netOps(compute(db, mark, "t"), "t").Contains(schema.Insert("t")) {
		t.Fatal("r1 should initially be triggered by (I,t)")
	}
	doDelete(l, "t", id) // r2's action
	if netOps(compute(db, mark, "t"), "t").Contains(schema.Insert("t")) {
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
			doInsert(l, "t", v...)
		}
		return compute(db, mark, "t").TableFingerprint("t")
	}
	if mk(false) != mk(true) {
		t.Error("fingerprint should be order-independent")
	}
	// Different content differs.
	db, l := fixture()
	mark := l.Mark()
	doInsert(l, "t", storage.IntV(9), storage.IntV(9))
	if compute(db, mark, "t").TableFingerprint("t") == mk(false) {
		t.Error("different nets should have different fingerprints")
	}
	// Empty net has a stable fingerprint distinct from non-empty.
	db2, _ := fixture()
	e1 := compute(db2, 0, "t").TableFingerprint("t")
	if e1 == mk(false) {
		t.Error("empty net should differ from non-empty")
	}
}

func TestFingerprintDistinguishesKind(t *testing.T) {
	// An insert of a row and a delete of the same row must not collide.
	mkIns := func() [32]byte {
		db, l := fixture()
		mark := l.Mark()
		doInsert(l, "t", storage.IntV(1), storage.IntV(1))
		return compute(db, mark, "t").TableFingerprint("t")
	}
	mkDel := func() [32]byte {
		db, l := fixture()
		id := doInsert(l, "t", storage.IntV(1), storage.IntV(1))
		mark := l.Mark()
		doDelete(l, "t", id)
		return compute(db, mark, "t").TableFingerprint("t")
	}
	if mkIns() == mkDel() {
		t.Error("insert net and delete net of the same row must differ")
	}
}

// TestTruncate: the end of the transaction — the outermost release —
// empties the history, and with it every net.
func TestTruncate(t *testing.T) {
	db, l := fixture()
	doInsert(l, "t", storage.IntV(1), storage.IntV(1))
	if l.Mark() != 1 || db.HistoryLen() != 1 {
		t.Fatalf("Mark = %d, history %d", l.Mark(), db.HistoryLen())
	}
	gen := db.HistoryGen()
	db.Release(l.tx)
	if l.Mark() != 0 || db.HistoryGen() == gen {
		t.Fatalf("Mark after the release = %d, generation %d -> %d", l.Mark(), gen, db.HistoryGen())
	}
	if !compute(db, 0, "t").IsEmpty() {
		t.Error("net after the release should be empty")
	}
}

// TestNetAliasesNoStorageRow: every row of a Net is the Net's own. A
// rolled-back delete puts the very tuple object the history held back
// into the table, and later updates write it in place; the Net computed
// before that keeps the rows, and the digest, it was computed with.
func TestNetAliasesNoStorageRow(t *testing.T) {
	db, l := fixture()
	a := doInsert(l, "t", storage.IntV(1), storage.IntV(10))
	b := doInsert(l, "t", storage.IntV(2), storage.IntV(20))
	mark := l.Mark()
	sp := db.Savepoint()
	doUpdate(l, "t", a, "v", storage.IntV(11))
	doDelete(l, "t", b)
	// The same history over a fork's tuples: an equal net that shares
	// nothing with db.
	net, twin := compute(db, mark, "t"), compute(db.Fork(), mark, "t")

	db.RollbackTo(sp)
	doUpdate(l, "t", a, "v", storage.IntV(98))
	doUpdate(l, "t", b, "id", storage.IntV(97))
	doUpdate(l, "t", b, "v", storage.IntV(99))

	tn := net.Table("t")
	if len(tn.Deleted) != 1 || tn.Deleted[0][0].I != 2 || tn.Deleted[0][1].I != 20 {
		t.Errorf("deleted rows after the tuple was revived and rewritten: %v", tn.Deleted)
	}
	if len(tn.Updated) != 1 || tn.Updated[0].Old[1].I != 10 || tn.Updated[0].New[1].I != 11 {
		t.Errorf("updated rows after the tuple was restored and rewritten: %v", tn.Updated)
	}
	if d := diffTableNets(tn, twin.Table("t")); d != "" {
		t.Errorf("the net moved with storage: %s", d)
	}
	if net.TableFingerprint("t") != twin.TableFingerprint("t") {
		t.Error("the net's digest moved with storage")
	}
}
