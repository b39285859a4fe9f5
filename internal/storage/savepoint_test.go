package storage

import (
	"fmt"
	"testing"

	"activerules/internal/schema"
)

func savepointDB(t *testing.T) *DB {
	t.Helper()
	sch, err := schema.Parse("table t (v int, s string)\ntable u (v int)")
	if err != nil {
		t.Fatal(err)
	}
	return NewDB(sch)
}

// stateKey captures everything a savepoint must restore: contents,
// iteration order, and the identity counter.
func stateKey(db *DB, tables ...string) string {
	out := ""
	for _, name := range tables {
		tbl := db.Table(name)
		out += name + "["
		tbl.Scan(func(tu *Tuple) bool {
			out += fmt.Sprintf("%d:", tu.ID)
			for _, v := range tu.Vals {
				out += v.String() + ","
			}
			out += ";"
			return true
		})
		out += "]"
	}
	return out + fmt.Sprintf("next=%d", db.nextID)
}

func TestSavepointRollbackRestoresEverything(t *testing.T) {
	db := savepointDB(t)
	a := db.MustInsert("t", IntV(1), StringV("a"))
	b := db.MustInsert("t", IntV(2), StringV("b"))
	db.MustInsert("u", IntV(9))
	before := stateKey(db, "t", "u")
	beforeFP := db.Fingerprint()

	sp := db.Savepoint()
	db.MustInsert("t", IntV(3), StringV("c"))
	if err := db.UpdateRows("t", []string{"v"}, []TupleID{a}, []Value{IntV(100)}); err != nil {
		t.Fatal(err)
	}
	db.DeleteRows("t", []TupleID{b})
	c := db.MustInsert("u", IntV(10))
	db.DeleteRows("u", []TupleID{c}) // insert-then-delete inside the savepoint
	if db.Fingerprint() == beforeFP {
		t.Fatal("mutations must change the fingerprint")
	}

	db.RollbackTo(sp)
	if db.Fingerprint() != beforeFP {
		t.Errorf("fingerprint not restored:\n%s", db.String())
	}
	if got := stateKey(db, "t", "u"); got != before {
		t.Errorf("exact state not restored:\n got %s\nwant %s", got, before)
	}
}

func TestSavepointRelease(t *testing.T) {
	db := savepointDB(t)
	sp := db.Savepoint()
	db.MustInsert("t", IntV(1), StringV("x"))
	db.Release(sp)
	if db.Table("t").Len() != 1 {
		t.Error("release must keep the mutations")
	}
	if len(db.undo) != 0 || db.spDepth != 0 {
		t.Errorf("release of outermost savepoint must clear undo state: %d entries, depth %d",
			len(db.undo), db.spDepth)
	}
}

func TestSavepointNesting(t *testing.T) {
	db := savepointDB(t)
	db.MustInsert("t", IntV(1), StringV("a"))
	outer := db.Savepoint()
	db.MustInsert("t", IntV(2), StringV("b"))
	afterOuter := db.Fingerprint()

	inner := db.Savepoint()
	db.MustInsert("t", IntV(3), StringV("c"))
	db.RollbackTo(inner)
	if db.Fingerprint() != afterOuter {
		t.Error("inner rollback must restore to the inner savepoint only")
	}

	// Released inner work must remain undoable by the outer savepoint.
	inner2 := db.Savepoint()
	db.MustInsert("t", IntV(4), StringV("d"))
	db.Release(inner2)
	if db.Table("t").Len() != 3 {
		t.Fatal("released inner savepoint must keep its insert")
	}
	db.RollbackTo(outer)
	if db.Table("t").Len() != 1 {
		t.Errorf("outer rollback must undo released inner work: %d rows", db.Table("t").Len())
	}
}

func TestSavepointDeleteKeepsOrder(t *testing.T) {
	db := savepointDB(t)
	var ids []TupleID
	for i := 0; i < 40; i++ {
		ids = append(ids, db.MustInsert("t", IntV(int64(i)), StringV("x")))
	}
	before := stateKey(db, "t")
	sp := db.Savepoint()
	// Mass deletion would normally trigger order compaction; under a
	// savepoint it must not, so rollback restores iteration order.
	for _, id := range ids[:35] {
		db.DeleteRows("t", []TupleID{id})
	}
	db.RollbackTo(sp)
	if got := stateKey(db, "t"); got != before {
		t.Errorf("iteration order lost across rollback:\n got %s\nwant %s", got, before)
	}
	// With no savepoint active, compaction is back on and harmless.
	for _, id := range ids[:35] {
		db.DeleteRows("t", []TupleID{id})
	}
	if db.Table("t").Len() != 5 {
		t.Errorf("post-release deletes lost: %d rows", db.Table("t").Len())
	}
}

// TestSavepointRollbackAfterRevive: undoing a restore that revived the
// last slot takes the slot out, and the unDelete that follows must put
// the deleted row back in its sorted place.
func TestSavepointRollbackAfterRevive(t *testing.T) {
	db := savepointDB(t)
	db.MustInsert("t", IntV(1), StringV("a"))
	last := db.MustInsert("t", IntV(2), StringV("b"))
	before := stateKey(db, "t")
	sp := db.Savepoint()
	db.DeleteRows("t", []TupleID{last})
	if err := restore(db, "t", last, []Value{IntV(3), StringV("c")}); err != nil {
		t.Fatal(err)
	}
	db.RollbackTo(sp)
	if got := stateKey(db, "t"); got != before {
		t.Errorf("rollback after a revive:\n got %s\nwant %s", got, before)
	}
}

func TestSavepointRestoresNextID(t *testing.T) {
	db := savepointDB(t)
	sp := db.Savepoint()
	first := db.MustInsert("t", IntV(1), StringV("a"))
	db.RollbackTo(sp)
	again := db.MustInsert("t", IntV(1), StringV("a"))
	if first != again {
		t.Errorf("identity allocation must replay after rollback: %d vs %d", first, again)
	}
}

func TestCloneDropsSavepointState(t *testing.T) {
	db := savepointDB(t)
	sp := db.Savepoint()
	db.MustInsert("t", IntV(1), StringV("a"))
	clone := db.Clone()
	db.RollbackTo(sp)
	if clone.Table("t").Len() != 1 {
		t.Error("clone must be unaffected by the original's rollback")
	}
	if clone.spDepth != 0 || len(clone.undo) != 0 {
		t.Error("clone must not inherit savepoint bookkeeping")
	}
}

// TestOrderCompactedAcrossSavepoints drives the served path's shape —
// every mutation under a savepoint, nested one level like the engine's
// transaction and consideration — and checks tombstones do not outlive
// their transaction: the slot slice stays within a constant multiple of
// the live rows however many insert/delete transactions have run.
func TestOrderCompactedAcrossSavepoints(t *testing.T) {
	db := savepointDB(t)
	const live = 5
	var ids []TupleID
	for i := 0; i < live; i++ {
		ids = append(ids, db.MustInsert("t", IntV(int64(i)), StringV("x")))
	}
	for i := 0; i < 10000; i++ {
		tx := db.Savepoint()
		inner := db.Savepoint()
		ids = append(ids, db.MustInsert("t", IntV(int64(i)), StringV("y")))
		db.DeleteRows("t", []TupleID{ids[0]})
		ids = ids[1:]
		db.Release(inner)
		db.Release(tx)
		tbl := db.Table("t")
		if tbl.Len() != live {
			t.Fatalf("transaction %d: %d live rows, want %d", i, tbl.Len(), live)
		}
		if bound := 4*live + 16; len(tbl.slots) > bound {
			t.Fatalf("transaction %d: the table holds %d slots for %d live rows (bound %d): tombstones are not compacted",
				i, len(tbl.slots), live, bound)
		}
	}
	if got := db.Table("t").IDs(); fmt.Sprint(got) != fmt.Sprint(ids) {
		t.Errorf("iteration order lost across compactions:\n got %v\nwant %v", got, ids)
	}
	if len(db.Table("u").slots) != 0 {
		t.Error("a table no transaction deleted from must not be touched")
	}
}

// TestForkCarriesSavepointState pins the copy the engine forks a live
// transaction with: unlike Clone, the fork can roll back to a savepoint
// taken on the original — exactly (contents, order, identity counter) —
// and neither side's rollback touches the other.
func TestForkCarriesSavepointState(t *testing.T) {
	db := savepointDB(t)
	var ids []TupleID
	for i := 0; i < 40; i++ {
		ids = append(ids, db.MustInsert("t", IntV(int64(i)), StringV("x")))
	}
	db.MustInsert("u", IntV(9))
	atSavepoint := stateKey(db, "t", "u")

	sp := db.Savepoint()
	for _, id := range ids[2:38] { // mass delete: tombstones must survive the fork
		db.DeleteRows("t", []TupleID{id})
	}
	if err := db.UpdateRows("t", []string{"v"}, []TupleID{ids[0]}, []Value{IntV(100)}); err != nil {
		t.Fatal(err)
	}
	db.DeleteRows("t", []TupleID{ids[0]}) // update-then-delete of one tuple
	db.MustInsert("t", IntV(41), StringV("new"))
	inner := db.Savepoint()
	db.MustInsert("u", IntV(10))
	midTransaction := stateKey(db, "t", "u")

	fork := db.Fork()
	if got := stateKey(fork, "t", "u"); got != midTransaction {
		t.Fatalf("fork differs from the original:\n got %s\nwant %s", got, midTransaction)
	}
	fork.RollbackTo(inner)
	fork.RollbackTo(sp)
	if got := stateKey(fork, "t", "u"); got != atSavepoint {
		t.Errorf("fork rollback did not restore the savepoint state:\n got %s\nwant %s", got, atSavepoint)
	}
	if fork.spDepth != 0 || len(fork.undo) != 0 {
		t.Errorf("fork rollback left savepoint state: depth %d, %d undo records", fork.spDepth, len(fork.undo))
	}
	if got := stateKey(db, "t", "u"); got != midTransaction {
		t.Errorf("fork rollback touched the original:\n got %s\nwant %s", got, midTransaction)
	}

	fork = db.Fork()
	db.RollbackTo(sp)
	if got := stateKey(db, "t", "u"); got != atSavepoint {
		t.Errorf("original rollback did not restore the savepoint state:\n got %s\nwant %s", got, atSavepoint)
	}
	if got := stateKey(fork, "t", "u"); got != midTransaction {
		t.Errorf("original rollback touched the fork:\n got %s\nwant %s", got, midTransaction)
	}
}
