package transition_test

import (
	"testing"

	"activerules/internal/schema"
	"activerules/internal/storage"
	"activerules/internal/transition"
)

// raceEnabled is set by race_test.go, which only a -race build compiles.
var raceEnabled bool

// TestComputeTableAllocs is the tripwire for the pending net of a
// cascade step — four rows inserted into one table: the Net, its row
// list and one backing array for the rows' values, with the tuple
// states in the caller's scratch. (23 with the states, the per-table
// nets, the changed-column set and the OpSet in maps.) A net with
// deleted and updated rows costs the same three lists and one array:
// their old values are carved from it too, not copied per primitive.
func TestComputeTableAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	db, l := fixture()
	doInsert(l, "u", storage.IntV(0))
	mark := l.Mark()
	for i := 0; i < 4; i++ {
		doInsert(l, "t", storage.IntV(int64(i)), storage.IntV(0))
	}
	var n *transition.Net
	sc, tab := &transition.Scratch{}, db.Table("t")
	got := testing.AllocsPerRun(100, func() { n = transition.ComputeTable(db, mark, tab, sc, nil) })
	if tn := n.Table("t"); tn == nil || len(tn.Inserted) != 4 {
		t.Fatalf("net = %+v, want four inserted rows", tn)
	}
	if got > 4 {
		t.Errorf("ComputeTable over a 4-insert suffix: %.0f allocations, want <= 4", got)
	}

	ids := db.Table("t").IDs()
	mark = l.Mark()
	doUpdate(l, "t", ids[0], "id", storage.IntV(7))
	doUpdate(l, "t", ids[0], "v", storage.IntV(7))
	doUpdate(l, "t", ids[1], "v", storage.IntV(8))
	doDelete(l, "t", ids[1])
	doDelete(l, "t", ids[2])
	got = testing.AllocsPerRun(100, func() { n = transition.ComputeTable(db, mark, tab, sc, nil) })
	if tn := n.Table("t"); tn == nil || len(tn.Updated) != 1 || len(tn.Deleted) != 2 {
		t.Fatalf("net = %+v, want one updated and two deleted rows", tn)
	}
	if got > 6 { // Net, three lists, the backing array, the updated-column names
		t.Errorf("ComputeTable over updates and deletes: %.0f allocations, want <= 6", got)
	}

	// Refilled, a net as large as the one it overwrites allocates nothing:
	// the same net comes back with its array and lists.
	reuse := n
	got = testing.AllocsPerRun(100, func() { n = transition.ComputeTable(db, mark, tab, sc, reuse) })
	if n != reuse || len(n.Table("t").Updated) != 1 {
		t.Fatalf("refill returned %p (%+v), want the net it was handed", n, n.Table("t"))
	}
	if got != 0 {
		t.Errorf("ComputeTable refilling a net of its size: %.0f allocations, want 0", got)
	}
}

// TestLogCycleAllocs: a database that has seen a transaction records the
// next one without allocating for the history — the outermost release
// empties the record and the tables' positions in it, and keeps the
// memory. What is left is what an insert stores: the tuple and its values.
func TestLogCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	db := storage.NewDB(schema.MustParse("table t (id int, v int)"))
	vals := []storage.Value{storage.IntV(1), storage.IntV(2)}
	bare := func() {
		for i := 0; i < 4; i++ {
			db.Insert("t", vals)
		}
	}
	cycle := func() {
		sp := db.Savepoint()
		bare()
		db.Release(sp)
	}
	cycle() // warm: the history's backing array
	recorded, unrecorded := testing.AllocsPerRun(100, cycle), testing.AllocsPerRun(100, bare)
	if recorded != unrecorded {
		t.Errorf("a warmed transaction of 4 inserts: %.0f allocations, %.0f with no history kept", recorded, unrecorded)
	}
	sp := db.Savepoint()
	bare()
	tab := db.Table("t")
	if db.HistoryLen() != 4 || tab.LastChange() != 3 || tab.LastChangeOf(storage.ChangeInsert) != 3 || tab.LastChangeOf(storage.ChangeDelete) != -1 {
		t.Errorf("after the cycles: history %d, last change %d", db.HistoryLen(), tab.LastChange())
	}
	db.Release(sp)
}
