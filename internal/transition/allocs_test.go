package transition

import (
	"testing"

	"activerules/internal/storage"
)

// raceEnabled is set by race_test.go, which only a -race build compiles.
var raceEnabled bool

// TestComputeTableAllocs is the tripwire for the pending net of a
// cascade step — four rows inserted into one table: the Net, its row
// list and one backing array for the rows' values, with the tuple
// states in the log's scratch. (23 with the states, the per-table nets,
// the changed-column set and the OpSet in maps.)
func TestComputeTableAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	db, l := fixture()
	doInsert(db, l, "u", storage.IntV(0))
	mark := l.Mark()
	for i := 0; i < 4; i++ {
		doInsert(db, l, "t", storage.IntV(int64(i)), storage.IntV(0))
	}
	var n *Net
	got := testing.AllocsPerRun(100, func() { n = ComputeTable(l, mark, db, "t") })
	if tn := n.Table("t"); tn == nil || len(tn.Inserted) != 4 {
		t.Fatalf("net = %+v, want four inserted rows", tn)
	}
	if got > 4 {
		t.Errorf("ComputeTable over a 4-insert suffix: %.0f allocations, want <= 4", got)
	}
}

// TestLogCycleAllocs: a log that has seen its tables records the next
// transaction without allocating — Truncate empties the touch index and
// keeps it.
func TestLogCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	l := &Log{}
	cycle := func() {
		l.Truncate()
		for i := 0; i < 4; i++ {
			l.RecordInsert("t", storage.TupleID(i+1))
		}
	}
	cycle() // warm: the index and the entries' backing array
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Errorf("Truncate + 4 RecordInsert on a warmed log: %.0f allocations, want 0", got)
	}
	if l.Mark() != 4 || l.LastTouch("t") != 3 || l.LastTouchKind("t", KindInsert) != 3 || l.LastTouchKind("t", KindDelete) != -1 {
		t.Errorf("after the cycles: mark %d, last touch %d", l.Mark(), l.LastTouch("t"))
	}
}
