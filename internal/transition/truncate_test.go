package transition_test

import (
	"testing"

	"activerules/internal/storage"
)

// A failed script or consideration is a savepoint rollback: the history
// returns to the savepoint's position, the tables' last changes with it.
func TestTruncateToRestoresMarkAndLastTouch(t *testing.T) {
	db, l := fixture()
	id := doInsert(l, "t", storage.IntV(1), storage.IntV(10))
	mark := l.Mark()
	sp := db.Savepoint()
	doUpdate(l, "t", id, "v", storage.IntV(20))
	doInsert(l, "u", storage.IntV(7))
	if l.Mark() != mark+2 {
		t.Fatalf("mark = %d, want %d", l.Mark(), mark+2)
	}

	db.RollbackTo(sp)
	if l.Mark() != mark || db.HistoryLen() != mark {
		t.Errorf("mark after the rollback = %d (history %d), want %d", l.Mark(), db.HistoryLen(), mark)
	}
	// u's only entry was rolled back; t's surviving entry is index 0.
	if got := db.Table("u").LastChange(); got != -1 {
		t.Errorf("LastChange(u) = %d, want -1", got)
	}
	if got := db.Table("t").LastChange(); got != 0 {
		t.Errorf("LastChange(t) = %d, want 0", got)
	}

	// The suffix net from 0 must be exactly the surviving insert.
	tn := compute(db, 0, "t").Table("t")
	if tn == nil || len(tn.Inserted) != 1 || len(tn.Updated) != 0 || tn.Inserted[0][1].I != 10 {
		t.Errorf("unexpected net after the rollback: %+v", tn)
	}
	if !compute(db, 0, "u").IsEmpty() {
		t.Error("rolled-back table u must not appear in the net")
	}
}

func TestTruncateToZeroAndNoop(t *testing.T) {
	db, l := fixture()
	sp := db.Savepoint()
	gen := db.HistoryGen()
	db.RollbackTo(sp) // nothing to undo: no-op
	if db.HistoryGen() != gen {
		t.Error("a rollback that undoes nothing must not move the generation")
	}
	doInsert(l, "t", storage.IntV(1), storage.IntV(10))
	if l.Mark() != 1 {
		t.Errorf("mark = %d after an empty rollback and an insert", l.Mark())
	}
	// A mark past the end of the history sees nothing.
	if !compute(db, 5, "t").IsEmpty() {
		t.Error("a mark beyond the history must yield the empty net")
	}
	db.RollbackTo(l.tx)
	if l.Mark() != 0 || db.Table("t").LastChange() != -1 || db.HistoryGen() == gen {
		t.Error("rolling the transaction back must empty the history")
	}
}
