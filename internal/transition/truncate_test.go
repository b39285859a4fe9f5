package transition

import (
	"testing"

	"activerules/internal/storage"
)

func TestTruncateToRestoresMarkAndLastTouch(t *testing.T) {
	db, l := fixture()
	id := doInsert(db, l, "t", storage.IntV(1), storage.IntV(10))
	mark := l.Mark()
	doUpdate(db, l, "t", id, "v", storage.IntV(20))
	doInsert(db, l, "u", storage.IntV(7))
	if l.Mark() != mark+2 {
		t.Fatalf("mark = %d, want %d", l.Mark(), mark+2)
	}

	l.TruncateTo(mark)
	if l.Mark() != mark {
		t.Errorf("mark after truncate = %d, want %d", l.Mark(), mark)
	}
	// u's only entry was truncated away; t's surviving entry is index 0.
	if got := l.LastTouch("u"); got != -1 {
		t.Errorf("LastTouch(u) = %d, want -1", got)
	}
	if got := l.LastTouch("t"); got != 0 {
		t.Errorf("LastTouch(t) = %d, want 0", got)
	}

	// The suffix net from 0 must be exactly the surviving insert.
	n := ComputeTable(l, 0, db, "t")
	tn := n.Table("t")
	if tn == nil || len(tn.Inserted) != 1 || len(tn.Updated) != 0 {
		t.Errorf("unexpected net after truncate: %+v", tn)
	}
	if !ComputeTable(l, 0, db, "u").IsEmpty() {
		t.Error("truncated table u must not appear in the net")
	}
}

func TestTruncateToZeroAndNoop(t *testing.T) {
	db, l := fixture()
	doInsert(db, l, "t", storage.IntV(1), storage.IntV(10))
	l.TruncateTo(5) // beyond the end: no-op
	if l.Mark() != 1 {
		t.Errorf("mark = %d after overlong truncate", l.Mark())
	}
	l.TruncateTo(0)
	if l.Mark() != 0 || l.LastTouch("t") != -1 {
		t.Error("TruncateTo(0) must behave like Truncate")
	}
}
