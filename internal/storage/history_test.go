package storage

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestDroppedHistoryIsZeroed: a rollback and the outermost release drop
// history entries by clearing them, not by reslicing over them — a
// resliced entry keeps its deleted tuple and its table reachable from the
// slice's spare capacity until a later transaction happens to overwrite
// the slot.
func TestDroppedHistoryIsZeroed(t *testing.T) {
	db := savepointDB(t)
	var ids []TupleID
	for i := 0; i < 8; i++ {
		ids = append(ids, db.MustInsert("t", IntV(int64(i)), StringV("x")))
	}
	spare := func(when string) {
		t.Helper()
		for i, u := range db.undo[:cap(db.undo)] {
			if i >= len(db.undo) && u != (Change{}) {
				t.Fatalf("%s: dropped entry %d still holds %+v", when, i, u)
			}
		}
	}
	tx := db.Savepoint()
	db.DeleteRows("t", []TupleID{ids[0]})
	sp := db.Savepoint()
	for _, id := range ids[1:] {
		db.DeleteRows("t", []TupleID{id})
	}
	db.RollbackTo(sp)
	if len(db.undo) != 1 {
		t.Fatalf("history holds %d entries after the rollback, want 1", len(db.undo))
	}
	spare("RollbackTo")
	for _, id := range ids[1:] {
		db.DeleteRows("t", []TupleID{id})
	}
	db.Release(tx)
	if len(db.undo) != 0 {
		t.Fatalf("history holds %d entries after the outermost release", len(db.undo))
	}
	spare("outermost Release")
}

// checkHistoryIndex compares each table's last-change positions with a
// from-scratch scan of the history, which must name the database's own
// tables.
func checkHistoryIndex(db *DB) error {
	type idx struct {
		last   int
		lastOf [3]int
	}
	want := map[*Table]idx{}
	for _, t := range db.tables {
		want[t] = idx{-1, [3]int{-1, -1, -1}}
	}
	for i, u := range db.History() {
		w, ok := want[u.Table]
		if !ok {
			return fmt.Errorf("history entry %d names a table that is not the database's", i)
		}
		w.last, w.lastOf[u.Kind] = i, i
		want[u.Table] = w
	}
	for t, w := range want {
		got := idx{t.LastChange(), [3]int{t.LastChangeOf(ChangeInsert), t.LastChangeOf(ChangeDelete), t.LastChangeOf(ChangeUpdate)}}
		if got != w {
			return fmt.Errorf("table %s: last changes %+v, a scan of the history says %+v", t.def.Name, got, w)
		}
	}
	return nil
}

// TestHistoryIndexMatchesScan: over generated runs — every primitive,
// RestoreRows's revive (which reads as an insert), nested savepoints
// rolled back and released — the tables' last-change positions equal a
// scan of the history after every move, the generation moves exactly
// when a move removed entries, a Fork carries history, positions and
// generation over to its own tables, and a Clone carries none of them.
func TestHistoryIndexMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := &memoDriver{db: savepointDB(t)}
		removals := 0
		for n := 0; n < 300; n++ {
			before, gen := d.db.HistoryLen(), d.db.HistoryGen()
			d.step(t, rng)
			removed := d.db.HistoryLen() < before // one move either appends or removes
			if removed {
				removals++
			}
			if (d.db.HistoryGen() != gen) != removed {
				t.Fatalf("seed %d step %d: history %d -> %d entries, generation %d -> %d",
					seed, n, before, d.db.HistoryLen(), gen, d.db.HistoryGen())
			}
			if err := checkHistoryIndex(d.db); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, n, err)
			}
			switch rng.Intn(8) {
			case 0:
				f := d.fork()
				if f.db.HistoryLen() != d.db.HistoryLen() || f.db.HistoryGen() != d.db.HistoryGen() {
					t.Fatalf("seed %d step %d: fork at %d entries, generation %d; original %d, %d", seed, n,
						f.db.HistoryLen(), f.db.HistoryGen(), d.db.HistoryLen(), d.db.HistoryGen())
				}
				for i := 0; i < 4; i++ { // the fork moves on its own
					if err := checkHistoryIndex(f.db); err != nil {
						t.Fatalf("seed %d step %d, fork: %v", seed, n, err)
					}
					f.step(t, rng)
				}
				if err := checkHistoryIndex(d.db); err != nil {
					t.Fatalf("seed %d step %d, after its fork moved: %v", seed, n, err)
				}
			case 1:
				c := d.db.Clone()
				if c.HistoryLen() != 0 {
					t.Fatalf("seed %d step %d: clone carries %d history entries", seed, n, c.HistoryLen())
				}
				if err := checkHistoryIndex(c); err != nil {
					t.Fatalf("seed %d step %d, clone: %v", seed, n, err)
				}
			}
		}
		if removals == 0 {
			t.Fatalf("seed %d: no move removed history entries", seed)
		}
	}
}
