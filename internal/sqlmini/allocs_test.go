package sqlmini

import (
	"testing"

	"activerules/internal/schema"
	"activerules/internal/storage"
)

// raceEnabled is set by race_test.go, which only a -race build compiles.
var raceEnabled bool

// TestScanAllocsFlatInRows is the tripwire for the interpreter's frame:
// a keyed UPDATE and a keyed DELETE bind one frame per scan, so what
// they allocate does not depend on how many rows the scan passes over.
// (A frame per scanned row made it rows + a constant.)
func TestScanAllocsFlatInRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	sch := schema.MustParse("table t (id int, v int)")
	allocs := func(rows int, src string, after func(db *storage.DB)) float64 {
		db := storage.NewDB(sch)
		for i := 0; i < rows; i++ {
			db.MustInsert("t", storage.IntV(int64(i)), storage.IntV(0))
		}
		st := mustStmt(t, src)
		if err := ResolveStatement(st, &ResolveContext{Schema: sch}); err != nil {
			t.Fatal(err)
		}
		ev := &Evaluator{DB: db, Mut: DirectMutator(db)}
		return testing.AllocsPerRun(50, func() {
			if res, err := ev.Exec(st); err != nil || res.Affected != 1 {
				t.Fatalf("%s over %d rows: affected %d, err %v", src, rows, res.Affected, err)
			}
			after(db)
		})
	}
	reinsert := func(db *storage.DB) { db.MustInsert("t", storage.IntV(7), storage.IntV(0)) }
	for _, c := range []struct {
		src   string
		after func(db *storage.DB)
	}{
		{"update t set v = v + 1 where id = 7", func(*storage.DB) {}},
		{"delete from t where id = 7", reinsert},
	} {
		small, large := allocs(10, c.src, c.after), allocs(1000, c.src, c.after)
		if small != large {
			t.Errorf("%s: %.0f allocations over 10 rows, %.0f over 1000: the scan allocates per row", c.src, small, large)
		}
	}
}
