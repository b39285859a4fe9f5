package storage

import (
	"fmt"
	"testing"
)

// TestStatementErrors: a statement on a table the schema lacks fails
// with one error whatever its kind, and one that fails midway keeps the
// rows before the failing one applied.
func TestStatementErrors(t *testing.T) {
	db := NewDB(testSchema(t))
	const noTable = `storage: no table "nosuch"`
	if _, err := db.InsertRows("nosuch", [][]Value{{IntV(1)}}); err == nil || err.Error() != noTable {
		t.Errorf("insert: %v", err)
	}
	if err := db.DeleteRows("nosuch", []TupleID{1}); err == nil || err.Error() != noTable {
		t.Errorf("delete: %v", err)
	}
	if err := db.UpdateRows("nosuch", []string{"msg"}, []TupleID{1}, []Value{StringV("x")}); err == nil || err.Error() != noTable {
		t.Errorf("update: %v", err)
	}

	n, err := db.InsertRows("audit", [][]Value{{IntV(1), StringV("a")}, {IntV(2), StringV("b")}, {IntV(3), IntV(3)}})
	if err == nil || n != 2 || db.Table("audit").Len() != 2 {
		t.Fatalf("insert failing at its third row: n=%d, %d rows, %v", n, db.Table("audit").Len(), err)
	}
	ids := db.Table("audit").IDs()
	if err := db.UpdateRows("audit", []string{"msg"}, []TupleID{ids[0], ids[1]}, []Value{StringV("x"), IntV(1)}); err == nil {
		t.Fatal("update with a mistyped value should fail")
	}
	if got := db.Table("audit").Get(ids[0]).Vals[1]; got != StringV("x") {
		t.Errorf("update failing at its second row: first row holds %v", got)
	}
	if err := db.UpdateRows("audit", []string{"nocol"}, ids, []Value{IntV(1), IntV(1)}); err == nil {
		t.Error("update of a missing column should fail")
	}
	if err := db.DeleteRows("audit", []TupleID{ids[0], ids[1] + 100}); err == nil {
		t.Fatal("delete of a missing tuple should fail")
	}
	if got := db.Table("audit").IDs(); len(got) != 1 || got[0] != ids[1] {
		t.Errorf("delete failing at its second row left %v", got)
	}
}

// TestStatementAllocsFlatInRows is the tripwire for a statement reaching
// storage once: on a warmed database, an insert statement allocates the
// same for 1, 4 and 64 rows — a block of tuples and a block of their
// values — and a delete statement allocates nothing.
func TestStatementAllocsFlatInRows(t *testing.T) {
	db := NewDB(testSchema(t))
	rows := make([][]Value, blockRows)
	for i := range rows {
		rows[i] = []Value{IntV(int64(i)), StringV(fmt.Sprint("m", i))}
	}
	insert := map[int]float64{}
	for _, n := range []int{1, 4, blockRows} {
		// Each run rolls its rows back, so the table's map, its order
		// and the history stay inside what the warm-up run grew.
		insert[n] = testing.AllocsPerRun(50, func() {
			sp := db.Savepoint()
			if k, err := db.InsertRows("audit", rows[:n]); err != nil || k != n {
				t.Fatalf("inserted %d of %d: %v", k, n, err)
			}
			db.RollbackTo(sp)
		})
	}
	if insert[1] != 2 || insert[4] != insert[1] || insert[blockRows] != insert[1] {
		t.Errorf("an insert statement of 1, 4 and %d rows allocates %v, want 2 each", blockRows, insert)
	}
	if _, err := db.InsertRows("audit", rows); err != nil {
		t.Fatal(err)
	}
	ids := db.Table("audit").IDs()
	del := testing.AllocsPerRun(50, func() {
		sp := db.Savepoint()
		if err := db.DeleteRows("audit", ids); err != nil {
			t.Fatal(err)
		}
		db.RollbackTo(sp)
	})
	if del != 0 {
		t.Errorf("a delete statement of %d rows allocates %.0f, want 0", len(ids), del)
	}
}

// TestInsertRowsBlocks: rows past blockRows start a new block, and no
// row's values reach into the next row's.
func TestInsertRowsBlocks(t *testing.T) {
	db := NewDB(testSchema(t))
	rows := make([][]Value, 2*blockRows+1)
	for i := range rows {
		rows[i] = []Value{IntV(int64(i)), StringV(fmt.Sprint("m", i))}
	}
	if _, err := db.InsertRows("audit", rows); err != nil {
		t.Fatal(err)
	}
	i := 0
	db.Table("audit").Scan(func(tu *Tuple) bool {
		if cap(tu.Vals) != 2 || tu.Vals[0] != IntV(int64(i)) {
			t.Fatalf("row %d: %v, cap %d", i, tu.Vals, cap(tu.Vals))
		}
		i++
		return true
	})
	if i != len(rows) {
		t.Fatalf("scanned %d rows, want %d", i, len(rows))
	}
}
