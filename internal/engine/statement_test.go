package engine

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"activerules/internal/faultinject"
	"activerules/internal/storage"
	"activerules/internal/wal"
)

// rowMutator is the oracle for statements reaching storage whole: it
// applies each statement's rows one DB.Insert, Delete or Update at a
// time, noting every row in the engine's candidates, as the engine's
// mutator did before its methods took whole statements.
type rowMutator struct{ e *Engine }

func (m rowMutator) note(table string, kind storage.ChangeKind) { m.e.cand.Note(table, kind) }

func (m rowMutator) Insert(table string, rows [][]storage.Value) (int, error) {
	for i, row := range rows {
		if _, err := m.e.db.Insert(table, row); err != nil {
			return i, err
		}
		m.note(table, storage.ChangeInsert)
	}
	return len(rows), nil
}

func (m rowMutator) Delete(table string, ids []storage.TupleID) error {
	for _, id := range ids {
		if m.e.db.Delete(table, id) == nil {
			return fmt.Errorf("no tuple %d in %s", id, table)
		}
		m.note(table, storage.ChangeDelete)
	}
	return nil
}

func (m rowMutator) Update(table string, cols []string, ids []storage.TupleID, vals []storage.Value) error {
	for k, id := range ids {
		for i, col := range cols {
			if _, err := m.e.db.Update(table, id, col, vals[k*len(cols)+i]); err != nil {
				return err
			}
			m.note(table, storage.ChangeUpdate)
		}
	}
	return nil
}

// statementSide is one engine of TestStatementDifferential over a
// database logged to a WAL on a memory filesystem.
type statementSide struct {
	fs *wal.MemFS
	d  *wal.DurableDB
	e  *Engine
}

const (
	statementSchema = "table t (a int, b int, c string)\ntable u (a int, b int, c string)"
	statementRules  = `
create rule on_u on u when inserted then delete from u where a < 0
create rule off_t on t when deleted then insert into u select a, b, c from deleted
create rule upd_t on t when updated(b) then update u set b = 0 where a < 0
`
)

func newStatementSide(t *testing.T, perRow bool) *statementSide {
	t.Helper()
	set, _ := mkSet(t, statementSchema, statementRules)
	s := &statementSide{fs: wal.NewMemFS()}
	var err error
	if s.d, err = wal.Open("w", set.Schema(), wal.Options{FS: s.fs}); err != nil {
		t.Fatal(err)
	}
	db := s.d.State()
	db.SetObserver(s.d)
	for i := 1; i <= 6; i++ {
		db.MustInsert("t", storage.IntV(int64(i)), storage.IntV(int64(10*i)), storage.StringV(fmt.Sprint("r", i)))
	}
	db.MustInsert("u", storage.IntV(-1), storage.IntV(0), storage.StringV("neg"))
	opts := Options{Journal: s.d}
	if perRow {
		opts.WrapMutator = func(Mutator) Mutator { return rowMutator{s.e} }
	}
	s.e = New(set, db, opts)
	return s
}

// historyOf renders a database's history with the values its entries
// carry, by table name.
func historyOf(db *storage.DB) []string {
	var out []string
	for _, c := range db.History() {
		row := ""
		if c.Row != nil {
			row = fmt.Sprint(c.Row.ID, c.Row.Vals)
		}
		out = append(out, fmt.Sprint(c.Kind, c.Table.Def().Name, c.ID, c.Col, c.Old, row))
	}
	return out
}

// candidatesOf returns an engine's candidate bits, by rule.
func candidatesOf(e *Engine) []bool {
	out := make([]bool, len(e.set.Rules()))
	for i := range out {
		out[i] = e.cand.Has(i)
	}
	return out
}

// scanOf renders every table's live rows, identities included, in scan
// order.
func scanOf(db *storage.DB) []string {
	var out []string
	for _, name := range db.Schema().TableNames() {
		db.Table(name).Scan(func(tu *storage.Tuple) bool {
			out = append(out, fmt.Sprint(name, tu.ID, tu.Vals))
			return true
		})
	}
	return out
}

// TestStatementDifferential: a statement applied to storage whole — one
// mutator call, one table lookup, one candidate note, one row block —
// leaves what applying its rows one primitive at a time leaves: the same
// history entries, WAL bytes, fingerprint, identities and scan order,
// and the same candidate bits, as noted and after RebuildTriggerIndex.
// Every other statement runs under
// a savepoint that is then rolled back.
func TestStatementDifferential(t *testing.T) {
	statements := []string{
		"insert into u select a, b, c from t where a > 2",              // INSERT … SELECT, 4 rows
		"insert into t values (7, 70, 'x'), (8, 80, 'y'), (9, 0, 'z')", // VALUES, 3 rows
		"insert into u (c, a) values ('p', 1), ('q', 2)",               // column list
		"insert into u (b, c) select a, c from t where a < 4",          // column list over a select
		"delete from t where a < 0",                                    // no row
		"delete from t where a = 3",                                    // one row
		"delete from t where a >= 2",                                   // many rows
		"update t set b = b + a, c = 'w' where a > 1",                  // two columns, many rows
		"update t set c = 'v', a = a * 2, b = 1",                       // three columns, every row
		"delete from u; insert into u select a, a, c from t; update u set b = b + 1 where a > 3",
	}
	for i, src := range statements {
		rollback := i%2 == 1
		name := fmt.Sprintf("%d rollback=%v", i, rollback)
		whole, rows := newStatementSide(t, false), newStatementSide(t, true)
		for _, s := range []*statementSide{whole, rows} {
			db := s.e.DB()
			sp := db.Savepoint()
			res, err := s.e.ExecUser(src)
			if err != nil {
				t.Fatalf("%s: %q: %v", name, src, err)
			}
			if s == whole && res[len(res)-1].Affected == 0 && i != 4 {
				t.Fatalf("%s: %q changed no row", name, src)
			}
			if rollback {
				db.RollbackTo(sp)
			} else {
				db.Release(sp)
			}
		}
		wdb, rdb := whole.e.DB(), rows.e.DB()
		if g, w := historyOf(wdb), historyOf(rdb); !slices.Equal(g, w) {
			t.Fatalf("%s: history\n got %v\nwant %v", name, g, w)
		}
		if g, w := scanOf(wdb), scanOf(rdb); !slices.Equal(g, w) {
			t.Fatalf("%s: scan\n got %v\nwant %v", name, g, w)
		}
		if wdb.Fingerprint() != rdb.Fingerprint() || wdb.NextID() != rdb.NextID() {
			t.Fatalf("%s: fingerprint or next identity differ", name)
		}
		if g, w := candidatesOf(whole.e), candidatesOf(rows.e); !slices.Equal(g, w) {
			t.Fatalf("%s: candidates %v, want %v", name, g, w)
		}
		whole.e.RebuildTriggerIndex()
		rows.e.RebuildTriggerIndex()
		if g, w := candidatesOf(whole.e), candidatesOf(rows.e); !slices.Equal(g, w) {
			t.Fatalf("%s: rebuilt candidates %v, want %v", name, g, w)
		}
		var logs [2][]byte
		for k, s := range []*statementSide{whole, rows} {
			if err := s.e.Commit(); err != nil {
				t.Fatal(err)
			}
			b, err := s.fs.ReadFile(wal.LogPath("w", s.d.Gen()))
			if err != nil {
				t.Fatal(err)
			}
			logs[k] = b
		}
		if !bytes.Equal(logs[0], logs[1]) {
			t.Fatalf("%s: WAL bytes differ:\n got %x\nwant %x", name, logs[0], logs[1])
		}
	}
}

// observed records the mutations a database reports, in order.
type observed struct{ events []string }

func (o *observed) ObserveInsert(table string, id storage.TupleID, vals []storage.Value) {
	o.events = append(o.events, fmt.Sprint("+", table, id))
}

func (o *observed) ObserveDelete(table string, id storage.TupleID) {
	o.events = append(o.events, fmt.Sprint("-", table, id))
}

func (o *observed) ObserveUpdate(table string, id storage.TupleID, col string, v storage.Value) {
	o.events = append(o.events, fmt.Sprint("~", table, id, col))
}

// TestStatementFaultModel: fault injection still fails one primitive at
// a time. A fault or a panic at call k of a 4-row INSERT … SELECT or a
// 4-row DELETE leaves exactly the statement's first k-1 rows applied,
// which the engine then rolls back, restoring the database.
func TestStatementFaultModel(t *testing.T) {
	for _, src := range []string{"insert into u select a, b, c from t where a > 2", "delete from t where a > 2"} {
		for k := 1; k <= 4; k++ {
			for _, panics := range []bool{false, true} {
				name := fmt.Sprintf("%q call %d panic=%v", src, k, panics)
				set, db := mkSet(t, statementSchema, statementRules)
				for i := 1; i <= 6; i++ {
					db.MustInsert("t", storage.IntV(int64(i)), storage.IntV(int64(10*i)), storage.StringV(fmt.Sprint("r", i)))
				}
				before := db.Clone()
				cfg := faultinject.Config{FailAt: k}
				if panics {
					cfg = faultinject.Config{PanicAt: k}
				}
				inj := faultinject.New(cfg)
				e := New(set, db, Options{WrapMutator: inj.Wrap})
				obs := &observed{}
				db.SetObserver(obs)
				if _, err := e.ExecUser(src); err == nil {
					t.Fatalf("%s: no error", name)
				}
				if inj.Calls() != k || inj.Faults() != 1 {
					t.Fatalf("%s: %d calls, %d faults", name, inj.Calls(), inj.Faults())
				}
				// The first k-1 rows, then their compensations in
				// reverse: an insert undoes as a delete, and back.
				if len(obs.events) != 2*(k-1) {
					t.Fatalf("%s: observed %v", name, obs.events)
				}
				for j := 0; j < k-1; j++ {
					applied, undone := obs.events[j], obs.events[2*(k-1)-1-j]
					if applied[0] == undone[0] || applied[1:] != undone[1:] {
						t.Fatalf("%s: observed %v", name, obs.events)
					}
				}
				sameState(t, name, db, before)
			}
		}
	}
}
