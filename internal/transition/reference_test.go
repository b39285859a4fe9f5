package transition_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"activerules/internal/schema"
	"activerules/internal/sqlmini"
	"activerules/internal/storage"
	"activerules/internal/transition"
)

// The reference the served path is compared against: a recording of full
// old rows kept outside the product, and the map-backed, multi-table
// net-effect computation over it (with the operation-set builder) that
// transition.ComputeTable and Net.Triggers replaced. It keeps its maps and its
// one-row-at-a-time copies and reads nothing of the database's history
// but its length, so the two share no code.

// refEntry is one recorded primitive: oldRow is the full tuple value
// immediately before a delete or an update.
type refEntry struct {
	kind   storage.ChangeKind
	table  string
	id     storage.TupleID
	oldRow []storage.Value
}

// recorder is the reference's record of the open transaction: a Mutator
// wrapper that notes every primitive of each statement next applies to
// db. Installed through engine.Options.WrapMutator it sees what the
// engine's mutator sees; over sqlmini.DirectMutator it drives a database
// with no engine. A successful primitive is one history entry and one
// refEntry, so positions agree — a statement that fails midway keeps the
// entries of the primitives it applied — and whatever a rollback or a
// commit dropped from the history is dropped here when the next entry
// lands (or by sync).
type recorder struct {
	db      *storage.DB
	next    sqlmini.Mutator
	entries []refEntry
	tx      storage.Savepoint // record's transaction
}

func (r *recorder) sync() { r.entries = r.entries[:min(len(r.entries), r.db.HistoryLen())] }

// note records the entries of the primitives a statement applied from
// history position before on: the first of es, one per primitive the
// statement had, in order.
func (r *recorder) note(before int, es []refEntry) {
	r.entries = append(r.entries[:before], es[:r.db.HistoryLen()-before]...)
}

func (r *recorder) oldRow(table string, id storage.TupleID) []storage.Value {
	if tu := r.db.Table(table).Get(id); tu != nil {
		return cloneRow(tu.Vals)
	}
	return nil
}

func (r *recorder) Insert(table string, rows [][]storage.Value) (int, error) {
	before, next := r.db.HistoryLen(), r.db.NextID()
	n, err := r.next.Insert(table, rows)
	es := make([]refEntry, n)
	for i := range es {
		es[i] = refEntry{kind: storage.ChangeInsert, table: table, id: next + storage.TupleID(i)}
	}
	r.note(before, es)
	return n, err
}

func (r *recorder) Delete(table string, ids []storage.TupleID) error {
	es := make([]refEntry, len(ids))
	for i, id := range ids {
		es[i] = refEntry{kind: storage.ChangeDelete, table: table, id: id, oldRow: r.oldRow(table, id)}
	}
	before := r.db.HistoryLen()
	err := r.next.Delete(table, ids)
	r.note(before, es)
	return err
}

// Update takes each primitive's old row from the one before it: the
// row before the statement, with the earlier columns of its SET applied.
func (r *recorder) Update(table string, cols []string, ids []storage.TupleID, vals []storage.Value) error {
	def := r.db.Schema().Table(table)
	var es []refEntry
	for k, id := range ids {
		old := r.oldRow(table, id)
		for i, col := range cols {
			es = append(es, refEntry{kind: storage.ChangeUpdate, table: table, id: id, oldRow: old})
			if ci := def.ColumnIndex(col); old != nil && ci >= 0 {
				old = cloneRow(old)
				if v, err := vals[k*len(cols)+i].Coerce(def.Columns[ci].Type); err == nil {
					old[ci] = v
				}
			}
		}
	}
	before := r.db.HistoryLen()
	err := r.next.Update(table, cols, ids, vals)
	r.note(before, es)
	return err
}

// Mark returns the current position.
func (r *recorder) Mark() int { r.sync(); return len(r.entries) }

// record opens a transaction on db — a savepoint, under which storage
// keeps its history — and returns the recorder driving it directly.
func record(db *storage.DB) *recorder {
	return &recorder{db: db, next: sqlmini.DirectMutator(db), tx: db.Savepoint()}
}

// compute is transition.ComputeTable by table name, with scratch of its own.
func compute(db *storage.DB, mark int, table string) *transition.Net {
	return transition.ComputeTable(db, mark, db.Table(table), &transition.Scratch{}, nil)
}

// refNet is the net effect of a recording's suffix over every table it touches.
type refNet struct {
	tables map[string]*transition.TableNet
	order  []string // first-touch order, empty tables dropped
	ops    schema.OpSet
}

// Tables returns the touched tables in first-touch order.
func (n *refNet) Tables() []string { return n.order }

// Ops returns the operation set induced by the net effect: (I,t) if any
// tuple was net-inserted into t, (D,t) if any was net-deleted, and
// (U,t.c) for every column c with a net change.
func (n *refNet) Ops() schema.OpSet { return n.ops }

// tableOps is the operation set one table's net effect induces.
func tableOps(tn *transition.TableNet) schema.OpSet {
	ops := schema.NewOpSet()
	if tn == nil {
		return ops
	}
	if len(tn.Inserted) > 0 {
		ops.Add(schema.Insert(tn.Table))
	}
	if len(tn.Deleted) > 0 {
		ops.Add(schema.Delete(tn.Table))
	}
	for _, c := range tn.UpdatedColumns {
		ops.Add(schema.Update(tn.Table, c))
	}
	return ops
}

// netOps is the operation set a one-table net induces: what the engine
// intersected with Triggered-By before Net.Triggers.
func netOps(n *transition.Net, table string) schema.OpSet { return tableOps(n.Table(table)) }

// refCompute derives the net effect of the recording's suffix starting at mark.
func refCompute(l *recorder, mark int, db *storage.DB) *refNet {
	type tupState struct {
		table    string
		first    storage.ChangeKind
		baseline []storage.Value
		deleted  bool
	}
	l.sync()
	states := make(map[storage.TupleID]*tupState)
	var idOrder []storage.TupleID
	for _, e := range l.entries[min(mark, len(l.entries)):] {
		st, ok := states[e.id]
		if !ok {
			st = &tupState{table: e.table, first: e.kind}
			if e.kind != storage.ChangeInsert {
				st.baseline = e.oldRow
			}
			states[e.id] = st
			idOrder = append(idOrder, e.id)
		}
		if e.kind == storage.ChangeDelete {
			st.deleted = true
		}
	}

	n := &refNet{tables: make(map[string]*transition.TableNet), ops: schema.NewOpSet()}
	var order []string
	for _, id := range idOrder {
		st := states[id]
		tn, ok := n.tables[st.table]
		if !ok {
			tn = &transition.TableNet{Table: st.table}
			n.tables[st.table] = tn
			order = append(order, st.table)
		}
		switch st.first {
		case storage.ChangeInsert:
			if st.deleted {
				continue
			}
			if tu := db.Table(st.table).Get(id); tu != nil {
				tn.Inserted = append(tn.Inserted, cloneRow(tu.Vals))
			}
		case storage.ChangeUpdate:
			if st.deleted {
				tn.Deleted = append(tn.Deleted, st.baseline)
				continue
			}
			tu := db.Table(st.table).Get(id)
			if tu == nil || sameRow(st.baseline, tu.Vals) {
				continue
			}
			tn.Updated = append(tn.Updated, transition.UpdatedPair{Old: st.baseline, New: cloneRow(tu.Vals)})
		case storage.ChangeDelete:
			tn.Deleted = append(tn.Deleted, st.baseline)
		}
	}
	for _, table := range order {
		tn := n.tables[table]
		if len(tn.Inserted) == 0 && len(tn.Deleted) == 0 && len(tn.Updated) == 0 {
			delete(n.tables, table)
			continue
		}
		def := db.Schema().Table(table)
		changed := map[int]bool{}
		for _, up := range tn.Updated {
			for i := range up.Old {
				if up.Old[i] != up.New[i] {
					changed[i] = true
				}
			}
		}
		cols := make([]int, 0, len(changed))
		for i := range changed {
			cols = append(cols, i)
		}
		sort.Ints(cols)
		for _, i := range cols {
			tn.UpdatedColumns = append(tn.UpdatedColumns, def.Column(i).Name)
		}
		n.ops.AddAll(tableOps(tn))
		n.order = append(n.order, table)
	}
	return n
}

func cloneRow(row []storage.Value) []storage.Value {
	out := make([]storage.Value, len(row))
	copy(out, row)
	return out
}

// diffTableNets reports how got differs from want, row for row and in
// order; nil stands for an untouched table.
func diffTableNets(got, want *transition.TableNet) string {
	if got == nil || want == nil {
		if got != want {
			return fmt.Sprintf("got %+v, want %+v", got, want)
		}
		return ""
	}
	switch {
	case got.Table != want.Table:
		return fmt.Sprintf("table %q, want %q", got.Table, want.Table)
	case !sameList(got.Inserted, want.Inserted):
		return fmt.Sprintf("inserted %v, want %v", got.Inserted, want.Inserted)
	case !sameList(got.Deleted, want.Deleted):
		return fmt.Sprintf("deleted %v, want %v", got.Deleted, want.Deleted)
	case !sameList(got.Updated, want.Updated):
		return fmt.Sprintf("updated %v, want %v", got.Updated, want.Updated)
	case !sameList(got.UpdatedColumns, want.UpdatedColumns):
		return fmt.Sprintf("updated columns %v, want %v", got.UpdatedColumns, want.UpdatedColumns)
	}
	return ""
}

// sameList compares element by element; nil and empty are the same list.
func sameList[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// sameRow compares rows by exact representation.
func sameRow(a, b []storage.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkAgainstReference compares ComputeTable with the reference
// restricted to each table, at every mark of the open transaction, and
// Net.Triggers with the old trigger test — the reference's operation set
// intersected with Triggered-By — for every Triggered-By set a rule on a
// table of columns a, b, c can have. It returns the first disagreement.
//
// Each table's net is refilled at the next mark, the marks running up and
// then down again so that nets shrink and grow, and its digest must be a
// fresh computation's: a refill keeps no row, list or digest of the net
// it overwrites.
func checkAgainstReference(db *storage.DB, l *recorder, sc *transition.Scratch) error {
	tables := db.Schema().TableNames()
	last := map[string]*transition.Net{}
	for step := 0; step <= 2*l.Mark(); step++ {
		mark := step
		if step > l.Mark() {
			mark = 2*l.Mark() - step
		}
		ref := refCompute(l, mark, db)
		var touched []string
		for _, table := range tables {
			net := transition.ComputeTable(db, mark, db.Table(table), sc, last[table])
			last[table] = net
			if d := diffTableNets(net.Table(table), ref.tables[table]); d != "" {
				return fmt.Errorf("mark %d table %s: %s", mark, table, d)
			}
			fresh := transition.ComputeTable(db, mark, db.Table(table), sc, nil)
			if net.TableFingerprint(table) != fresh.TableFingerprint(table) {
				return fmt.Errorf("mark %d table %s: a refilled net's digest differs from a fresh one's", mark, table)
			}
			if net.IsEmpty() != (ref.tables[table] == nil) {
				return fmt.Errorf("mark %d table %s: IsEmpty %v", mark, table, net.IsEmpty())
			}
			if !net.IsEmpty() {
				touched = append(touched, table)
			}
			// Every non-empty subset of the five operations on the table.
			ops := []schema.Op{schema.Insert(table), schema.Delete(table),
				schema.Update(table, "a"), schema.Update(table, "b"), schema.Update(table, "c")}
			for mask := 1; mask < 1<<len(ops); mask++ {
				by := schema.NewOpSet()
				for i, op := range ops {
					if mask&(1<<i) != 0 {
						by.Add(op)
					}
				}
				want := tableOps(ref.tables[table]).Intersects(by)
				if net.Triggers(by) != want || netOps(net, table).Intersects(by) != want {
					return fmt.Errorf("mark %d table %s: Triggers(%s) = %v, reference ops %s",
						mark, table, by, net.Triggers(by), tableOps(ref.tables[table]))
				}
			}
		}
		sort.Strings(touched)
		refTouched := append([]string(nil), ref.Tables()...)
		sort.Strings(refTouched)
		if !reflect.DeepEqual(touched, refTouched) {
			return fmt.Errorf("mark %d: touched %v, reference %v", mark, touched, refTouched)
		}
	}
	return nil
}

// randomLog applies n random primitives over tables t and u (three
// columns, so an update can change some and restore others) in an open
// transaction and records them, starting from a few committed rows. More
// tuples than the scratch probes linearly are touched in the longer runs,
// so both of its lookups run.
func randomLog(rng *rand.Rand, n int) (*storage.DB, *recorder) {
	sch := schema.MustParse("table t (a int, b int, c int)\ntable u (a int, b int, c int)")
	db := storage.NewDB(sch)
	tables := []string{"t", "u"}
	live := map[string][]storage.TupleID{}
	val := func() storage.Value { return storage.IntV(rng.Int63n(3)) }
	for _, tbl := range tables {
		for i := 0; i < 3; i++ {
			live[tbl] = append(live[tbl], db.MustInsert(tbl, val(), val(), val()))
		}
	}
	l := record(db)
	for i := 0; i < n; i++ {
		tbl := tables[rng.Intn(2)]
		ids := live[tbl]
		switch op := rng.Intn(4); {
		case op == 0 || len(ids) == 0:
			live[tbl] = append(ids, doInsert(l, tbl, val(), val(), val()))
		case op == 1:
			k := rng.Intn(len(ids))
			doDelete(l, tbl, ids[k])
			live[tbl] = append(ids[:k], ids[k+1:]...)
		default:
			doUpdate(l, tbl, ids[rng.Intn(len(ids))], []string{"a", "b", "c"}[rng.Intn(3)], val())
		}
	}
	return db, l
}

// TestComputeTableMatchesReference: over generated transactions and every
// mark, ComputeTable equals the multi-table reference restricted to the
// table, and Net.Triggers equals the old trigger test.
func TestComputeTableMatchesReference(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		db, l := randomLog(rand.New(rand.NewSource(seed)), int(n%48))
		if err := checkAgainstReference(db, l, &transition.Scratch{}); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
