package transition

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"activerules/internal/schema"
	"activerules/internal/storage"
)

// The reference the served path is compared against: the map-backed,
// multi-table net-effect computation and the operation-set builder that
// ComputeTable and Net.Triggers replaced. It keeps its maps and its
// one-row-at-a-time copies, so the two share no code beyond
// rowsIdentical.

// refNet is the net effect of a log suffix over every table it touches.
type refNet struct {
	tables map[string]*TableNet
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
func tableOps(tn *TableNet) schema.OpSet {
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

// Ops is the operation set a one-table net induces: what the engine
// intersected with Triggered-By before Net.Triggers.
func (n *Net) Ops() schema.OpSet { return tableOps(&n.tn) }

// refCompute derives the net effect of the log suffix starting at mark.
func refCompute(l *Log, mark int, db *storage.DB) *refNet {
	type tupState struct {
		table    string
		first    entryKind
		baseline []storage.Value
		deleted  bool
	}
	states := make(map[storage.TupleID]*tupState)
	var idOrder []storage.TupleID
	for _, e := range l.entries[mark:] {
		st, ok := states[e.id]
		if !ok {
			st = &tupState{table: e.table, first: e.kind}
			if e.kind != entryInsert {
				st.baseline = e.oldRow
			}
			states[e.id] = st
			idOrder = append(idOrder, e.id)
		}
		if e.kind == entryDelete {
			st.deleted = true
		}
	}

	n := &refNet{tables: make(map[string]*TableNet), ops: schema.NewOpSet()}
	var order []string
	for _, id := range idOrder {
		st := states[id]
		tn, ok := n.tables[st.table]
		if !ok {
			tn = &TableNet{Table: st.table}
			n.tables[st.table] = tn
			order = append(order, st.table)
		}
		switch st.first {
		case entryInsert:
			if st.deleted {
				continue
			}
			if tu := db.Table(st.table).Get(id); tu != nil {
				tn.Inserted = append(tn.Inserted, cloneRow(tu.Vals))
			}
		case entryUpdate:
			if st.deleted {
				tn.Deleted = append(tn.Deleted, st.baseline)
				continue
			}
			tu := db.Table(st.table).Get(id)
			if tu == nil || rowsIdentical(st.baseline, tu.Vals) {
				continue
			}
			tn.Updated = append(tn.Updated, UpdatedPair{Old: st.baseline, New: cloneRow(tu.Vals)})
		case entryDelete:
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
func diffTableNets(got, want *TableNet) string {
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

// randomLog applies n random primitives over tables t and u (three
// columns, so an update can change some and restore others) and records
// them, starting from a few committed rows. More than linearProbe tuples
// are touched in the longer runs, so both of the scratch's lookups run.
func randomLog(rng *rand.Rand, n int) (*storage.DB, *Log) {
	sch := schema.MustParse("table t (a int, b int, c int)\ntable u (a int, b int, c int)")
	db, l := storage.NewDB(sch), &Log{}
	tables := []string{"t", "u"}
	live := map[string][]storage.TupleID{}
	val := func() storage.Value { return storage.IntV(rng.Int63n(3)) }
	for _, tbl := range tables {
		for i := 0; i < 3; i++ {
			live[tbl] = append(live[tbl], db.MustInsert(tbl, val(), val(), val()))
		}
	}
	for i := 0; i < n; i++ {
		tbl := tables[rng.Intn(2)]
		ids := live[tbl]
		switch op := rng.Intn(4); {
		case op == 0 || len(ids) == 0:
			live[tbl] = append(ids, doInsert(db, l, tbl, val(), val(), val()))
		case op == 1:
			k := rng.Intn(len(ids))
			doDelete(db, l, tbl, ids[k])
			live[tbl] = append(ids[:k], ids[k+1:]...)
		default:
			doUpdate(db, l, tbl, ids[rng.Intn(len(ids))], []string{"a", "b", "c"}[rng.Intn(3)], val())
		}
	}
	return db, l
}

// TestComputeTableMatchesReference: over generated logs and every mark,
// ComputeTable equals the multi-table reference restricted to the table,
// and Net.Triggers equals the old trigger test — the reference's
// operation set intersected with Triggered-By — for every Triggered-By
// set a rule on that table can have.
func TestComputeTableMatchesReference(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		db, l := randomLog(rng, int(n%48))
		// Every non-empty subset of the five operations on a table.
		universe := func(table string) []schema.Op {
			return []schema.Op{schema.Insert(table), schema.Delete(table),
				schema.Update(table, "a"), schema.Update(table, "b"), schema.Update(table, "c")}
		}
		for mark := 0; mark <= l.Mark(); mark++ {
			ref := refCompute(l, mark, db)
			var touched []string
			for _, table := range []string{"t", "u"} {
				net := ComputeTable(l, mark, db, table)
				if d := diffTableNets(net.Table(table), ref.tables[table]); d != "" {
					t.Logf("seed %d mark %d table %s: %s", seed, mark, table, d)
					return false
				}
				if net.IsEmpty() != (ref.tables[table] == nil) {
					return false
				}
				if !net.IsEmpty() {
					touched = append(touched, table)
				}
				ops := universe(table)
				for mask := 1; mask < 1<<len(ops); mask++ {
					by := schema.NewOpSet()
					for i, op := range ops {
						if mask&(1<<i) != 0 {
							by.Add(op)
						}
					}
					want := tableOps(ref.tables[table]).Intersects(by)
					if net.Triggers(by) != want || net.Ops().Intersects(by) != want {
						t.Logf("seed %d mark %d table %s: Triggers(%s) = %v, reference ops %s",
							seed, mark, table, by, net.Triggers(by), tableOps(ref.tables[table]))
						return false
					}
				}
			}
			sort.Strings(touched)
			refTouched := append([]string(nil), ref.Tables()...)
			sort.Strings(refTouched)
			if !reflect.DeepEqual(touched, refTouched) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
