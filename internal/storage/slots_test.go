package storage

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"activerules/internal/schema"
)

// slotModel is the map model the slot tests hold a DB's tables to: per
// table, each live identity's values.
type slotModel map[string]map[TupleID][]Value

// ids returns the identities of rows, ascending.
func ids(rows map[TupleID][]Value) []TupleID {
	out := make([]TupleID, 0, len(rows))
	for id := range rows {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

func (m slotModel) clone() slotModel {
	out := slotModel{}
	for name, rows := range m {
		out[name] = maps.Clone(rows)
	}
	return out
}

var slotSchema = schema.MustParse("table t (v int, s string)\ntable u (v int, s string)")

// runSlots drives one DB from ops, a byte per choice: inserts, deletes
// and updates, nested savepoints with rollbacks and releases (the
// outermost release compacts), RestoreRows of a lower identity with and
// without a tombstone, Fork, Clone, Fingerprint and equality probes.
// After every step each table must agree with the model on Get, Len,
// Scan and IDs, which must strictly ascend, and pass runErr, indexErr
// and FingerprintOracle. It returns how many identities it revived and
// placed below a table's last.
func runSlots(t *testing.T, ops []byte) (revived, placed int) {
	t.Helper()
	db := NewDB(slotSchema)
	m := slotModel{"t": {}, "u": {}}
	var sps []Savepoint
	var saved []slotModel
	var oracle FingerprintOracle
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	row := func() []Value { return []Value{IntV(int64(next() % 4)), StringV("x")} }
	for step := 0; len(ops) > 0; step++ {
		op, name := next()%12, []string{"t", "u"}[next()%2]
		tbl, rows := db.Table(name), m[name]
		live := ids(rows)
		pick := func() TupleID {
			if len(live) == 0 {
				return 0
			}
			return live[next()%len(live)]
		}
		switch op {
		case 0, 1:
			vals := row()
			rows[db.MustInsert(name, vals...)] = vals
		case 2:
			if id := pick(); id != 0 {
				db.DeleteRows(name, []TupleID{id})
				delete(rows, id)
			}
		case 3:
			if id := pick(); id != 0 {
				v := IntV(int64(next() % 4))
				if err := db.UpdateRows(name, []string{"v"}, []TupleID{id}, []Value{v}); err != nil {
					t.Fatal(err)
				}
				rows[id] = []Value{v, rows[id][1]}
			}
		case 4:
			sps, saved = append(sps, db.Savepoint()), append(saved, m.clone())
		case 5, 6:
			if n := len(sps); n > 0 {
				if op == 5 {
					db.RollbackTo(sps[n-1])
					m = saved[n-1]
				} else {
					db.Release(sps[n-1])
				}
				sps, saved = sps[:n-1], saved[:n-1]
			}
		case 7: // a tombstone's identity comes back in its slot
			for _, s := range tbl.slots {
				if s.tu == nil && next()%2 == 0 {
					vals := row()
					if err := restore(db, name, s.id, vals); err != nil {
						t.Fatal(err)
					}
					rows[s.id] = vals
					revived++
					break
				}
			}
		case 8: // an identity with no slot here, below the table's last, takes its sorted slot
			if n := len(tbl.slots); n > 0 {
				for id := tbl.slots[n-1].id - 1 - TupleID(next()%8); id > 0; id-- {
					if _, ok := tbl.find(id); !ok && m["t"][id] == nil && m["u"][id] == nil {
						vals := row()
						if err := restore(db, name, id, vals); err != nil {
							t.Fatal(err)
						}
						rows[id] = vals
						placed++
						break
					}
				}
			}
		case 9:
			if len(sps) > 0 || next()%2 == 0 {
				db = db.Fork()
			} else {
				db = db.Clone()
			}
		case 10:
			db.Fingerprint()
		case 11:
			tbl.Holders(0, IntV(int64(next()%4)))
		}
		for _, name := range []string{"t", "u"} {
			if err := slotsMatch(db.Table(name), m[name]); err != "" {
				t.Fatalf("step %d (op %d): table %s: %s", step, op, name, err)
			}
		}
		if err := oracle.Check(db); err != nil {
			t.Fatalf("step %d (op %d): %v", step, op, err)
		}
	}
	return revived, placed
}

// slotsMatch returns how tbl departs from rows, the model's live rows of
// it, if it does.
func slotsMatch(tbl *Table, rows map[TupleID][]Value) string {
	if err := runErr(tbl); err != nil {
		return err.Error()
	}
	if err := indexErr(tbl); err != nil {
		return err.Error()
	}
	want := ids(rows)
	var scanned []TupleID
	tbl.Scan(func(tu *Tuple) bool { scanned = append(scanned, tu.ID); return true })
	switch got := tbl.IDs(); {
	case tbl.Len() != len(rows):
		return "Len disagrees with the model"
	case !slices.Equal(got, want):
		return "IDs are not the model's identities in ascending order"
	case !slices.Equal(scanned, want):
		return "Scan does not visit the model's rows in identity order"
	}
	for id, vals := range rows {
		if tu := tbl.Get(id); tu == nil || tu.ID != id || !slices.EqualFunc(tu.Vals, vals, Value.Equal) {
			return "Get disagrees with the model"
		}
	}
	for _, s := range tbl.slots {
		if rows[s.id] == nil && tbl.Get(s.id) != nil {
			return "Get finds a tombstone's row"
		}
	}
	if tbl.Get(0) != nil || tbl.Get(1<<40) != nil {
		return "Get finds an identity no slot holds"
	}
	return ""
}

// TestTableSlotsDifferential holds a table's slot slice to a map model
// over seeded random histories (runSlots).
func TestTableSlotsDifferential(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	revived, placed := 0, 0
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		ops := make([]byte, 400)
		rng.Read(ops)
		r, p := runSlots(t, ops)
		revived, placed = revived+r, placed+p
	}
	if revived == 0 || placed == 0 {
		t.Errorf("the histories revived %d tombstones and placed %d rows below a table's last; the test is vacuous", revived, placed)
	}
}

// FuzzTableSlots is TestTableSlotsDifferential over fuzzed histories.
// The seeds are a revive under a savepoint and its rollback; a row
// placed below the last slot, rolled back, placed again and released;
// and a fork taken over tombstones and a built index that rolls back.
func FuzzTableSlots(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 2, 0, 0, 3, 4, 0, 2, 0, 0, 7, 0, 0, 1, 5, 0, 10, 0})
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 2, 2, 1, 0, 4, 0, 8, 0, 0, 3, 5, 0, 4, 0, 8, 0, 0, 3, 6, 0, 10, 0})
	f.Add([]byte{0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 0, 10, 0, 4, 0, 2, 0, 0, 2, 0, 0, 11, 0, 1, 11, 0, 1, 9, 0, 5, 0, 0, 0, 2, 10, 0})
	f.Fuzz(func(t *testing.T, ops []byte) { runSlots(t, ops) })
}

// benchTable returns table t of a DB holding n rows, and their
// identities, which skip 0 to 3 identities after each row as other
// tables' inserts would.
func benchTable(b *testing.B, n int) (*Table, []TupleID) {
	db, rng := NewDB(slotSchema), rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		db.MustInsert("t", IntV(int64(i)), StringV("x"))
		db.BumpNextID(db.NextID() + TupleID(rng.Intn(4)))
	}
	return db.Table("t"), db.Table("t").IDs()
}

// BenchmarkTableGet prices a lookup of a live identity, in random order,
// at 10, 1 000 and 100 000 rows.
func BenchmarkTableGet(b *testing.B) {
	for _, n := range []int{10, 1000, 100000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			tbl, ids := benchTable(b, n)
			rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tbl.Get(ids[i%n]) == nil {
					b.Fatal("a live identity has no row")
				}
			}
		})
	}
}

// BenchmarkTableScan prices a whole scan at 10, 1 000 and 100 000 rows,
// and reports it per row.
func BenchmarkTableScan(b *testing.B) {
	for _, n := range []int{10, 1000, 100000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			tbl, _ := benchTable(b, n)
			b.ResetTimer()
			seen := 0
			for i := 0; i < b.N; i++ {
				tbl.Scan(func(*Tuple) bool { seen++; return true })
			}
			if seen != n*b.N {
				b.Fatalf("scans visited %d rows, want %d", seen, n*b.N)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(seen), "ns/row")
		})
	}
}
