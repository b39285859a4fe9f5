package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"activerules/internal/schema"
)

// memoDriver applies seeded primitive mutations and savepoint moves to
// one database. Forks get their own driver: the savepoints are values
// valid against the fork too.
type memoDriver struct {
	db  *DB
	sps []Savepoint
}

func (d *memoDriver) fork() *memoDriver {
	return &memoDriver{db: d.db.Fork(), sps: append([]Savepoint(nil), d.sps...)}
}

// liveID returns a random live identity of the table, or 0.
func liveID(rng *rand.Rand, t *Table) TupleID {
	if ids := t.IDs(); len(ids) > 0 {
		return ids[rng.Intn(len(ids))]
	}
	return 0
}

// step applies one random move. Values come from a small domain, so
// equal rows — the multiset case — are common.
func (d *memoDriver) step(t *testing.T, rng *rand.Rand) {
	db := d.db
	name := []string{"t", "u"}[rng.Intn(2)]
	tbl := db.Table(name)
	row := func() []Value {
		if name == "t" {
			return []Value{IntV(int64(rng.Intn(4))), StringV(string(rune('a' + rng.Intn(3))))}
		}
		return []Value{IntV(int64(rng.Intn(4)))}
	}
	switch rng.Intn(12) {
	case 0, 1, 2:
		if _, err := db.Insert(name, row()); err != nil {
			t.Fatal(err)
		}
	case 3:
		db.DeleteRows(name, []TupleID{liveID(rng, tbl)})
	case 4, 5:
		if id := liveID(rng, tbl); id != 0 {
			if err := db.UpdateRows(name, []string{"v"}, []TupleID{id}, []Value{IntV(int64(rng.Intn(4)))}); err != nil {
				t.Fatal(err)
			}
		}
	case 6: // the replay shape: an identity deleted under a savepoint comes back in place
		for _, s := range tbl.slots {
			if s.tu == nil {
				if err := restore(db, name, s.id, row()); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
	case 7:
		if len(d.sps) < 3 {
			d.sps = append(d.sps, db.Savepoint())
		}
	case 8, 9:
		if n := len(d.sps); n > 0 {
			if rng.Intn(2) == 0 {
				db.RollbackTo(d.sps[n-1])
			} else {
				db.Release(d.sps[n-1])
			}
			d.sps = d.sps[:n-1]
		}
	case 10: // several deletes at once, a row and every row equal to it among them
		if id := liveID(rng, tbl); id != 0 {
			enc := string(tbl.Get(id).encode(nil))
			for _, other := range tbl.IDs() {
				if string(tbl.Get(other).encode(nil)) == enc {
					db.DeleteRows(name, []TupleID{other})
				}
			}
			db.DeleteRows(name, []TupleID{liveID(rng, tbl)})
		}
	case 11: // a probe, which builds the column's index on its second call
		col, v := 0, IntV(int64(rng.Intn(5)))
		if name == "t" && rng.Intn(2) == 0 {
			col, v = 1, StringV(string(rune('a'+rng.Intn(4))))
		}
		n, one, ok := tbl.Holders(col, v)
		if !ok {
			n, one, ok = tbl.Holders(col, v)
		}
		want := 0
		tbl.Scan(func(tu *Tuple) bool {
			if tu.Vals[col] == v {
				want++
			}
			return true
		})
		if !ok || n != want || one != nil && (n != 1 || tbl.Get(one.ID) != one || one.Vals[col] != v) {
			t.Fatalf("Holders(%d, %v) = %d, %v, %v; a scan finds %d", col, v, n, one, ok, want)
		}
	}
}

// probeAll builds the equality index of every int and string column
// of t, probing each twice.
func probeAll(t *Table) {
	for col, c := range t.def.Columns {
		for range 2 {
			switch c.Type {
			case schema.Int:
				t.Holders(col, IntV(0))
			case schema.String:
				t.Holders(col, StringV(""))
			}
		}
	}
}

// TestFingerprintMemoDifferential is the storage half of the memo's
// differential (the engine-driven half, same name, is in
// internal/engine): every primitive mutation, RestoreRows's revive in
// place, nested savepoints rolled back and released, and Fork/Clone
// copies taken with clean and with stale digests and stepped before and
// after their parent moves on — with the oracle read at random
// intervals, so digests go stale under one mutation and under many.
func TestFingerprintMemoDifferential(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var oracle FingerprintOracle
		check := func(when string, db *DB) {
			t.Helper()
			if err := oracle.Check(db); err != nil {
				t.Fatalf("seed %d, %s: %v", seed, when, err)
			}
		}
		d := &memoDriver{db: savepointDB(t)}
		var held []*memoDriver
		for n := 0; n < 300; n++ {
			d.step(t, rng)
			for _, h := range held { // the parent moved first
				h.step(t, rng)
				check(fmt.Sprintf("step %d, held copy", n), h.db)
			}
			held = held[:0]
			switch rng.Intn(8) {
			case 0:
				a, b := d.fork(), d.fork()
				a.step(t, rng) // the fork moves first
				check(fmt.Sprintf("step %d, fork", n), a.db)
				held = append(held, b)
			case 1:
				a, b := &memoDriver{db: d.db.Clone()}, &memoDriver{db: d.db.Clone()}
				a.step(t, rng)
				check(fmt.Sprintf("step %d, clone", n), a.db)
				held = append(held, b)
			}
			if rng.Intn(3) > 0 {
				check(fmt.Sprintf("step %d", n), d.db)
			}
		}
	}
}

// TestEveryMutationTouches has one case per place a table's rows or a
// row's values change. Each arranges for the table's digest to be
// memoized immediately before that one place runs, so the case fails —
// the oracle's row-for-row rebuild disagrees — exactly when that place
// stops calling touch (Table.insert does touch's work itself, keeping
// an open append run). touch feeds a second memo's key, the table's
// Version (internal/wal's snapshot sections), so each case also requires
// that it strictly increased (DB.DeleteRows does touch's work itself too,
// keeping the run open). The cases after the first seven go on after an
// append run was ended, kept open or copied: they fail when a delete
// leaves a row the digest saw out of gone or puts one appended since
// in, when an identity a rollback hands out again keeps the run open,
// when compact miscounts the slots the last digest saw, when a revive
// leaves the run open, or when a Clone or Fork shares its kept
// encodings. Both of the table's columns are probed just before the
// mutation, so the oracle's index check fails a case whose place stops
// keeping a built equality index exact.
func TestEveryMutationTouches(t *testing.T) {
	var id TupleID
	var sp Savepoint
	cases := []struct {
		site   string
		before func(db *DB) // runs under a savepoint, before the digest is memoized
		mutate func(db *DB)
	}{
		{"Table.insert",
			nil,
			func(db *DB) { db.MustInsert("t", IntV(7), StringV("x")) }},
		{"Table.insertPreservingOrder (revive)",
			func(db *DB) { db.DeleteRows("t", []TupleID{id}) },
			func(db *DB) {
				if err := restore(db, "t", id, []Value{IntV(7), StringV("x")}); err != nil {
					t.Fatal(err)
				}
			}},
		{"Table.unInsert",
			func(db *DB) { db.MustInsert("t", IntV(7), StringV("x")) },
			func(db *DB) { db.RollbackTo(sp) }},
		{"Table.unDelete",
			func(db *DB) { db.DeleteRows("t", []TupleID{id}) },
			func(db *DB) { db.RollbackTo(sp) }},
		{"DB.Delete",
			nil,
			func(db *DB) { db.DeleteRows("t", []TupleID{id}) }},
		{"DB.Update",
			nil,
			func(db *DB) {
				if err := db.UpdateRows("t", []string{"v"}, []TupleID{id}, []Value{IntV(7)}); err != nil {
					t.Fatal(err)
				}
			}},
		{"DB.RollbackTo (undoUpdate)",
			func(db *DB) {
				if err := db.UpdateRows("t", []string{"v"}, []TupleID{id}, []Value{IntV(7)}); err != nil {
					t.Fatal(err)
				}
			},
			func(db *DB) { db.RollbackTo(sp) }},
		{"DB.Delete, then Table.insert",
			nil,
			func(db *DB) {
				db.DeleteRows("t", []TupleID{id})
				db.MustInsert("t", IntV(7), StringV("x"))
				if tbl := db.Table("t"); !tbl.run || len(tbl.gone) != 1 {
					t.Fatalf("the delete left the run open=%v with %d gone rows; want open with 1", tbl.run, len(tbl.gone))
				}
			}},
		{"Table.insert, then DB.Delete of that row beside an equal digested row",
			nil,
			func(db *DB) {
				db.DeleteRows("t", []TupleID{db.MustInsert("t", IntV(1), StringV("a"))}) // equal to the row id, which the digest saw
				db.MustInsert("t", IntV(7), StringV("x"))
				if tbl := db.Table("t"); !tbl.run || len(tbl.gone) != 0 {
					t.Fatalf("the delete left the run open=%v with %d gone rows; want open with none", tbl.run, len(tbl.gone))
				}
			}},
		{"DB.RollbackTo, then Table.insert of an identity handed out again, then DB.Delete of it",
			func(db *DB) { db.MustInsert("u", IntV(5)) }, // an identity the digest of t is taken after
			func(db *DB) {
				db.RollbackTo(sp)
				reused := db.MustInsert("t", IntV(1), StringV("a")) // equal to the row id, which the digest saw
				if reused >= db.Table("t").newFrom {
					t.Fatal("the rollback handed out no identity below the digest's; the case would be vacuous")
				}
				db.DeleteRows("t", []TupleID{reused})
				db.MustInsert("t", IntV(7), StringV("x"))
			}},
		{"Table.compact, then Table.insert",
			func(db *DB) {
				for i := 0; i < 20; i++ {
					db.DeleteRows("t", []TupleID{db.MustInsert("t", IntV(int64(i)), StringV("z"))})
				}
			},
			func(db *DB) {
				db.MustInsert("t", IntV(5), StringV("n")) // a slot after the ones the digest saw
				db.DeleteRows("t", []TupleID{id})         // and one of those the digest saw
				tbl := db.Table("t")
				n := len(tbl.slots)
				db.Release(sp)
				if len(tbl.slots) >= n {
					t.Fatal("Release did not compact; the case would be vacuous")
				}
				if !tbl.run || tbl.seen() != 1 || len(tbl.slots) != 2 {
					t.Errorf("compact left the run open=%v over %d of %d slots; want open over the 1 of 2 the digest saw", tbl.run, tbl.seen(), len(tbl.slots))
				}
				db.MustInsert("t", IntV(0), StringV("a"))
			}},
		{"Table.insertPreservingOrder (revive), then Table.insert",
			func(db *DB) { db.DeleteRows("t", []TupleID{id}) },
			func(db *DB) {
				if err := restore(db, "t", id, []Value{IntV(7), StringV("x")}); err != nil {
					t.Fatal(err)
				}
				db.MustInsert("t", IntV(8), StringV("y"))
			}},
		{"Table.insert on a Clone and a Fork taken mid-run",
			func(db *DB) {
				for i := 0; i < 20; i++ {
					db.MustInsert("t", IntV(int64(i)), StringV("c"))
				}
			},
			func(db *DB) {
				db.MustInsert("t", IntV(20), StringV("c"))
				db.Fingerprint() // a merge: the kept encodings grow with room to spare
				if tbl := db.Table("t"); !tbl.run || cap(tbl.enc)-len(tbl.enc) < 32 {
					t.Fatal("no open run with room to merge into; the case would be vacuous")
				}
				copies := []*DB{db.Clone(), db.Fork()}
				for i, c := range append(copies, db) {
					c.MustInsert("t", IntV(int64(-i)), StringV("x"))
					c.Fingerprint()
				}
				for _, c := range copies {
					if err := new(FingerprintOracle).Check(c); err != nil {
						t.Error(err)
					}
				}
				db.MustInsert("t", IntV(-9), StringV("y"))
			}},
	}
	for _, c := range cases {
		t.Run(c.site, func(t *testing.T) {
			db := savepointDB(t)
			id = db.MustInsert("t", IntV(1), StringV("a"))
			db.MustInsert("t", IntV(2), StringV("b"))
			sp = db.Savepoint()
			if c.before != nil {
				c.before(db)
			}
			was, ver := db.Fingerprint(), db.Table("t").Version()
			if !db.Table("t").clean {
				t.Fatal("Fingerprint left the table's digest unmemoized; the case would be vacuous")
			}
			probeAll(db.Table("t"))
			c.mutate(db)
			if db.Table("t").clean {
				t.Errorf("%s changed the table and left its digest marked clean", c.site)
			}
			if got := db.Table("t").Version(); got <= ver {
				t.Errorf("%s changed the table and left its Version at %d (was %d)", c.site, got, ver)
			}
			if err := new(FingerprintOracle).Check(db); err != nil {
				t.Error(err)
			}
			if db.Fingerprint() == was {
				t.Error("the mutation did not change the fingerprint; the case is vacuous")
			}
		})
	}
}

// TestVersionStandsWhileRowsDo is the other half of Version's contract:
// what leaves the live rows, their identities, values and iteration
// order alone leaves Version alone, or a checkpoint re-encodes tables
// nothing changed. One case per such place; a clone starts at its
// original's value.
func TestVersionStandsWhileRowsDo(t *testing.T) {
	db := savepointDB(t)
	tbl := db.Table("t")
	for i := 0; i < 20; i++ {
		db.MustInsert("t", IntV(int64(i)), StringV("a"))
	}
	sp := db.Savepoint()
	for _, id := range tbl.IDs()[:16] {
		db.DeleteRows("t", []TupleID{id})
	}
	ver, slots := tbl.Version(), len(tbl.slots)
	stands := func(what string) {
		t.Helper()
		if got := tbl.Version(); got != ver {
			t.Errorf("%s moved Version from %d to %d", what, ver, got)
		}
	}
	db.Fingerprint()
	stands("Fingerprint")
	probeAll(tbl)
	stands("a probe, which builds an index")
	if !tbl.clean {
		t.Error("a probe marked the table's digest stale")
	}
	tbl.Scan(func(*Tuple) bool { return true })
	tbl.IDs()
	stands("a read-only Scan")
	db.Release(db.Savepoint())
	stands("an inner Savepoint and Release")
	db.Release(sp)
	if len(tbl.slots) >= slots {
		t.Fatalf("the outermost Release left %d slots of %d; compact did not run", len(tbl.slots), slots)
	}
	stands("compact")
	if got := db.Clone().Table("t").Version(); got != ver {
		t.Errorf("a clone's table starts at Version %d, its original is at %d", got, ver)
	}
	if got := db.Fork().Table("t").Version(); got != ver {
		t.Errorf("a fork's table starts at Version %d, its original is at %d", got, ver)
	}
}

// flatDB holds cold untouched rows beside a table of hot ones.
func flatDB(tb testing.TB, hot, cold int) (*DB, []TupleID) {
	tb.Helper()
	db := NewDB(schema.MustParse("table hot (v int, s string)\ntable cold (v int, s string)"))
	for i := 0; i < cold; i++ {
		db.MustInsert("cold", IntV(int64(i)), StringV("archived"))
	}
	ids := make([]TupleID, hot)
	for i := range ids {
		ids[i] = db.MustInsert("hot", IntV(int64(i)), StringV("live"))
	}
	db.Fingerprint()
	return db, ids
}

// TestFingerprintFlatInUntouchedRows is the cost model's tripwire: a
// one-row update followed by Fingerprint encodes the rows of the table
// it touched and no others, and allocates the same small constant,
// whatever another table holds — and however many rows the touched
// table holds, once the DB's scratch has grown to fit it.
func TestFingerprintFlatInUntouchedRows(t *testing.T) {
	measure := func(hot, cold int) (allocs float64, rowsPerOp int) {
		db, ids := flatDB(t, hot, cold)
		n := 0
		op := func() {
			n++
			if err := db.UpdateRows("hot", []string{"v"}, []TupleID{ids[n%hot]}, []Value{IntV(int64(n))}); err != nil {
				t.Fatal(err)
			}
			db.Fingerprint()
		}
		op() // grow the scratch to the hot table
		before := db.fp.rows
		const runs = 100
		allocs = testing.AllocsPerRun(runs, op)
		return allocs, (db.fp.rows - before) / (runs + 1) // AllocsPerRun warms up with one more
	}
	a0, r0 := measure(8, 0)
	a1, r1 := measure(8, 10000)
	if r0 != 8 || r1 != 8 {
		t.Errorf("rows encoded per request: %d with no other rows, %d beside 10 000 untouched ones; want the 8 of the touched table", r0, r1)
	}
	if a0 != a1 {
		t.Errorf("allocations per request: %v with no other rows, %v beside 10 000 untouched ones", a0, a1)
	}
	if a2, _ := measure(2000, 0); a2 != a0 || a0 > 4 {
		t.Errorf("allocations of the dirty pass: %v over 8 rows, %v over 2000; want equal and at most 4", a0, a2)
	}
}

// TestCleanFingerprintAllocatesNothing: with every table's digest
// memoized, Fingerprint is 32 bytes of hashing per table over the DB's
// own sorted names and scratch.
func TestCleanFingerprintAllocatesNothing(t *testing.T) {
	db, _ := flatDB(t, 8, 1000)
	if allocs := testing.AllocsPerRun(100, func() { fpSink = db.Fingerprint() }); allocs != 0 {
		t.Errorf("Fingerprint of a clean database: %v allocations, want 0", allocs)
	}
}

// TestFirstDigestScratchSizedOnce: the first digest of a large table —
// what a reader pays for a decoded snapshot — measures the rows and
// sizes the scratch in one step, and the table's kept sorted copy of the
// encodings in one more, so it allocates little more than the two keep,
// where growing the scratch by append left several times that as
// garbage.
func TestFirstDigestScratchSizedOnce(t *testing.T) {
	db := NewDB(schema.MustParse("table archive (id int, payload string)"))
	for i := 0; i < 10000; i++ {
		db.MustInsert("archive", IntV(int64(i)), StringV(fmt.Sprintf("archived-row-%08d", i)))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fpSink = db.Fingerprint()
	runtime.ReadMemStats(&after)
	tbl := db.Table("archive")
	kept := cap(db.fp.buf) + cap(db.fp.spans)*int(unsafe.Sizeof(rowSpan{})) +
		cap(tbl.enc) + cap(tbl.ends)*int(unsafe.Sizeof(0))
	if got := int(after.TotalAlloc - before.TotalAlloc); 2*got > 3*kept {
		t.Errorf("first Fingerprint of 10 000 rows allocated %d bytes for a %d-byte scratch and kept copy, want at most 1.5x", got, kept)
	}
}

// TestAppendDigestEncodesOnlyNewRows is the append run's cost tripwire:
// k rows appended to an N-row table are the only rows the next
// Fingerprint encodes, and once the table's kept encodings have grown
// the merge allocates the same at N = 1 000 as at N = 100 000.
func TestAppendDigestEncodesOnlyNewRows(t *testing.T) {
	const k, runs = 4, 100
	measure := func(n int) (allocs uint64) {
		db, _ := flatDB(t, 8, n)
		i := 0
		appendK := func() {
			for j := 0; j < k; j++ {
				i++
				db.MustInsert("cold", IntV(int64(i)), StringV("appended"))
			}
		}
		appendK()
		fpSink = db.Fingerprint() // grow the scratch to k rows
		before := db.fp.rows
		var a, b runtime.MemStats
		for r := 0; r < runs; r++ {
			appendK()
			runtime.ReadMemStats(&a)
			fpSink = db.Fingerprint()
			runtime.ReadMemStats(&b)
			allocs += b.Mallocs - a.Mallocs
		}
		if got := db.fp.rows - before; got != k*runs {
			t.Errorf("N = %d: %d Fingerprints after %d appended rows each encoded %d rows, want %d", n, runs, k, got, k*runs)
		}
		if err := new(FingerprintOracle).Check(db); err != nil {
			t.Error(err)
		}
		return allocs / runs
	}
	if a0, a1 := measure(1000), measure(100000); a0 != a1 {
		t.Errorf("allocations per merge of %d appended rows: %d into 1 000 rows, %d into 100 000", k, a0, a1)
	}
}

// TestDeleteDigestEncodesOnlyGoneRows is the delete's cost tripwire:
// after k deletes from an N-row table the next Fingerprint encodes those
// k rows and no others, and takes them out of the kept encodings with
// the same allocations at N = 1 000 as at N = 100 000. Deletes that
// leave no more rows than they took rebuild from the rows left instead.
func TestDeleteDigestEncodesOnlyGoneRows(t *testing.T) {
	db, ids := flatDB(t, 8, 0)
	for _, id := range ids[:5] {
		db.DeleteRows("hot", []TupleID{id})
	}
	before := db.fp.rows
	if fpSink = db.Fingerprint(); db.fp.rows-before != 3 {
		t.Errorf("a digest after deleting 5 of 8 rows encoded %d rows, want the 3 of a rebuild", db.fp.rows-before)
	}

	const k, runs = 4, 100
	measure := func(n int) (allocs uint64) {
		db, _ := flatDB(t, 8, n)
		ids := db.Table("cold").IDs()
		deleteK := func() {
			for j := 0; j < k; j++ {
				db.DeleteRows("cold", []TupleID{ids[0]})
				ids = ids[1:]
			}
		}
		deleteK()
		fpSink = db.Fingerprint() // grow the scratch and gone to k rows
		before := db.fp.rows
		var a, b runtime.MemStats
		for r := 0; r < runs; r++ {
			deleteK()
			runtime.ReadMemStats(&a)
			fpSink = db.Fingerprint()
			runtime.ReadMemStats(&b)
			allocs += b.Mallocs - a.Mallocs
		}
		if got := db.fp.rows - before; got != k*runs {
			t.Errorf("N = %d: %d Fingerprints after %d deleted rows each encoded %d rows, want %d", n, runs, k, got, k*runs)
		}
		if err := new(FingerprintOracle).Check(db); err != nil {
			t.Error(err)
		}
		return allocs / runs
	}
	if a0, a1 := measure(1000), measure(100000); a0 != a1 {
		t.Errorf("allocations per digest after %d deleted rows: %d from 1 000 rows, %d from 100 000", k, a0, a1)
	}
}

// TestGoneRowMissingFromKeptRebuilds: a gone row with no equal among the
// kept encodings — which the run's invariant rules out, so the test
// plants one — makes the digest rebuild from every row instead of taking
// out an encoding that is not its own. So does a second gone row equal
// to the first when the kept encodings hold that row once.
func TestGoneRowMissingFromKeptRebuilds(t *testing.T) {
	for _, planted := range [][]Value{ // sorts before, between and after the kept rows (0..3, "archived")
		{IntV(-1), StringV("archived")},
		{IntV(1), StringV("b")},
		{IntV(9), StringV("archived")},
		nil, // a copy of the gone row (1, "archived")
	} {
		db, _ := flatDB(t, 0, 4)
		tbl := db.Table("cold")
		db.DeleteRows("cold", []TupleID{tbl.IDs()[1]})
		gone := 1
		if planted == nil {
			tbl.gone, gone = append(tbl.gone, tbl.gone[0].clone()), 2
		} else {
			tbl.gone[0] = &Tuple{ID: -1, Vals: planted}
		}
		rows := db.fp.rows
		got := db.Fingerprint()
		if db.fp.rows-rows != gone+3 {
			t.Errorf("planted %v: the digest encoded %d rows, want the %d gone and the 3 of a rebuild", planted, db.fp.rows-rows, gone)
		}
		if err := new(FingerprintOracle).Check(db); err != nil || got != db.Fingerprint() {
			t.Errorf("planted %v: %v", planted, err)
		}
	}
}

var fpSink [32]byte

// BenchmarkFingerprint is the same request shape at three database
// sizes. clean updates a row of an 8-row table beside N untouched rows
// and must read flat in N (it reports, and checks, the rows it encoded);
// dirty updates a row of the N-row table itself, the allocation-free
// pass over a table that did change; append adds a row to the N-row
// table, which merges that one row into its kept encodings below every
// kept row; delete deletes a row of the N-row table and inserts a
// replacement, which takes one row out of the kept encodings and merges
// one in; scatter does the same at a random row with a random value, so
// both land anywhere among the kept rows. cascade is serve_cascade's
// digest: 4 random rows appended to each of 33 tables per op, the
// tables emptied, untimed, whenever they hold 56 rows.
func BenchmarkFingerprint(b *testing.B) {
	for _, mode := range []string{"clean", "dirty", "append", "delete", "scatter"} {
		for _, n := range []int{1000, 10000, 100000} {
			b.Run(fmt.Sprintf("%s/rows=%dk", mode, n/1000), func(b *testing.B) {
				db, ids := flatDB(b, 8, n)
				table, want := "hot", 8
				switch mode {
				case "dirty":
					table, want, ids = "cold", n, db.Table("cold").IDs()
				case "append":
					table, want = "cold", 1
				case "delete", "scatter":
					table, want, ids = "cold", 2, db.Table("cold").IDs()
				}
				rng := rand.New(rand.NewSource(1))
				b.ReportAllocs()
				b.ResetTimer()
				before := db.fp.rows
				for i := 0; i < b.N; i++ {
					switch j := i % len(ids); mode {
					case "append":
						db.MustInsert(table, IntV(int64(-i)), StringV("appended"))
					case "delete":
						db.DeleteRows(table, []TupleID{ids[j]})
						ids[j] = db.MustInsert(table, IntV(int64(-i)), StringV("replacement"))
					case "scatter":
						j = rng.Intn(len(ids))
						db.DeleteRows(table, []TupleID{ids[j]})
						ids[j] = db.MustInsert(table, IntV(rng.Int63n(int64(2*n))), StringV("archived"))
					default:
						if err := db.UpdateRows(table, []string{"v"}, []TupleID{ids[j]}, []Value{IntV(int64(-i))}); err != nil {
							b.Fatal(err)
						}
					}
					fpSink = db.Fingerprint()
				}
				if got := (db.fp.rows - before) / b.N; got != want {
					b.Fatalf("encoded %d rows per fingerprint, want %d", got, want)
				}
				b.ReportMetric(float64(want), "rows/op")
			})
		}
	}
	b.Run("cascade", func(b *testing.B) {
		const tables, batch, most = 33, 4, 56
		var src strings.Builder
		for k := 0; k < tables; k++ {
			fmt.Fprintf(&src, "table c%d (v int)\n", k)
		}
		db := NewDB(schema.MustParse(src.String()))
		rng := rand.New(rand.NewSource(1))
		b.ReportAllocs()
		b.ResetTimer()
		rows := 0
		for i := 0; i < b.N; i++ {
			if i%(most/batch) == 0 {
				b.StopTimer()
				for _, name := range db.names {
					for _, id := range db.Table(name).IDs() {
						db.DeleteRows(name, []TupleID{id})
					}
				}
				fpSink = db.Fingerprint()
				b.StartTimer()
			}
			for _, name := range db.names {
				for r := 0; r < batch; r++ {
					db.MustInsert(name, IntV(rng.Int63()))
				}
			}
			before := db.fp.rows
			fpSink = db.Fingerprint()
			rows += db.fp.rows - before
		}
		if want := tables * batch; rows != want*b.N {
			b.Fatalf("encoded %d rows in %d fingerprints, want %d each", rows, b.N, want)
		}
		b.ReportMetric(tables*batch, "rows/op")
	})
}
