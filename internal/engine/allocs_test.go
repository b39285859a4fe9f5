package engine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"activerules/internal/storage"
)

// raceEnabled is set by race_test.go, which only a -race build compiles.
var raceEnabled bool

// RaceEnabled reports raceEnabled to this directory's external tests
// (explore_test.go), which import execgraph and so cannot be in package
// engine.
func RaceEnabled() bool { return raceEnabled }

// cascadeStepAllocs pins the cost of one step of a cascade on a warmed
// compiled engine: what the step keeps — the four rows it inserts, one
// block of tuples and one of their values for the statement — and
// storage's growth of the table they go into, plus the copy
// TriggeredRules hands out, and nothing of what the step only uses. The
// rule's pending net is refilled in place, so it costs nothing once the
// engine is warm (it was 3 allocations a step, 13 in all; 65 before the
// first pin), and the rows are stored a statement at a time (a tuple and
// its values for each row, 10 in all, before).
const cascadeStepAllocs = 4

// cascadeInsertAllocs and cascadeSweepAllocs pin TestCascadeRequestAllocs.
// An insert request keeps what it stores, a block of tuples and a block
// of their values for its 4 rows in each of 33 tables (66), and allocates
// the per-rule fired counts its Result hands out (4: one map made at its
// exact size from the engine's reused counts; it was 9, a map grown one
// rule at a time), ExecUser's result slice and storage's growth of the
// tables' scan order (under 2, amortized). A sweep allocates ExecUser's
// result slice alone: its DELETEs collect their matches on the Env's
// scratch. Before rows were stored a statement at a time, each row was a
// tuple and its values (264 of the 270 pinned then); the commit before
// the pins measured 372 and 100: a pending net of 3 allocations per
// consideration, and an id list grown three times per DELETE.
const (
	cascadeInsertAllocs = 75
	cascadeSweepAllocs  = 1
)

// TestCascadeStepAllocs is the tripwire for the firing loop: find the
// triggered rule and consider it, for a chain rule of the served cascade
// (bench/gen.go's chainNN: a condition and an action that each read the
// four inserted rows).
func TestCascadeStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const depth, runs = 128, 100
	var sch, rl strings.Builder
	for i := 0; i <= depth; i++ {
		fmt.Fprintf(&sch, "table c%d (v int)\n", i)
	}
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&rl, "create rule chain%03d on c%d\nwhen inserted\nif exists (select 1 from inserted where v >= 0)\nthen insert into c%d select v from inserted\n\n", i, i, i+1)
	}
	set, db := mkSet(t, sch.String(), rl.String())
	e := New(set, db, Options{})
	const op = "insert into c0 values (1), (2), (3), (4)"
	// Warm: one whole cascade and its commit size every scratch.
	if _, err := e.ExecUser(op); err != nil {
		t.Fatal(err)
	}
	if res, err := e.Assert(); err != nil || res.Fired != depth {
		t.Fatalf("warm-up: fired %d, err %v", res.Fired, err)
	}
	if err := e.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecUser(op); err != nil {
		t.Fatal(err)
	}
	e.BeginAssert()
	// Each run is the next step down the chain (AllocsPerRun makes one
	// more call than runs, to warm up).
	steps := 0
	got := testing.AllocsPerRun(runs, func() {
		triggered := e.TriggeredRules()
		if len(triggered) != 1 {
			t.Fatalf("step %d: triggered %v", steps, names(triggered))
		}
		if fired, _, _, err := e.Consider(triggered[0]); err != nil || !fired {
			t.Fatalf("step %d: fired %v, err %v", steps, fired, err)
		}
		steps++
	})
	if steps != runs+1 {
		t.Fatalf("took %d steps, want %d", steps, runs+1)
	}
	if got > cascadeStepAllocs {
		t.Errorf("one cascade step: %.0f allocations, want <= %d", got, cascadeStepAllocs)
	}
	t.Logf("one cascade step: %.0f allocations", got)
}

// TestCascadeRequestAllocs pins two whole requests of the served cascade
// (bench/gen.go's cascadeStream: a 24-deep chain and 8 fan-out rules on
// its head) on a warmed compiled engine, each its ExecUser, Assert and
// Commit: an insert of four rows into the chain head, which every rule
// carries one table on, and a sweep, which deletes them from every table.
// The requests alternate, so each measured one runs against the tables
// the other left.
func TestCascadeRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const depth, fan, runs = 24, 8, 50
	var sch, rl, sweep strings.Builder
	table := func(name string) {
		fmt.Fprintf(&sch, "table %s (v int)\n", name)
		if sweep.Len() > 0 {
			sweep.WriteString("; ")
		}
		fmt.Fprintf(&sweep, "delete from %s where v >= 0 and v < 1000", name)
	}
	for i := 0; i <= depth; i++ {
		table(fmt.Sprintf("c%d", i))
	}
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&rl, "create rule chain%02d on c%d\nwhen inserted\nif exists (select 1 from inserted where v >= 0)\nthen insert into c%d select v from inserted\n\n", i, i, i+1)
	}
	for j := 0; j < fan; j++ {
		table(fmt.Sprintf("f%d", j))
		fmt.Fprintf(&rl, "create rule fan%d on c0\nwhen inserted\nthen insert into f%d select v from inserted where v >= 0\n\n", j, j)
	}
	set, db := mkSet(t, sch.String(), rl.String())
	e := New(set, db, Options{})
	const insert = "insert into c0 values (1), (2), (3), (4)"
	request := func(src string, considered int) {
		res, err := e.ExecUser(src)
		if err != nil {
			t.Fatalf("%.40q: %v", src, err)
		}
		if n := res[len(res)-1].Affected; n != 4 {
			t.Fatalf("%.40q: affected %d rows, want 4", src, n)
		}
		if out, err := e.Assert(); err != nil || out.Considered != considered {
			t.Fatalf("%.40q: considered %d, err %v", src, out.Considered, err)
		}
		if err := e.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	ins := func() { request(insert, depth+fan) }
	swp := func() { request(sweep.String(), 0) }
	for i := 0; i < 3; i++ { // warm: every scratch, the cache's two scripts
		ins()
		swp()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	measure := func(request func()) uint64 {
		runtime.ReadMemStats(&before)
		request()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	var inserts, sweeps uint64
	for i := 0; i < runs; i++ {
		inserts += measure(ins)
		sweeps += measure(swp)
	}
	// Means round down, as testing.AllocsPerRun's do: the runtime's own
	// rare allocations, which Mallocs counts too, stay out of the pin.
	for _, c := range []struct {
		what       string
		got, bound uint64
	}{{"insert", inserts / runs, cascadeInsertAllocs}, {"sweep", sweeps / runs, cascadeSweepAllocs}} {
		if c.got > c.bound {
			t.Errorf("one cascade %s request: %d allocations, want <= %d", c.what, c.got, c.bound)
		}
		t.Logf("one cascade %s request: %d allocations", c.what, c.got)
	}
}

// TestRecordingMutatorAllocs is the tripwire for "the database's history
// is the only record": an update and a delete statement of one row each
// through the engine's mutator allocate nothing — storage's own entry
// lands in the history's warmed backing array, and no old row is copied
// for a second log (one full-row copy each, before the transition log
// went).
func TestRecordingMutatorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	set, db := mkSet(t, "table t (a int, b int, c int)", "create rule r on t when updated(a), deleted then delete from t where a < 0")
	ids := []storage.TupleID{db.MustInsert("t", storage.IntV(1), storage.IntV(2), storage.IntV(3))}
	e := New(set, db, Options{})
	m := recordingMutator{e}
	cols, vals := []string{"a"}, []storage.Value{storage.IntV(0)}
	for name, statement := range map[string]func() error{
		"update": func() error { vals[0].I++; return m.Update("t", cols, ids, vals) },
		"delete": func() error { return m.Delete("t", ids) },
	} {
		// Each run rolls its one entry back, so the history stays
		// inside the array the warm-up call grew.
		got := testing.AllocsPerRun(100, func() {
			sp := db.Savepoint()
			if err := statement(); err != nil {
				t.Fatal(err)
			}
			db.RollbackTo(sp)
		})
		if got != 0 {
			t.Errorf("one %s through the recording mutator: %.0f allocations, want 0", name, got)
		}
	}
}

// execUserUpdateAllocs pins one bank update through an engine whose
// cache holds the text's token key: the result slice. The update
// collects its match and the new value on the Env's scratch, nothing is
// parsed, resolved or compiled, and the equality probe finds the one row
// without a scan.
const execUserUpdateAllocs = 1

// execUserInsertAllocs bounds what a cache hit on a literal INSERT of
// many rows allocates beyond what storage's inserts of the same rows
// allocate: one copy per string literal, plus this many objects (the
// result slice and the list of source rows).
const execUserInsertAllocs = 2

// userAccounts is an engine over an account table of n rows with the
// bank's hold rule, the table serve_hot's updates run against.
func userAccounts(t testing.TB, n int) *Engine {
	t.Helper()
	set, db := mkSet(t, "table account (id int, owner string, balance float)\ntable holds (id int)",
		"create rule r_hold on account when updated(balance) "+
			"if exists (select 1 from new-updated nu where nu.balance < 0) "+
			"then insert into holds select nu.id from new-updated nu where nu.balance < 0")
	for i := 0; i < n; i++ {
		db.MustInsert("account", storage.IntV(int64(i)), storage.StringV(fmt.Sprintf("o%d", i)), storage.FloatV(100))
	}
	return New(set, db, Options{})
}

// userUpdates returns k updates of one token key with differing literals.
func userUpdates(k, n int) []string {
	out := make([]string, k)
	for i := range out {
		out[i] = fmt.Sprintf("update account set balance = balance + %d.5 where id = %d", i%7, (i*37)%n)
	}
	return out
}

// TestExecUserCachedUpdateAllocs is the tripwire for ExecUser's cache:
// after the first text of a token key, another with new literals
// allocates a pinned count, the same over 100 rows as over 10 000.
func TestExecUserCachedUpdateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	counts := map[int]float64{}
	for _, n := range []int{100, 10000} {
		e := userAccounts(t, n)
		ops := userUpdates(64, n)
		if _, err := e.ExecUser(ops[0]); err != nil {
			t.Fatal(err)
		}
		i := 0
		counts[n] = testing.AllocsPerRun(50, func() {
			sp := e.db.Savepoint()
			res, err := e.ExecUser(ops[i%len(ops)])
			if err != nil || len(res) != 1 || res[0].Affected != 1 {
				t.Fatalf("%q: %+v, %v", ops[i%len(ops)], res, err)
			}
			e.db.RollbackTo(sp)
			i++
		})
		if e.user.Len() != 1 {
			t.Errorf("%d rows: %d cached scripts, want 1", n, e.user.Len())
		}
	}
	for n, got := range counts {
		if got != execUserUpdateAllocs {
			t.Errorf("%d rows: a cached update allocates %.0f, want %d", n, got, execUserUpdateAllocs)
		}
	}
}

// TestExecUserCachedInsertAllocs is the tripwire for a hit's lexing: a
// 1 000-row literal INSERT whose key the cache holds allocates one
// object per string literal, each copied out of the text at its size,
// and execUserInsertAllocs more than inserting its rows into storage
// directly, as one statement, does. No token, key byte or number costs an allocation.
func TestExecUserCachedInsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const rows = 1000
	set, db := mkSet(t, "table archive (id int, note string)", "create rule r on archive when deleted then delete from archive")
	e := New(set, db, Options{})
	texts := make([]string, 8)
	for k := range texts {
		var sb strings.Builder
		sb.WriteString("insert into archive values ")
		for i := 0; i < rows; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, 'archived-row-%08d')", k*rows+i, k*rows+i)
		}
		texts[k] = sb.String()
	}
	if _, err := e.ExecUser(texts[0]); err != nil {
		t.Fatal(err)
	}
	k := 0
	hit := testing.AllocsPerRun(20, func() {
		sp := db.Savepoint()
		res, err := e.ExecUser(texts[k%len(texts)])
		if err != nil || len(res) != 1 || res[0].Affected != rows {
			t.Fatalf("%+v, %v", res, err)
		}
		db.RollbackTo(sp)
		k++
	})
	if e.user.Len() != 1 {
		t.Fatalf("%d cached scripts, want 1", e.user.Len())
	}
	vals := make([][]storage.Value, rows)
	for i := range vals {
		vals[i] = []storage.Value{storage.IntV(int64(i)), storage.StringV("archived")}
	}
	direct := testing.AllocsPerRun(20, func() {
		sp := db.Savepoint()
		if _, err := db.InsertRows("archive", vals); err != nil {
			t.Fatal(err)
		}
		db.RollbackTo(sp)
	})
	if extra := hit - direct; extra > rows+execUserInsertAllocs {
		t.Errorf("a cached %d-row insert allocates %.0f, %.0f more than storage's inserts; want at most %d (a copy per string literal and %d)",
			rows, hit, extra, rows+execUserInsertAllocs, execUserInsertAllocs)
	}
	t.Logf("a cached %d-row insert: %.0f allocations, storage's inserts %.0f", rows, hit, direct)
}

// BenchmarkExecUserUpdate is one bank update over a 200-row table,
// compiled through the text-keyed cache.
func BenchmarkExecUserUpdate(b *testing.B) {
	e := userAccounts(b, 200)
	ops := userUpdates(64, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := e.db.Savepoint()
		if _, err := e.ExecUser(ops[i%len(ops)]); err != nil {
			b.Fatal(err)
		}
		e.db.RollbackTo(sp)
	}
}
