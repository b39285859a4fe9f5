package compile

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"activerules/internal/sqlmini"
	"activerules/internal/storage"
)

// raceEnabled is set by race_test.go, which only a -race build compiles.
var raceEnabled bool

// TestTypedCompareMatchesApplyBinary holds each comparison kernel to
// PredTruth of ApplyBinary, value for value: over every pair of values
// of its kind (null, extremes, 2⁵³±1, NaN and signed zeros among them),
// for every comparison operator. A column index out of its row's range
// reaches the generic path's error.
func TestTypedCompareMatchesApplyBinary(t *testing.T) {
	byKind := map[kindMask][]storage.Value{
		kInt: {storage.IntV(0), storage.IntV(-1), storage.IntV(1), storage.IntV(1 << 53), storage.IntV(1<<53 + 1),
			storage.IntV(1<<53 - 1), storage.IntV(math.MaxInt64), storage.IntV(math.MinInt64)},
		kFloat: {storage.FloatV(0), storage.FloatV(math.Copysign(0, -1)), storage.FloatV(-2.5), storage.FloatV(1 << 53),
			storage.FloatV(math.Inf(1)), storage.FloatV(math.Inf(-1)), storage.FloatV(math.NaN())},
		kString: {storage.StringV(""), storage.StringV("a"), storage.StringV("b"), storage.StringV("ab"), storage.StringV("it's")},
		kBool:   {storage.BoolV(false), storage.BoolV(true)},
	}
	errShort := errors.New("short row")
	generic := func(env *Env) (storage.Value, error) { return storage.Value{}, errShort }
	ops := []sqlmini.BinaryOp{sqlmini.OpEq, sqlmini.OpNe, sqlmini.OpLt, sqlmini.OpLe, sqlmini.OpGt, sqlmini.OpGe}
	for kind, vals := range byKind {
		vals = append(vals, storage.Null)
		for _, op := range ops {
			// Slot 0 holds the left value's row, Params[0] the right.
			col := exprC{total: true, kinds: kind, leaf: leaf{from: leafColumn}}
			par := exprC{total: true, kinds: kind, leaf: leaf{from: leafParam}}
			test := typedCompare(op, col, par, generic)
			if test == nil {
				t.Fatalf("kind %b, op %d: no kernel", kind, op)
			}
			for _, l := range vals {
				for _, r := range vals {
					env := &Env{Slots: [][]storage.Value{{l}}, Params: []storage.Value{r}}
					want, werr := sqlmini.ApplyBinary(op, l, r)
					wantOK, _ := sqlmini.PredTruth(want)
					if ok, err := test(env); ok != wantOK || err != nil || werr != nil {
						t.Errorf("%s %d %s: %v, %v; ApplyBinary: %v, %v", l, op, r, ok, err, want, werr)
					}
				}
			}
			env := &Env{Slots: [][]storage.Value{{}}, Params: []storage.Value{vals[0]}}
			if _, err := test(env); err != errShort {
				t.Errorf("kind %b, op %d, short row: %v, want the generic path's error", kind, op, err)
			}
		}
	}
}

// TestTypedCompareChoice: a comparison gets a kernel exactly when both
// operands are total, of the same single kind, and each a column, a
// lifted literal or a constant.
func TestTypedCompareChoice(t *testing.T) {
	sch := testSchema(t)
	for src, want := range map[string]bool{
		"a = 1":             true,
		"a < b":             true,
		"a > -2":            true, // the minus folds into a constant
		"s = 'x'":           true,
		"f <= 1.5":          true,
		"bl = true":         true,
		"-a >= 2":           false, // not a leaf
		"a + b > 3":         false,
		"(a = 1) = (b = 2)": false,
		"a = 1.5":           false, // int against float
		"f = 1":             false,
		"a / 2 = 1":         false, // may error
		"a = null":          false,
		"a % 2 = 0":         false,
	} {
		st, err := sqlmini.ParseStatement("select a from t where " + src)
		if err != nil {
			t.Fatal(err)
		}
		if err := sqlmini.ResolveStatement(st, &sqlmini.ResolveContext{Schema: sch}); err != nil {
			t.Fatal(err)
		}
		c := &compiler{sch: sch}
		c.push("t")
		where := st.(*sqlmini.Select).Where.(*sqlmini.Binary)
		lc, err := c.compileExpr(where.L)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := c.compileExpr(where.R)
		if err != nil {
			t.Fatal(err)
		}
		if test := typedCompare(where.Op, lc, rc, nil); (test != nil) != want {
			t.Errorf("%q: kernel %v, want %v", src, test != nil, want)
		}
	}
}

// TestUserCacheTypedWhereAllocsFlatInRows: a cached statement whose
// WHERE is a typed kernel allocates the same over 100 rows as over
// 10 000 — nothing per scanned row, and nothing but its result slice.
func TestUserCacheTypedWhereAllocsFlatInRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	sch := testSchema(t)
	counts := make([]float64, 2)
	for i, n := range []int{100, 10000} {
		db := storage.NewDB(sch)
		for k := 0; k < n; k++ {
			db.MustInsert("u", storage.IntV(int64(k)), storage.IntV(int64(k%7)))
		}
		uc := NewUserCache(sch)
		mut := sqlmini.DirectMutator(db)
		srcs := []string{"delete from u where v >= 100 and v < 200", "delete from u where v >= 8 and v < 9"}
		k := 0
		counts[i] = testing.AllocsPerRun(50, func() {
			res, err := uc.Exec(srcs[k%len(srcs)], db, mut)
			if err != nil || len(res) != 1 || res[0].Affected != 0 {
				t.Fatalf("%+v, %v", res, err)
			}
			k++
		})
		if uc.Len() != 1 {
			t.Errorf("%d rows: %d scripts, want 1", n, uc.Len())
		}
	}
	if counts[0] != counts[1] || counts[0] != 1 {
		t.Errorf("a cached delete matching nothing allocates %.0f over 100 rows and %.0f over 10 000, want 1 and 1 (its result slice)", counts[0], counts[1])
	}
}

// TestUserCacheBound: a cache that reaches maxScripts, or would hold
// more than maxKeyBytes of keys, starts over, so it never holds more;
// a text whose key alone is longer is not cached.
func TestUserCacheBound(t *testing.T) {
	sch := testSchema(t)
	db := seedDB(t, sch)
	uc := NewUserCache(sch)
	inList := func(n int) string { return "select a from t where a in (0" + strings.Repeat(", 0", n) + ")" }
	for i := 0; i < 2*maxScripts+3; i++ {
		// Each IN-list length is a key of its own.
		if _, err := uc.Exec(inList(i), db, nil); err != nil {
			t.Fatal(err)
		}
		if uc.Len() > maxScripts {
			t.Fatalf("after %d scripts the cache holds %d, bound %d", i+1, uc.Len(), maxScripts)
		}
	}
	if uc.Len() != 3 {
		t.Errorf("after %d scripts the cache holds %d, want 3", 2*maxScripts+3, uc.Len())
	}
	klen := func(n int) int { k, _ := textKey(t, inList(n)); return len(k) }
	items := func(bytes int) int { return (bytes - klen(0)) / (klen(1) - klen(0)) }
	long, half := items(maxKeyBytes)+1, items(maxKeyBytes/2-4096)
	for _, c := range []struct{ n, want int }{{long, 3}, {half, 4}, {half, 4}, {half + 1, 5}, {half + 2, 1}} {
		if _, err := uc.Exec(inList(c.n), db, nil); err != nil {
			t.Fatal(err)
		}
		if uc.Len() != c.want || uc.keyBytes > maxKeyBytes {
			t.Errorf("after an IN list of %d: %d scripts with %d key bytes, want %d scripts and at most %d bytes", c.n, uc.Len(), uc.keyBytes, c.want, maxKeyBytes)
		}
	}
}

// TestUserCacheScratchBound: a text longer than maxScratchText leaves
// none of the scratch it grew behind, hit or miss, and a miss leaves no
// pointer into the statements it parsed.
func TestUserCacheScratchBound(t *testing.T) {
	sch := testSchema(t)
	db := seedDB(t, sch)
	uc := NewUserCache(sch)
	var sb strings.Builder
	sb.WriteString("insert into u values (0, 0)")
	for sb.Len() <= maxScratchText {
		sb.WriteString(", (1, 2)")
	}
	long := sb.String()
	for round, src := range []string{"update u set v = 3 where a = 1", long, long} {
		if _, err := uc.Exec(src, db, sqlmini.DirectMutator(db)); err != nil {
			t.Fatal(err)
		}
		for _, l := range uc.lits[:cap(uc.lits)] {
			if l != nil {
				t.Fatalf("round %d: the literal list still points at %v", round, l)
			}
		}
		if round > 0 && (!reflect.ValueOf(uc.lx).IsZero() || uc.lits != nil || uc.vals != nil || uc.env.Params != nil) {
			t.Errorf("round %d: a %d-byte text's scratch is kept (lits %d, vals %d, params %d)",
				round, len(long), cap(uc.lits), cap(uc.vals), cap(uc.env.Params))
		}
	}
	if uc.Len() != 2 {
		t.Errorf("%d scripts cached, want 2", uc.Len())
	}
}

// TestUserCacheKeepsNoRequest: a cached script holds no part of the text
// that filled its key. The lexer hands a lower-case word out as a slice of
// the text, so a closure that captured a table, column or function name
// as the statement spells it would keep the whole request alive, up to the
// 16 MiB request limit for each of maxScripts keys. Each statement here is
// cached from a text padded to several MiB, every other reference to the
// text is dropped, and after a collection the heap must have let it go.
func TestUserCacheKeepsNoRequest(t *testing.T) {
	const pad = 8 << 20
	sch := testSchema(t)
	for _, stmt := range []string{
		"insert into u (a, v) values (1, 2)",
		"delete from u where a = 9 and v > 0",
		"update u set v = v + 1 where a = 2",
		"select t.a, count(s), sum(b), max(f) from t where s = 'x' group by t.a",
		"select a from t where a in (select u.a from u) and exists (select 1 from u x where x.a = t.a) order by a",
		"select distinct a, count(*) from t where s is not null and b in (10, 20) group by a having sum(b) > 0 order by a desc limit 3",
		"select a, (select max(v) from u where u.a = t.a) from t where not (a < 0)",
	} {
		db := seedDB(t, sch)
		uc := NewUserCache(sch)
		before := liveHeap()
		fillFromPadded(t, uc, db, stmt, pad)
		after := liveHeap()
		if uc.Len() != 1 {
			t.Fatalf("%q: %d scripts cached, want 1", stmt, uc.Len())
		}
		if after > before && after-before > pad/2 {
			t.Errorf("%q: the cache keeps %d KiB after a %d KiB request was dropped", stmt, (after-before)>>10, pad>>10)
		}
		runtime.KeepAlive(uc)
		runtime.KeepAlive(db)
	}
}

// fillFromPadded runs stmt followed by pad spaces, one allocation that
// every word the lexer hands out points into, and drops it.
func fillFromPadded(t *testing.T, uc *UserCache, db *storage.DB, stmt string, pad int) {
	text := stmt + strings.Repeat(" ", pad)
	if _, err := uc.Exec(text, db, sqlmini.DirectMutator(db)); err != nil {
		t.Fatalf("%q: %v", stmt, err)
	}
}

// liveHeap is the heap in use after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestUserCacheLimit: a LIMIT count is no literal node, so it stays in
// the key: a text with one is cached, and LIMIT 1 never runs a closure
// compiled for LIMIT 2. A null is in the key, so a text with one is
// cached and runs as written, VALUES rows included.
func TestUserCacheLimit(t *testing.T) {
	sch := testSchema(t)
	db := seedDB(t, sch)
	uc := NewUserCache(sch)
	seeded := db.Table("u").Len()
	for _, c := range []struct {
		src     string
		rows    int
		scripts int
	}{
		{"select a from t order by a limit 2", 2, 1},
		{"select a from t order by a limit 1", 1, 2},
		{"SELECT a FROM t ORDER BY a LIMIT 2", 2, 2},
		{"select a from t where bl = true", 2, 3},
		{"select a from t where bl = false", 1, 3},
		{"select a from t where b = null or a = 4", 1, 4},
		{"select a from t where b = null or a = 1", 1, 4},
		{"insert into u values (null, 5), (6, null)", 0, 5},
		{"insert into u values (null, 7), (8, null)", 0, 5},
		{"select a, v from u where a is null or v is null order by v", 4, 6},
	} {
		res, err := uc.Exec(c.src, db, sqlmini.DirectMutator(db))
		if err != nil || len(res) != 1 || len(res[0].Rows) != c.rows || uc.Len() != c.scripts {
			t.Errorf("%q: %+v, %v with %d scripts cached; want %d rows and %d scripts", c.src, res, err, uc.Len(), c.rows, c.scripts)
		}
	}
	if got := db.Table("u").Len(); got != seeded+4 {
		t.Errorf("u holds %d rows, want %d", got, seeded+4)
	}
}

// renderDB lists every table's live rows in scan order, identities
// included: what a probe must leave exactly as a scan would.
func renderDB(db *storage.DB) string {
	var sb strings.Builder
	for _, name := range db.Schema().TableNames() {
		sb.WriteString(name + ":")
		db.Table(name).Scan(func(tu *storage.Tuple) bool {
			fmt.Fprintf(&sb, " %d%v", tu.ID, tu.Vals)
			return true
		})
		sb.WriteString("\n")
	}
	return sb.String()
}

// TestUserCacheProbesAgreeWithInterpreter runs point UPDATEs and
// DELETEs, which a UserCache answers from an equality index, and the
// interpreter, which never probes, side by side over one script: a
// unique int key and a string key, values held by two rows, absent
// values, nulls in the key column, WHEREs that can error, an UPDATE
// that rewrites the probed column, equalities that are not a probe,
// and probes after a savepoint rollback. After every statement the
// results or errors and the rows, in scan order with their identities,
// must agree.
func TestUserCacheProbesAgreeWithInterpreter(t *testing.T) {
	sch := testSchema(t)
	script := []string{
		"delete from t where a = 100",                     // a column's first probe scans: these
		"delete from t where s = 'none'",                  // three mark t.a, t.s and u.a, so the
		"delete from u where a = 100",                     // probes below are answered by indexes
		"update t set b = b + 1 where a = 3",              // a unique int key
		"update t set b = 0 where s = 'y'",                // a unique string key
		"update t set b = 7 where s = 'x'",                // two holders: a scan
		"update t set b = 7 where a = 99",                 // absent
		"delete from t where s = 'zz'",                    // absent
		"update t set f = 0.5 where a = 1 and s = 'x'",    // the probe is a conjunct
		"update t set f = 1.5 where s = 'x' and 1 = a",    // the key on the left
		"update t set b = 8 where a = null",               // no probe: null is of no kind
		"update t set f = 9 where s is null",              // the null key row keeps b = 0
		"update t set a = 30 where a = 3",                 // rewrites the probed column
		"update t set b = 4 where a = 30",                 // its new value
		"update t set b = 5 where a = 3",                  // its old value, now absent
		"update t set f = 2.5 where a = 30 or b = 0",      // an OR: no probe
		"update t set f = 3.5 where a <> 30",              // not an equality: no probe
		"update t set f = 4.5 where b >= 0 and a = 30",    // the probe is the right conjunct
		"update t set s = 'y' where a = 1",                // 'y' gets a second holder
		"update t set b = 6 where s = 'y'",                // which a scan finds
		"delete from t where s = 'y' and a = 2",           // the first of them goes
		"update t set b = 1 where s = 'y'",                // one holder left, unknown
		"update t set b = 2 where a = 1 and 10 / b > 1",   // can error: not on a = 1, but b = 0 on the null key
		"delete from t where s = 'x' and 10 / b > 1",      // can error, beside a scan's key
		"delete from t where a = 30 and 10 / (b - 4) > 0", // can error: on the probed row
		"update t set b = b / 0 where a = 4",              // the SET errors on the one holder
		"update u set v = v + 1 where a = 2",
		"update u set a = 1 where a = 3", // u.a = 1 gets a second holder
		"delete from u where a = 1",      // both go
		"delete from u where a = 2",
	}
	run := func(db *storage.DB, src string, compiled *UserCache) string {
		var res sqlmini.StmtResult
		var err error
		if compiled != nil {
			var out []sqlmini.StmtResult
			if out, err = compiled.Exec(src, db, sqlmini.DirectMutator(db)); err == nil {
				res = out[0]
			}
		} else {
			st, perr := sqlmini.ParseStatement(src)
			if perr != nil {
				t.Fatal(perr)
			}
			if err = sqlmini.ResolveStatement(st, &sqlmini.ResolveContext{Schema: sch}); err == nil {
				res, err = (&sqlmini.Evaluator{DB: db, Mut: sqlmini.DirectMutator(db)}).Exec(st)
			}
		}
		if err != nil {
			return fmt.Sprintf("error: %v\n%s", err, renderDB(db))
		}
		return fmt.Sprintf("%+v\n%s", res, renderDB(db))
	}
	idb, cdb := seedDB(t, sch), seedDB(t, sch)
	for _, db := range []*storage.DB{idb, cdb} {
		db.MustInsert("t", storage.Null, storage.IntV(0), storage.Null, storage.Null, storage.Null)
	}
	uc := NewUserCache(sch)
	var failed []string
	step := func(src string) {
		t.Helper()
		want, got := run(idb, src, nil), run(cdb, src, uc)
		if got != want {
			t.Errorf("%q:\n interp:   %s\n compiled: %s", src, want, got)
		}
		if strings.HasPrefix(want, "error: ") {
			failed = append(failed, src)
		}
	}
	for i, src := range script {
		if i == len(script)/2 {
			// Probes after a savepoint rollback: the index follows
			// the undo records, rewrites of the probed column included.
			isp, csp := idb.Savepoint(), cdb.Savepoint()
			for _, src := range []string{"update t set a = 40 where a = 1", "delete from t where a = 4", "update t set s = 'w' where a = 30"} {
				step(src)
			}
			idb.RollbackTo(isp)
			cdb.RollbackTo(csp)
			for _, src := range []string{"update t set b = 11 where a = 1", "update t set b = 12 where a = 40", "update t set b = 13 where a = 4", "update t set b = 14 where s = 'w'"} {
				step(src)
			}
		}
		step(src)
	}
	if len(failed) != 4 {
		t.Errorf("the statements that failed: %q; want the four that can", failed)
	}
	if err := new(storage.FingerprintOracle).Check(cdb); err != nil {
		t.Error(err)
	}
}

// TestPointStatementsVisitOneRow is the probe's flatness tripwire: a
// point UPDATE and a point DELETE through a UserCache over 10 000 rows
// visit exactly one row. The test counts the visits itself, with a
// trap: once the key column's index is built (a column's first probe
// scans, its second builds the index), every other row is cut
// to no columns, so the WHERE's first column read on any of them fails
// with the generic path's out-of-range error. Each point statement must
// succeed and affect its one row, so it visited that row and no other;
// a range statement over the same key shows the trap springs on a scan.
func TestPointStatementsVisitOneRow(t *testing.T) {
	sch := testSchema(t)
	db := storage.NewDB(sch)
	for k := 0; k < 10000; k++ {
		db.MustInsert("t", storage.IntV(int64(k)), storage.IntV(0), storage.StringV(fmt.Sprintf("s%d", k)), storage.FloatV(0), storage.BoolV(false))
	}
	uc := NewUserCache(sch)
	mut := sqlmini.DirectMutator(db)
	exec := func(src string) (sqlmini.StmtResult, error) {
		res, err := uc.Exec(src, db, mut)
		if err != nil {
			return sqlmini.StmtResult{}, err
		}
		return res[0], nil
	}
	for _, src := range []string{"update t set b = 1 where a = 0", "delete from t where a = 10000"} { // the second builds a's index
		if _, err := exec(src); err != nil {
			t.Fatal(err)
		}
	}
	tbl := db.Table("t")
	cut := map[storage.TupleID][]storage.Value{}
	tbl.Scan(func(tu *storage.Tuple) bool {
		if a := tu.Vals[0].I; a != 5000 && a != 6000 {
			cut[tu.ID], tu.Vals = tu.Vals, tu.Vals[:0]
		}
		return true
	})
	for _, src := range []string{"update t set b = b + 1 where a = 5000", "update t set b = b + 1 where b >= 0 and a = 5000", "delete from t where a = 6000"} {
		if res, err := exec(src); err != nil || res.Affected != 1 {
			t.Errorf("%q over 10 000 rows: %+v, %v; want one row affected, no other visited", src, res, err)
		}
	}
	if _, err := exec("update t set b = b + 1 where a >= 5000 and a <= 5000"); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("a scan over the cut rows: %v; want the out-of-range error, or the trap cannot see a visit", err)
	}
	tbl.Scan(func(tu *storage.Tuple) bool {
		if vals, ok := cut[tu.ID]; ok {
			tu.Vals = vals
		}
		return true
	})
	if n, one, _ := tbl.Holders(0, storage.IntV(5000)); n != 1 || one == nil || one.Vals[1] != storage.IntV(2) {
		t.Errorf("after the point update, a = 5000 has %d holders, %v", n, one)
	}
	if n, _, _ := tbl.Holders(0, storage.IntV(6000)); n != 0 || tbl.Len() != 9999 {
		t.Errorf("after the point delete, a = 6000 has %d holders and the table %d rows", n, tbl.Len())
	}
}

// BenchmarkUserStatement prices one user statement, arriving as text as
// a request's SQL does, four ways: "interpreted" parses it, resolves it
// and runs sqlmini.Evaluator (the reference rule processor's path);
// "miss" runs it through a UserCache that does not hold its key (lexing,
// parsing, resolution, compilation, run); "text-hit" through one that does
// (lexing and run); and "hit" parses the text first and then hits, which
// prices a hit that still parses, as every hit did while the cache was
// keyed by the parsed statement. Traffic that never repeats a key pays
// "miss" on every statement. The update and the delete are point
// statements: their hits probe an equality index, so they stay flat
// from 10 rows to 10 000.
func BenchmarkUserStatement(b *testing.B) {
	sch := testSchema(b)
	for _, n := range []int{10, 200, 10000} {
		db := storage.NewDB(sch)
		for k := 0; k < n; k++ {
			db.MustInsert("t", storage.IntV(int64(k)), storage.IntV(int64(10*k)), storage.StringV(fmt.Sprintf("s%d", k)),
				storage.FloatV(float64(k)/4), storage.BoolV(k%2 == 0))
			if k < 16 && k%2 == 0 {
				db.MustInsert("u", storage.IntV(int64(k)), storage.IntV(int64(k%7)))
			}
		}
		mut := sqlmini.DirectMutator(db)
		for _, stmt := range []struct{ name, src string }{
			{"update", "update t set b = b + 1 where a = 7"},
			{"delete", "delete from t where a = 7"},
			{"insert", "insert into t values (1000, 1, 'z', 0.5, true)"},
			{"select", "select a, s from t where f > 1.5 and bl = true"},
			{"exists", "select a from t where exists (select 1 from u where u.a = t.a and u.v > 2)"},
		} {
			for _, mode := range []string{"interpreted", "miss", "hit", "text-hit"} {
				b.Run(fmt.Sprintf("%s/rows=%d/%s", stmt.name, n, mode), func(b *testing.B) {
					uc := NewUserCache(sch)
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						sp := db.Savepoint()
						var err error
						switch mode {
						case "interpreted":
							var st sqlmini.Statement
							if st, err = sqlmini.ParseStatement(stmt.src); err == nil {
								if err = sqlmini.ResolveStatement(st, &sqlmini.ResolveContext{Schema: sch}); err == nil {
									_, err = (&sqlmini.Evaluator{DB: db, Mut: mut}).Exec(st)
								}
							}
						case "miss":
							clear(uc.scripts)
							_, err = uc.Exec(stmt.src, db, mut)
						case "hit":
							if _, err = sqlmini.ParseStatements(stmt.src); err == nil {
								_, err = uc.Exec(stmt.src, db, mut)
							}
						default:
							_, err = uc.Exec(stmt.src, db, mut)
						}
						db.RollbackTo(sp)
						if err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
