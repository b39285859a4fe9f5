package compile

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"activerules/internal/sqlmini"
	"activerules/internal/storage"
)

// raceEnabled is set by race_test.go, which only a -race build compiles.
var raceEnabled bool

// shapeOf parses src and returns its shape key and literals.
func shapeOf(t *testing.T, src string) (string, []storage.Value) {
	t.Helper()
	st, err := sqlmini.ParseStatement(src)
	if err != nil {
		t.Fatalf("%q: %v", src, err)
	}
	var sh shaper
	if !sh.shape(st) {
		t.Fatalf("%q: not cacheable", src)
	}
	vals := make([]storage.Value, len(sh.lits))
	for i, l := range sh.lits {
		vals[i] = l.Val
	}
	return string(sh.key), vals
}

// TestShapeSharedAcrossLiterals: statements that differ only in the
// values of literals of one kind share a shape; any other difference,
// a literal's kind included, does not. VALUES rows of bare literals
// share one shape whatever their count and kinds.
func TestShapeSharedAcrossLiterals(t *testing.T) {
	same := [][2]string{
		{"update account set balance = balance + 5.0 where id = 17", "update account set balance = balance + 10.0 where id = 42"},
		{"select a from t where s = 'it''s' and b > -3", "select a from t where s = '' and b > -9007199254740993"},
		{"select a from t where a in (1, 2) order by a limit 3", "select a from t where a in (7, 8) order by a limit 3"},
		{"insert into t values (1, 2, 'x', 1.5, true)", "insert into t values (3, 4, 'y', 2.5, false), (5, null, null, 7, null)"},
		{"insert into u (v, a) values (1, 2)", "insert into u (v, a) values ('x', 2.5), (null, 3), (4, 4)"},
		{"delete from u where v >= 0 and v < 1000000000", "delete from u where v >= 5 and v < 9"},
	}
	for _, p := range same {
		k0, _ := shapeOf(t, p[0])
		k1, _ := shapeOf(t, p[1])
		if k0 != k1 {
			t.Errorf("%q and %q: different shapes", p[0], p[1])
		}
	}
	differ := [][2]string{
		{"select a from t order by a limit 1", "select a from t order by a limit 2"},
		{"select a from t where a in (1, 2)", "select a from t where a in (1, 2, 3)"},
		{"select a from t where a = 1", "select a from t where a = 1.0"},
		{"select a from t where a = 1", "select a from t where a = null"},
		{"select a from t where a = 1", "select a from t where a = '1'"},
		{"select a from t where a = 1", "select a from t where a = -1"},
		{"select a from t where a = 1", "select a from t where a <> 1"},
		{"select a from t where a = 1", "select b from t where a = 1"},
		{"select a from t where a = 1", "select a from u where a = 1"},
		{"select a from t x where a = 1", "select a from t where a = 1"},
		{"select a from t where a = 1", "select distinct a from t where a = 1"},
		{"select a from t order by a", "select a from t order by a desc"},
		{"select a from t where a is null", "select a from t where a is not null"},
		{"select a from t where a in (1)", "select a from t where a not in (1)"},
		{"insert into t values (-1, 2, 'x', 1.5, true)", "insert into t values (1, 2, 'x', 1.5, true)"},
		{"insert into u values (1, 2)", "insert into u values (1, 2 + 0)"},
		{"insert into u values (1, 2)", "insert into u (a, v) values (1, 2)"},
		{"update u set v = 1", "update u set a = 1"},
		{"delete from u", "delete from u where v = 1"},
		{"select count(*) from t", "select count(a) from t"},
		{"select sum(a) from t", "select max(a) from t"},
	}
	for _, p := range differ {
		k0, _ := shapeOf(t, p[0])
		k1, _ := shapeOf(t, p[1])
		if k0 == k1 {
			t.Errorf("%q and %q: one shape", p[0], p[1])
		}
	}
	// A LIMIT count is part of the shape, not a literal.
	if _, lits := shapeOf(t, "select a from t where a = 5 limit 7"); len(lits) != 1 || lits[0] != storage.IntV(5) {
		t.Errorf("literals of a LIMIT query = %v, want [5]", lits)
	}
}

// TestShapeKeyCoversEveryField changes each field of a parsed statement
// that is not a literal's value — every name, operator, flag and count,
// reached by reflection so that a field added to the AST is covered too
// — and requires the shape key to change with it, except the row count
// of VALUES rows of bare literals.
func TestShapeKeyCoversEveryField(t *testing.T) {
	for _, src := range []string{
		"select distinct a, count(*) from t x where x.a in (1, 2) and not exists (select 1 from u where u.a = x.a) group by a having sum(b) > 2 order by a desc limit 4",
		"select (select max(v) from u where u.a = t.a), -b from t where a in (select a from u) and s is not null",
		"insert into u (a, v) select a, b from t where b % 2 = 0",
		"insert into u (a, v) values (1, 2 + 3), (4, -5)",
		"insert into u values (1, 2), (3, 4)",
		"update t set b = b * 2, s = 'z' where f < 1.5 or bl",
		"delete from u where v / a > 10",
	} {
		st, err := sqlmini.ParseStatement(src)
		if err != nil {
			t.Fatal(err)
		}
		var sh shaper
		sh.shape(st)
		want := string(sh.key)
		n := 0
		perturbFields(reflect.ValueOf(st), func(path string) {
			n++
			if !sh.shape(st) {
				t.Fatalf("%q: %s changed: not cacheable", src, path)
			}
			if ins, ok := st.(*sqlmini.Insert); ok && path == "the length of a [][]sqlmini.Expr" && literalRows(ins.Rows) {
				// VALUES rows of bare literals: the one field a shape
				// leaves out by design.
				if string(sh.key) != want {
					t.Errorf("%q: the row count of literal rows changes the shape key", src)
				}
				return
			}
			if string(sh.key) == want {
				t.Errorf("%q: changing %s leaves the shape key as it was", src, path)
			}
		})
		if n == 0 {
			t.Fatalf("%q: no field perturbed", src)
		}
	}
}

// perturbFields changes, one at a time, every scalar field and every
// slice length reachable from v, calls check, and restores it. A
// literal's value and the fields resolution fills in are skipped: the
// first is what a shape abstracts, the second is still zero in a parsed
// statement.
func perturbFields(v reflect.Value, check func(path string)) {
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer:
		if !v.IsNil() {
			perturbFields(v.Elem(), check)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			perturbFields(v.Index(i), check)
		}
		if v.Len() > 0 && v.CanSet() {
			old := v.Slice(0, v.Len())
			v.Set(v.Slice(0, v.Len()-1))
			check(fmt.Sprintf("the length of a %s", v.Type()))
			v.Set(old)
		}
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(sqlmini.Literal{}) {
			return
		}
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			switch name {
			case "RTable", "RSource", "RIndex", "Trans":
				continue
			}
			f := v.Field(i)
			path := v.Type().Name() + "." + name
			switch f.Kind() {
			case reflect.String:
				old := f.String()
				f.SetString(old + "z")
				check(path)
				f.SetString(old)
			case reflect.Int:
				old := f.Int()
				f.SetInt(old + 1)
				check(path)
				f.SetInt(old)
			case reflect.Bool:
				f.SetBool(!f.Bool())
				check(path)
				f.SetBool(!f.Bool())
			default:
				perturbFields(f, check)
			}
		}
	}
}

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
// 10 000 — nothing per scanned row.
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
		sts := make([]sqlmini.Statement, 0, 64)
		for k := 0; k < cap(sts); k++ {
			st, err := sqlmini.ParseStatement(srcs[k%2])
			if err != nil {
				t.Fatal(err)
			}
			sts = append(sts, st)
		}
		k := 0
		counts[i] = testing.AllocsPerRun(50, func() {
			res, err := uc.Exec(sts[k%len(sts)], db, mut)
			if err != nil || res.Affected != 0 {
				t.Fatalf("%+v, %v", res, err)
			}
			k++
		})
		if uc.Len() != 1 {
			t.Errorf("%d rows: %d shapes, want 1", n, uc.Len())
		}
	}
	if counts[0] != counts[1] || counts[0] != 0 {
		t.Errorf("a cached delete matching nothing allocates %.0f over 100 rows and %.0f over 10 000, want 0 and 0", counts[0], counts[1])
	}
}

// TestUserCacheBound: a cache that reaches maxShapes starts over, so it
// never holds more.
func TestUserCacheBound(t *testing.T) {
	sch := testSchema(t)
	db := seedDB(t, sch)
	uc := NewUserCache(sch)
	for i := 0; i < 2*maxShapes+3; i++ {
		// Each IN-list length is a shape of its own.
		src := "select a from t where a in (0" + strings.Repeat(", 0", i) + ")"
		st, err := sqlmini.ParseStatement(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := uc.Exec(st, db, nil); err != nil {
			t.Fatal(err)
		}
		if uc.Len() > maxShapes {
			t.Fatalf("after %d shapes the cache holds %d, bound %d", i+1, uc.Len(), maxShapes)
		}
	}
	if uc.Len() != 3 {
		t.Errorf("after %d shapes the cache holds %d, want 3", 2*maxShapes+3, uc.Len())
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
	run := func(db *storage.DB, st sqlmini.Statement, compiled *UserCache) string {
		var res sqlmini.StmtResult
		var err error
		if compiled != nil {
			res, err = compiled.Exec(st, db, sqlmini.DirectMutator(db))
		} else if err = sqlmini.ResolveStatement(st, &sqlmini.ResolveContext{Schema: sch}); err == nil {
			res, err = (&sqlmini.Evaluator{DB: db, Mut: sqlmini.DirectMutator(db)}).Exec(st)
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
		ist, err := sqlmini.ParseStatement(src)
		if err != nil {
			t.Fatal(err)
		}
		cst, _ := sqlmini.ParseStatement(src)
		want, got := run(idb, ist, nil), run(cdb, cst, uc)
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
		st, err := sqlmini.ParseStatement(src)
		if err != nil {
			t.Fatal(err)
		}
		return uc.Exec(st, db, mut)
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

// BenchmarkUserStatement prices one user statement, parsed afresh each
// time as a request's SQL is, three ways: "interpreted" resolves it and
// runs sqlmini.Evaluator (an Interpret engine's path, and every
// engine's before UserCache); "miss" runs it through a UserCache that
// does not hold its shape (shape walk, resolution, compilation, run);
// "hit" through one that does. Traffic that never repeats a shape pays
// "miss" on every statement. The update and the delete are point
// statements: their "hit" lines probe an equality index, so they stay
// flat from 10 rows to 10 000.
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
			for _, mode := range []string{"interpreted", "miss", "hit"} {
				b.Run(fmt.Sprintf("%s/rows=%d/%s", stmt.name, n, mode), func(b *testing.B) {
					uc := NewUserCache(sch)
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						st, err := sqlmini.ParseStatement(stmt.src)
						if err != nil {
							b.Fatal(err)
						}
						sp := db.Savepoint()
						switch mode {
						case "interpreted":
							if err = sqlmini.ResolveStatement(st, &sqlmini.ResolveContext{Schema: sch}); err == nil {
								_, err = (&sqlmini.Evaluator{DB: db, Mut: mut}).Exec(st)
							}
						case "miss":
							clear(uc.shapes)
							_, err = uc.Exec(st, db, mut)
						default:
							_, err = uc.Exec(st, db, mut)
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
