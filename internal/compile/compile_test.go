package compile

// White-box unit tests for the compiled hot path. The differential
// battery in internal/engine (compile_differential_test.go) is the
// system-level equivalence check; these tests pin the pieces in
// isolation: the discrimination network's bookkeeping, the statement
// compiler's value-level agreement with the interpreter, and that every
// unit of the shipped example rule sets compiles.

import (
	"fmt"
	"math/bits"
	"os"
	"reflect"
	"testing"

	"activerules/internal/ruledef"
	"activerules/internal/rules"
	"activerules/internal/schema"
	"activerules/internal/sqlmini"
	"activerules/internal/storage"
)

// testSchema builds the schema the statement-equivalence cases run
// against: one table exercising every column type, one companion table
// for joins and subqueries.
func testSchema(t testing.TB) *schema.Schema {
	t.Helper()
	sch, err := schema.Parse(`
table t (a int, b int, s string, f float, bl bool)
table u (a int, v int)
`)
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

// seedDB returns a freshly populated database; each mode of a
// differential case gets its own copy so mutations cannot leak.
func seedDB(t testing.TB, sch *schema.Schema) *storage.DB {
	t.Helper()
	db := storage.NewDB(sch)
	null := storage.Value{Kind: storage.KindNull}
	rows := [][]storage.Value{
		{storage.IntV(1), storage.IntV(10), storage.StringV("x"), storage.FloatV(1.5), storage.BoolV(true)},
		{storage.IntV(2), storage.IntV(20), storage.StringV("y"), storage.FloatV(2.5), storage.BoolV(false)},
		{storage.IntV(3), null, storage.StringV("x"), null, storage.BoolV(true)},
		{storage.IntV(4), storage.IntV(20), null, storage.FloatV(0), null},
	}
	for _, r := range rows {
		db.MustInsert("t", r...)
	}
	db.MustInsert("u", storage.IntV(1), storage.IntV(100))
	db.MustInsert("u", storage.IntV(2), storage.IntV(200))
	db.MustInsert("u", storage.IntV(3), storage.IntV(100))
	return db
}

// testTrans is the transition the rule-context cases see.
func testTrans() *sqlmini.TransitionData {
	return &sqlmini.TransitionData{
		Inserted: [][]storage.Value{
			{storage.IntV(9), storage.IntV(90), storage.StringV("n"), storage.FloatV(9.5), storage.BoolV(true)},
		},
		Deleted: [][]storage.Value{
			{storage.IntV(8), storage.IntV(80), storage.StringV("d"), storage.FloatV(8.5), storage.BoolV(false)},
		},
		OldUpdated: [][]storage.Value{
			{storage.IntV(7), storage.IntV(70), storage.StringV("o"), storage.FloatV(7.5), storage.BoolV(true)},
		},
		NewUpdated: [][]storage.Value{
			{storage.IntV(7), storage.IntV(71), storage.StringV("o"), storage.FloatV(7.6), storage.BoolV(true)},
		},
	}
}

// runBoth executes src through the interpreter and the compiler against
// independent copies of the seeded database and reports both outcomes.
func runBoth(t *testing.T, src string, inRule bool) (ir, cr sqlmini.StmtResult, ierr, cerr error, idb, cdb *storage.DB) {
	t.Helper()
	sch := testSchema(t)
	rc := &sqlmini.ResolveContext{Schema: sch}
	if inRule {
		rc.RuleTable = "t"
	}

	parse := func() sqlmini.Statement {
		st, err := sqlmini.ParseStatement(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if err := sqlmini.ResolveStatement(st, rc); err != nil {
			t.Fatalf("resolve %q: %v", src, err)
		}
		if err := sqlmini.CheckStatement(st, sch); err != nil {
			t.Fatalf("check %q: %v", src, err)
		}
		return st
	}

	idb = seedDB(t, sch)
	ev := &sqlmini.Evaluator{DB: idb, Trans: testTrans(), Mut: sqlmini.DirectMutator(idb)}
	ir, ierr = ev.Exec(parse())

	cdb = seedDB(t, sch)
	c := &compiler{sch: sch}
	fn, err := c.compileStatement(parse())
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	env := &Env{DB: cdb, Trans: testTrans(), Mut: sqlmini.DirectMutator(cdb)}
	env.begin(c.nSlots)
	cr, cerr = fn(env)
	return
}

// assertAgree requires the two modes to agree on result, error, and
// final database state.
func assertAgree(t *testing.T, src string, ir, cr sqlmini.StmtResult, ierr, cerr error, idb, cdb *storage.DB) {
	t.Helper()
	switch {
	case ierr != nil && cerr != nil:
		if ierr.Error() != cerr.Error() {
			t.Errorf("%q: error mismatch\n interp:   %v\n compiled: %v", src, ierr, cerr)
		}
	case ierr != nil || cerr != nil:
		t.Errorf("%q: error disagreement\n interp:   %v\n compiled: %v", src, ierr, cerr)
	default:
		if !reflect.DeepEqual(ir, cr) {
			t.Errorf("%q: result mismatch\n interp:   %+v\n compiled: %+v", src, ir, cr)
		}
	}
	if idb.String() != cdb.String() {
		t.Errorf("%q: final database mismatch\n interp:\n%s compiled:\n%s", src, idb.String(), cdb.String())
	}
}

func TestStatementEquivalence(t *testing.T) {
	cases := []string{
		// Plain selects: projection, WHERE, ORDER BY, LIMIT, DISTINCT.
		"select a, b from t",
		"select a from t where b = 20",
		"select a, b from t order by b desc, a",
		"select a from t order by a desc limit 2",
		"select distinct s from t",
		"select distinct b from t order by b",
		"select 1 + 2, 'k'", // no FROM
		// Star expansion, multi-table FROM, aliases.
		"select * from t where a = 1",
		"select t.a, u.v from t, u where t.a = u.a order by t.a",
		"select * from t x, u y where x.a = y.a and y.v = 100 order by x.a",
		// Subqueries: EXISTS, IN, scalar, correlation.
		"select a from t where exists (select 1 from u where u.a = t.a and u.v > 150)",
		"select a from t where a in (select a from u where v = 100) order by a",
		"select a from t where b in (10, 20) order by a",
		"select a from t where b not in (10, 30) order by a",
		"select a, (select v from u where u.a = t.a) from t order by a",
		"select (select v from u where v > 50 and a < 3) from t where a = 1", // scalar: 2 rows -> error
		"select (select v from u where v > 999) from t where a = 1",          // scalar: 0 rows -> null
		// Aggregates and grouping.
		"select count(*) from t",
		"select count(b), sum(b), min(b), max(b) from t",
		"select avg(b) from t",
		"select avg(f) from t",
		"select s, count(*) from t group by s order by s",
		"select s, sum(b) from t group by s having count(*) > 1 order by s",
		"select b, count(*) from t group by b order by b",
		"select min(s), max(s) from t",
		"select sum(b) from t where a > 99", // empty input
		"select count(*) from t where bl",
		// Arithmetic, three-valued logic, errors.
		"select a + b, a - b, a * 2 from t where a = 1",
		"select b / a from t order by a",
		"select a / 0 from t where a = 1",
		"select a % 3 from t order by a",
		"select f / 2.0 from t where a = 2",
		"select a from t where b + 1 > 10 order by a",
		"select a from t where not (bl)",
		"select a from t where bl and b > 5 order by a",
		"select a from t where bl or b > 15 order by a",
		"select a from t where b is null",
		"select a from t where s is not null order by a",
		"select a from t where s = 'x' order by a",
		"select -a, -f from t where a = 1",
		// ORDER BY across an incomparable pair errors.
		"select a from t order by s", // null s vs strings: nulls sort, fine
		"select s from t order by s desc",
		// Mutations.
		"insert into u values (9, 900)",
		"insert into u (a) values (5)",
		"insert into u select a, b from t where b is not null",
		"delete from u where v = 100",
		"delete from u where a in (select a from t where bl)",
		"update u set v = v + 1 where a > 1",
		"update u set v = (select b from t where t.a = u.a) where a < 3",
		"update t set b = 0, s = 'z' where a = 4",
		"rollback",
	}
	for _, src := range cases {
		src := src
		t.Run(src, func(t *testing.T) {
			ir, cr, ierr, cerr, idb, cdb := runBoth(t, src, false)
			assertAgree(t, src, ir, cr, ierr, cerr, idb, cdb)
		})
	}
}

func TestStatementEquivalenceTransitionTables(t *testing.T) {
	cases := []string{
		"select a, b from inserted",
		"select a from deleted",
		"select n.b - o.b from new-updated n, old-updated o where n.a = o.a",
		"select a from t where exists (select 1 from inserted where inserted.b > t.b)",
		"insert into u select a, b from inserted",
		"delete from u where a in (select a from deleted)",
		"update u set v = 0 where a in (select a from new-updated)",
		"select count(*) from inserted",
	}
	for _, src := range cases {
		src := src
		t.Run(src, func(t *testing.T) {
			ir, cr, ierr, cerr, idb, cdb := runBoth(t, src, true)
			assertAgree(t, src, ir, cr, ierr, cerr, idb, cdb)
		})
	}
}

// TestShortCircuitLegality pins the static-totality rule: AND/OR may
// skip their right operand only when it provably cannot error. The
// interpreter always evaluates both operands, so any case where the
// compiled path skipped an erroring operand would diverge here.
func TestShortCircuitLegality(t *testing.T) {
	cases := []string{
		// Right side errors (division by zero): the interpreter errors
		// even though the left side already decides the truth value, so
		// the compiled path must not short-circuit.
		"select a from t where a = 99 and b / 0 > 1",
		"select a from t where a = 1 or b / 0 > 1",
		// Right side is total: short-circuiting is legal and must agree.
		"select a from t where a = 99 and b > 5",
		"select a from t where a = 1 or b > 5 order by a",
		// Null operands drive the Kleene cases.
		"select a from t where b is null and bl",
		"select a from t where bl or b is null order by a",
	}
	for _, src := range cases {
		src := src
		t.Run(src, func(t *testing.T) {
			ir, cr, ierr, cerr, idb, cdb := runBoth(t, src, false)
			assertAgree(t, src, ir, cr, ierr, cerr, idb, cdb)
		})
	}
}

// loadExample compiles one shipped example rule set.
func loadExample(t *testing.T, dir string) *rules.Set {
	t.Helper()
	schemaSrc, err := os.ReadFile("../../testdata/" + dir + "/schema.sdl")
	if err != nil {
		t.Fatal(err)
	}
	rulesSrc, err := os.ReadFile("../../testdata/" + dir + "/rules.srl")
	if err != nil {
		t.Fatal(err)
	}
	sch, err := schema.Parse(string(schemaSrc))
	if err != nil {
		t.Fatal(err)
	}
	defs, err := ruledef.Parse(string(rulesSrc))
	if err != nil {
		t.Fatal(err)
	}
	set, err := rules.NewSet(sch, defs)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// declined lists the units (conditions and action statements) of set
// that the compiler declines, one line each with the compiler's error.
func declined(set *rules.Set) []string {
	var out []string
	for _, r := range set.Rules() {
		c := &compiler{sch: set.Schema()}
		if r.Condition != nil {
			if _, err := c.compileExpr(r.Condition); err != nil {
				out = append(out, fmt.Sprintf("%s condition: %v", r.Name, err))
			}
		}
		for j, st := range r.Action {
			if _, err := c.compileStatement(st); err != nil {
				out = append(out, fmt.Sprintf("%s statement %d: %v", r.Name, j, err))
			}
		}
	}
	return out
}

// TestExamplesCompileWithoutFallback: the compiler accepts every
// condition and statement of every shipped example rule set, so the
// benchmark numbers measure the compiled path and no unit fails with
// the compiler's error.
func TestExamplesCompileWithoutFallback(t *testing.T) {
	for _, dir := range []string{"bank", "powernet", "lintdemo"} {
		t.Run(dir, func(t *testing.T) {
			for _, d := range declined(loadExample(t, dir)) {
				t.Errorf("%s: compiler declined %s", dir, d)
			}
		})
	}
}

// TestDeclinedUnitFails: a unit the compiler declines fails with the
// compiler's error when considered instead of running some other way.
// Resolution leaves no such unit, so the test makes two by hand: a
// condition naming a FROM item that is not in scope, and a select list
// mixing an aggregate with a plain column that lost its GROUP BY.
func TestDeclinedUnitFails(t *testing.T) {
	sch := testSchema(t)
	set, err := rules.NewSet(sch, []rules.Definition{{
		Name:      "r0",
		Table:     "t",
		Triggers:  []rules.TriggerSpec{{Kind: schema.OpInsert}},
		Condition: "1 = 1",
		Action:    []string{"select a, count(*) from t group by a"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	r := set.Rules()[0]
	r.Condition = &sqlmini.ColRef{Column: "a", RTable: "t", RSource: "gone"}
	r.Action[0].(*sqlmini.Select).GroupBy = nil
	if got := len(declined(set)); got != 2 {
		t.Fatalf("compiler declines %d units, want 2", got)
	}

	p := Compile(set)
	db := seedDB(t, sch)
	ok, err := p.EvalCondition(0, &Env{DB: db, Trans: testTrans()})
	if want := `compile: unsupported unbound column source "gone"`; ok || err == nil || err.Error() != want {
		t.Errorf("declined condition: got (%v, %v), want (false, %s)", ok, err, want)
	}
	res, err := p.ExecStatement(0, 0, &Env{DB: db, Trans: testTrans(), Mut: sqlmini.DirectMutator(db)})
	if want := "compile: unsupported mixed aggregate select list"; err == nil || err.Error() != want {
		t.Errorf("declined statement: got (%+v, %v), want error %s", res, err, want)
	}
}

// TestProgramMemoized: For returns the same Program for the same set.
func TestProgramMemoized(t *testing.T) {
	set := loadExample(t, "bank")
	if For(set) != For(set) {
		t.Error("For(set) not memoized")
	}
}

func TestMatcherWatchKeys(t *testing.T) {
	set := loadExample(t, "bank")
	m := NewMatcher(set)
	c := m.NewCandidates()

	// r_audit (inserted on account), r_hold (updated on account),
	// r_purge (deleted on account) — rule order is definition order.
	c.Note("account", storage.ChangeInsert)
	if !c.Has(0) || c.Has(1) || c.Has(2) {
		t.Errorf("insert on account: got bits %v %v %v, want only rule 0", c.Has(0), c.Has(1), c.Has(2))
	}
	c.Note("ACCOUNT", storage.ChangeUpdate) // names are canonical: Note folds no case
	if c.Has(1) {
		t.Error("update on ACCOUNT, not a canonical name, marked r_hold")
	}
	c.Note("account", storage.ChangeUpdate)
	if !c.Has(1) {
		t.Error("update on account did not mark r_hold")
	}
	c.Note("account", storage.ChangeDelete)
	if !c.Has(2) {
		t.Error("delete on account did not mark r_purge")
	}
	c.Note("holds", storage.ChangeInsert) // nobody watches holds
	if got := members(c); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("Words order = %v, want [0 1 2]", got)
	}

	c.Clear(1)
	if c.Has(1) {
		t.Error("Clear(1) left the bit set")
	}
	cl := c.Clone()
	c.Reset()
	if c.Has(0) || !cl.Has(0) {
		t.Error("Reset leaked into the clone (or failed)")
	}
}

// members lists c's rules in the order a scan of its Words visits them.
func members(c *Candidates) []int {
	var out []int
	for w, word := range c.Words() {
		for ; word != 0; word &= word - 1 {
			out = append(out, w<<6|bits.TrailingZeros64(word))
		}
	}
	return out
}

// TestCandidatesWideSet crosses the 64-bit word boundary.
func TestCandidatesWideSet(t *testing.T) {
	sch, err := schema.Parse("table a (v int)\ntable b (v int)")
	if err != nil {
		t.Fatal(err)
	}
	var defs []rules.Definition
	for i := 0; i < 130; i++ {
		tbl := "a"
		if i%2 == 1 {
			tbl = "b"
		}
		defs = append(defs, rules.Definition{
			Name:     fmt.Sprintf("r%03d", i),
			Table:    tbl,
			Triggers: []rules.TriggerSpec{{Kind: schema.OpInsert}},
			Action:   []string{"select v from " + tbl},
		})
	}
	set, err := rules.NewSet(sch, defs)
	if err != nil {
		t.Fatal(err)
	}
	c := NewMatcher(set).NewCandidates()
	c.Note("a", storage.ChangeInsert)
	got := members(c)
	if len(got) != 65 {
		t.Fatalf("%d candidates, want 65 (every even rule of 130)", len(got))
	}
	for k, i := range got {
		if i != 2*k {
			t.Fatalf("candidate %d = rule %d, want %d (ascending evens)", k, i, 2*k)
		}
	}
}

// TestStaleAtAndRebuild drives a database's history and checks that lazy
// clearing (StaleAt) and the from-scratch Rebuild agree on the fixpoint.
func TestStaleAtAndRebuild(t *testing.T) {
	set := loadExample(t, "bank")
	m := NewMatcher(set)
	c := m.NewCandidates()
	sch := set.Schema()
	db := storage.NewDB(sch)
	db.Savepoint() // the transaction whose history the matcher reads
	account := db.Table("account")
	tables := []*storage.Table{account, account, account}

	// An insert into account at position 0.
	db.MustInsert("account", storage.IntV(1), storage.StringV("ann"), storage.IntV(5))
	c.Note("account", storage.ChangeInsert)

	marks := []int{0, 0, 0}
	if c.StaleAt(0, account, 0) {
		t.Error("r_audit stale at mark 0 despite a live insert")
	}
	if !c.StaleAt(0, account, db.HistoryLen()) {
		t.Error("r_audit not stale past the end of the history")
	}
	// r_hold watches updates only; the insert must leave it stale.
	if !c.StaleAt(1, account, 0) {
		t.Error("r_hold (update-only) not stale after an insert")
	}

	// Rebuild must equal the tight fixpoint: only rule 0 at marks 0.
	r := m.NewCandidates()
	r.Rebuild(tables, marks)
	for i := 0; i < 3; i++ {
		want := i == 0
		if r.Has(i) != want {
			t.Errorf("Rebuild bit %d = %v, want %v", i, r.Has(i), want)
		}
	}
	// And the incremental set is a superset of the rebuilt one.
	for _, i := range members(r) {
		if !c.Has(i) {
			t.Errorf("incremental set missing rebuilt candidate %d", i)
		}
	}
}

// TestConditionEquivalence compares Program.EvalCondition against the
// interpreter's EvalPredicate on rule conditions over a live transition.
func TestConditionEquivalence(t *testing.T) {
	sch := testSchema(t)
	conds := []string{
		"exists (select 1 from inserted where b > 50)",
		"exists (select 1 from t where b is null)",
		"(select count(*) from inserted) > 0",
		"(select max(b) from t) >= 20",
		"not exists (select 1 from deleted where a = 99)",
		"1 = 1 and exists (select 1 from new-updated)",
	}
	db := seedDB(t, sch)
	td := testTrans()
	for _, cond := range conds {
		cond := cond
		t.Run(cond, func(t *testing.T) {
			defs := []rules.Definition{{
				Name:      "r0",
				Table:     "t",
				Triggers:  []rules.TriggerSpec{{Kind: schema.OpInsert}, {Kind: schema.OpDelete}, {Kind: schema.OpUpdate}},
				Condition: cond,
				Action:    []string{"select a from t"},
			}}
			set, err := rules.NewSet(sch, defs)
			if err != nil {
				t.Fatal(err)
			}
			if d := declined(set); len(d) != 0 {
				t.Fatalf("condition %q: compiler declined %v", cond, d)
			}
			p := Compile(set)
			got, gerr := p.EvalCondition(0, &Env{DB: db, Trans: td})
			ev := &sqlmini.Evaluator{DB: db, Trans: td}
			want, werr := ev.EvalPredicate(set.Rules()[0].Condition)
			if (gerr == nil) != (werr == nil) || got != want {
				t.Errorf("condition %q: compiled (%v, %v) vs interpreted (%v, %v)", cond, got, gerr, want, werr)
			}
		})
	}
}
