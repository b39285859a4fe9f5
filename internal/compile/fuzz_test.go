package compile

// FuzzCompileEval is the differential fuzzer for the compiled hot
// path: any input the parser, resolver, and typechecker all accept must
// evaluate identically — result, error message, and resulting database
// state — under the interpreter and the compiler, both as a rule's
// statement and, through a UserCache, as a request's SQL run three
// times with its literals perturbed. The corpus under
// testdata/fuzz/FuzzCompileEval seeds both bare expressions (adapted
// from sqlmini's FuzzEvalExpr corpus) and full statements, including
// transition-table references and point UPDATEs and DELETEs, which the
// compiled path answers from an equality index.

import (
	"fmt"
	"reflect"
	"testing"

	"activerules/internal/schema"
	"activerules/internal/sqlmini"
	"activerules/internal/storage"
)

func FuzzCompileEval(f *testing.F) {
	for _, seed := range []string{
		// Bare expressions (wrapped in a FROM-less select below).
		"1 + 2 * 3", "null and true", "not (1 = 2)", "1 / 0",
		"'a' < 'b'", "3 in (1, null, 3)", "-(-(-1))", "true or null",
		"1 is null", "2 % 0", "null < null",
		// Full statements over the fuzz schema (tables t and u).
		"select a, b from t where b > 5 order by a desc limit 2",
		"select distinct s from t where bl or b is null",
		"select s, count(*), sum(b) from t group by s having count(*) > 0 order by s",
		"select a from t where exists (select 1 from u where u.a = t.a)",
		"select (select v from u where u.a = t.a) from t order by a",
		"select * from t x, u y where x.a = y.a",
		"insert into u select a, b from t where b is not null",
		"update u set v = v + 1 where a in (select a from t where bl)",
		"delete from u where v / a > 10",
		"select a from inserted where b > (select min(v) from u)",
		"select n.b - o.b from new-updated n, old-updated o where n.a = o.a",
		"rollback",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		st, err := parseForFuzz(src)
		if err != nil {
			return
		}
		sch := testSchema(t)
		rc := &sqlmini.ResolveContext{Schema: sch, RuleTable: "t"}
		if err := sqlmini.ResolveStatement(st, rc); err != nil {
			return
		}
		if err := sqlmini.CheckStatement(st, sch); err != nil {
			return
		}

		// Interpreter run (the oracle) on its own database copy.
		idb := seedDB(t, sch)
		ev := &sqlmini.Evaluator{DB: idb, Trans: testTrans(), Mut: sqlmini.DirectMutator(idb)}
		ir, ierr := ev.Exec(st)

		// Compiled run; the AST must be re-parsed because resolution
		// annotates it in place and both runs must start equal.
		st2, err := parseForFuzz(src)
		if err != nil {
			t.Fatalf("re-parse of accepted input failed: %v", err)
		}
		if err := sqlmini.ResolveStatement(st2, rc); err != nil {
			t.Fatalf("re-resolve of accepted input failed: %v", err)
		}
		// Compiled run as Compile installs it: a statement the compiler
		// declined fails with the compiler's error, which the interpreter
		// never returns.
		c := &compiler{sch: sch}
		cdb := seedDB(t, sch)
		var cr sqlmini.StmtResult
		fn, cerr := c.compileStatement(st2)
		if cerr == nil {
			env := &Env{DB: cdb, Trans: testTrans(), Mut: sqlmini.DirectMutator(cdb)}
			env.begin(c.nSlots)
			cr, cerr = fn(env)
		}

		switch {
		case ierr != nil && cerr != nil:
			if ierr.Error() != cerr.Error() {
				t.Fatalf("%q: error mismatch\n interp:   %v\n compiled: %v", src, ierr, cerr)
			}
		case ierr != nil || cerr != nil:
			t.Fatalf("%q: error disagreement\n interp:   %v\n compiled: %v", src, ierr, cerr)
		default:
			if !reflect.DeepEqual(ir, cr) {
				t.Fatalf("%q: result mismatch\n interp:   %+v\n compiled: %+v", src, ir, cr)
			}
		}
		if idb.String() != cdb.String() {
			t.Fatalf("%q: database mismatch\n interp:\n%s compiled:\n%s", src, idb.String(), cdb.String())
		}

		userCacheRuns(t, src, sch)
	})
}

// userCacheRuns runs src as a request's SQL through one UserCache three
// times — as written (a miss), then twice with every literal perturbed
// within its kind (hits, when the first run's shape resolved) — each
// against the interpreter on the same statement and a fresh database:
// result, error message and resulting state must agree.
func userCacheRuns(t *testing.T, src string, sch *schema.Schema) {
	t.Helper()
	uc := NewUserCache(sch)
	for round := 0; round < 3; round++ {
		ist, err := parseForFuzz(src)
		if err != nil {
			t.Fatalf("re-parse of accepted input failed: %v", err)
		}
		cst, _ := parseForFuzz(src)
		perturbLiterals(ist, round)
		perturbLiterals(cst, round)

		idb := seedDB(t, sch)
		ir, ierr := sqlmini.StmtResult{}, sqlmini.ResolveStatement(ist, &sqlmini.ResolveContext{Schema: sch})
		if ierr == nil {
			ev := &sqlmini.Evaluator{DB: idb, Mut: sqlmini.DirectMutator(idb)}
			ir, ierr = ev.Exec(ist)
		}
		cdb := seedDB(t, sch)
		cr, cerr := uc.Exec(cst, cdb, sqlmini.DirectMutator(cdb))

		what := fmt.Sprintf("%q (user cache, round %d: %s)", src, round, ist)
		switch {
		case ierr != nil && cerr != nil:
			if ierr.Error() != cerr.Error() {
				t.Fatalf("%s: error mismatch\n interp:   %v\n compiled: %v", what, ierr, cerr)
			}
		case ierr != nil || cerr != nil:
			t.Fatalf("%s: error disagreement\n interp:   %v\n compiled: %v", what, ierr, cerr)
		default:
			if !reflect.DeepEqual(ir, cr) {
				t.Fatalf("%s: result mismatch\n interp:   %+v\n compiled: %+v", what, ir, cr)
			}
		}
		if idb.String() != cdb.String() {
			t.Fatalf("%s: database mismatch\n interp:\n%s compiled:\n%s", what, idb.String(), cdb.String())
		}
	}
}

// perturbLiterals changes every literal of st to another value of its
// kind, differently in each round (round 0 leaves them as written):
// negative, zero and past 2⁵³ for ints, strings with quotes, flipped
// bools. Nulls stay null.
func perturbLiterals(st sqlmini.Statement, round int) {
	if round == 0 {
		return
	}
	var sh shaper
	sh.shape(st)
	for i, l := range sh.lits {
		k := int64(i + round)
		switch v := &l.Val; v.Kind {
		case storage.KindInt:
			v.I = []int64{-v.I, 0, v.I + 1<<53 + 1, v.I - k}[k%4]
		case storage.KindFloat:
			v.F = []float64{-v.F, 0.5, v.F * 2, float64(k)}[k%4]
		case storage.KindString:
			v.S = []string{v.S + "'", "", "x", "it's"}[k%4]
		case storage.KindBool:
			v.B = !v.B
		}
	}
}

// parseForFuzz accepts either a full statement or a bare expression
// (wrapped into a FROM-less single-item select), mirroring the two seed
// populations of the corpus.
func parseForFuzz(src string) (sqlmini.Statement, error) {
	st, serr := sqlmini.ParseStatement(src)
	if serr == nil {
		return st, nil
	}
	e, eerr := sqlmini.ParseExpr(src)
	if eerr != nil {
		return nil, serr
	}
	return &sqlmini.Select{Items: []sqlmini.SelectItem{{Expr: e}}}, nil
}
