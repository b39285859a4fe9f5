package compile

// FuzzCompileEval is the differential fuzzer for the compiled hot
// path: any input the parser, resolver, and typechecker all accept must
// evaluate identically — result, error message, and resulting database
// state — under the interpreter and the compiler. The corpus under
// testdata/fuzz/FuzzCompileEval seeds both bare expressions (adapted
// from sqlmini's FuzzEvalExpr corpus) and full statements, including
// transition-table references.

import (
	"reflect"
	"testing"

	"activerules/internal/sqlmini"
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
		c := &compiler{sch: sch}
		fn, err := c.compileStatement(st2)
		if err != nil {
			// Unsupported unit: Program falls back to the interpreter
			// wholesale, so there is nothing to diverge. (The shipped
			// examples pin zero fallbacks separately.)
			return
		}
		cdb := seedDB(t, sch)
		env := &Env{DB: cdb, Trans: testTrans(), Mut: sqlmini.DirectMutator(cdb)}
		env.begin(c.nSlots)
		cr, cerr := fn(env)

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
	})
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
