package compile

// FuzzCompileEval is the differential fuzzer for the compiled hot
// path: any input the parser, resolver, and typechecker all accept must
// evaluate identically — result, error message, and resulting database
// state — under the interpreter and the compiler, both as a rule's
// statement and, through a UserCache, as a request's text and two more
// texts of its token key (FuzzUserTextKey's check). The corpus under
// testdata/fuzz/FuzzCompileEval seeds both bare expressions (adapted
// from sqlmini's FuzzEvalExpr corpus) and full statements, including
// transition-table references and point UPDATEs and DELETEs, which the
// compiled path answers from an equality index.

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
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

		if _, err := sqlmini.ParseStatement(src); err != nil {
			src = "select " + src // the bare expression parseForFuzz wrapped
		}
		userTextRuns(t, src, sch)
	})
}

// FuzzUserTextKey is the text key's oracle. For any text, and for
// texts made to share its token key with other literal values
// (sameKeyTexts), a UserCache that holds the key must run the text as
// a fresh cache does by parsing and compiling it, and both as the
// interpreter does: results, error messages and resulting state alike.
// When the cache filled the key, the reference tree key (shaper) must
// agree: every text of the key parses to the same reference key, keeps
// the same null, true and false literals, and has exactly the lexer's
// literals as the literals the tree lifts. The corpus under
// testdata/fuzz/FuzzUserTextKey seeds it; FuzzCompileEval runs every
// statement it accepts through the same check.
func FuzzUserTextKey(f *testing.F) {
	for _, seed := range keyTexts {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		userTextRuns(t, src, testSchema(t))
	})
}

// userTextRuns is FuzzUserTextKey's check of one text.
func userTextRuns(t *testing.T, src string, sch *schema.Schema) {
	t.Helper()
	var lx sqlmini.Lexer
	if lx.Lex(src) != nil {
		return
	}
	key, keyed := lx.Key()
	key, vals := bytes.Clone(key), slices.Clone(lx.Params())
	refKey, lifted, kept, perr := referenceShape(src)
	texts := []string{src}
	if keyed {
		texts = append(texts, sameKeyTexts(key, vals)...)
	}
	uc := NewUserCache(sch)
	for round, text := range texts {
		want := interpretText(t, text, sch)
		fresh := cacheText(t, NewUserCache(sch), text, sch)
		got := cacheText(t, uc, text, sch)
		what := fmt.Sprintf("%q (round %d: %q)", src, round, text)
		if !reflect.DeepEqual(fresh, want) {
			t.Fatalf("%s: parsed and compiled\n %+v\nthe interpreter\n %+v", what, fresh, want)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: through the cache\n %+v\nthe interpreter\n %+v", what, got, want)
		}
		if uc.Len() == 0 {
			continue
		}
		// The cache filled src's key: the reference must agree that
		// every text of it lifts the lexer's literals.
		if round == 0 && (perr != nil || !slices.Equal(lifted, vals)) {
			t.Fatalf("%s: cached, but the tree lifts %v where the lexer lifts %v (%v)", what, lifted, vals, perr)
		}
		var tlx sqlmini.Lexer
		if err := tlx.Lex(text); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		tkey, _ := tlx.Key()
		rk, tl, tk, err := referenceShape(text)
		switch {
		case !bytes.Equal(tkey, key):
			t.Fatalf("%s: another token key", what)
		case err != nil:
			t.Fatalf("%s: shares a cached key but does not parse: %v", what, err)
		case !bytes.Equal(rk, refKey):
			t.Fatalf("%s: shares a token key but not the reference key", what)
		case !slices.Equal(tl, tlx.Params()):
			t.Fatalf("%s: the tree lifts %v where the lexer lifts %v", what, tl, tlx.Params())
		case !slices.Equal(tk, kept):
			t.Fatalf("%s: keeps %v where src keeps %v", what, tk, kept)
		}
	}
}

// outcome is what running a text leaves: its results or its error, and
// the database.
type outcome struct {
	res []sqlmini.StmtResult
	err string
	db  string
}

func outcomeOf(res []sqlmini.StmtResult, err error, db *storage.DB) outcome {
	if err != nil {
		return outcome{err: err.Error(), db: db.String()}
	}
	return outcome{res: res, db: db.String()}
}

// interpretText runs a text's statements through the interpreter,
// stopping at the first error, on a fresh database.
func interpretText(t *testing.T, text string, sch *schema.Schema) outcome {
	db := seedDB(t, sch)
	sts, err := sqlmini.ParseStatements(text)
	var out []sqlmini.StmtResult
	for _, st := range sts {
		if _, ok := st.(*sqlmini.Rollback); ok {
			err = ErrUserRollback
			break
		}
		if err = sqlmini.ResolveStatement(st, &sqlmini.ResolveContext{Schema: sch}); err != nil {
			break
		}
		var res sqlmini.StmtResult
		if res, err = (&sqlmini.Evaluator{DB: db, Mut: sqlmini.DirectMutator(db)}).Exec(st); err != nil {
			break
		}
		out = append(out, res)
	}
	return outcomeOf(out, err, db)
}

// cacheText runs a text through uc on a fresh database.
func cacheText(t *testing.T, uc *UserCache, text string, sch *schema.Schema) outcome {
	db := seedDB(t, sch)
	res, err := uc.Exec(text, db, sqlmini.DirectMutator(db))
	return outcomeOf(res, err, db)
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
