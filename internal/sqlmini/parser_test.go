package sqlmini

import (
	"strings"
	"testing"
	"testing/quick"

	"activerules/internal/schema"
)

func testSchema() *schema.Schema {
	return schema.MustParse(`
table emp  (id int, name string, sal float, dept int)
table dept (id int, budget float)
table log  (id int, msg string)
`)
}

func ruleCtx() *ResolveContext {
	return &ResolveContext{Schema: testSchema(), RuleTable: "emp"}
}

func plainCtx() *ResolveContext {
	return &ResolveContext{Schema: testSchema()}
}

func mustStmt(t *testing.T, src string) Statement {
	t.Helper()
	st, err := ParseStatement(src)
	if err != nil {
		t.Fatalf("ParseStatement(%q): %v", src, err)
	}
	return st
}

func TestParseStatementRoundTrip(t *testing.T) {
	cases := []string{
		"select * from emp",
		"select id, name from emp where sal > 100",
		"select e.id from emp e, dept d where e.dept = d.id",
		"select count(*) from emp",
		"select sum(sal), avg(sal) from emp where dept = 1",
		"insert into log values (1, 'hi'), (2, 'there')",
		"insert into log (id, msg) values (1, 'x')",
		"insert into log select id, name from emp",
		"delete from emp",
		"delete from emp where sal < 0 and dept = 2",
		"update emp set sal = sal * 1.1 where dept = 3",
		"update emp set sal = 0, dept = 1",
		"rollback",
		"select id from emp where exists (select 1 from dept where dept.id = emp.dept)",
		"select id from emp where dept in (select id from dept where budget > 0)",
		"select id from emp where dept not in (1, 2, 3)",
		"select id from emp where name is not null",
		"select id from emp where sal is null",
		"select id from emp where not (sal > 5 or dept = 1)",
		"select id from emp where sal > (select max(sal) from emp) - 10",
		"select * from inserted",
		"select id from emp where id in (select id from new-updated)",
	}
	for _, src := range cases {
		st := mustStmt(t, src)
		printed := st.String()
		st2, err := ParseStatement(printed)
		if err != nil {
			t.Errorf("reparse of %q (printed %q) failed: %v", src, printed, err)
			continue
		}
		if st2.String() != printed {
			t.Errorf("print not stable for %q: %q vs %q", src, printed, st2.String())
		}
	}
}

func TestParseTransitionTableForms(t *testing.T) {
	for _, src := range []string{
		"select * from new-updated",
		"select * from new_updated",
		"select * from old-updated",
		"select * from old_updated",
	} {
		st := mustStmt(t, src).(*Select)
		name := st.From[0].Name
		if name != "new-updated" && name != "old-updated" {
			t.Errorf("%q: canonical name = %q", src, name)
		}
	}
	// Hyphenated column qualifiers.
	st := mustStmt(t, "select id from emp where sal > new-updated.sal").(*Select)
	bin := st.Where.(*Binary)
	cr := bin.R.(*ColRef)
	if cr.Qualifier != "new-updated" || cr.Column != "sal" {
		t.Errorf("hyphenated qualifier parse: %+v", cr)
	}
	// "new - updated" as arithmetic must still work when not followed by '.'.
	st2 := mustStmt(t, "select id from emp e where e.sal > sal - dept").(*Select)
	if st2.Where == nil {
		t.Error("arith parse failed")
	}
}

func TestParseStatements(t *testing.T) {
	sts, err := ParseStatements("delete from log; insert into log values (1,'a');; update emp set sal = 0")
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 3 {
		t.Fatalf("got %d statements, want 3", len(sts))
	}
	if _, ok := sts[0].(*Delete); !ok {
		t.Error("first should be delete")
	}
	if _, ok := sts[2].(*Update); !ok {
		t.Error("third should be update")
	}
	if _, err := ParseStatements("   ;;  "); err == nil {
		t.Error("empty statement list should fail")
	}
}

func TestParseExprForms(t *testing.T) {
	cases := []string{
		"1 + 2 * 3",
		"-x + 4 >= y % 2",
		"a and b or not c",
		"exists (select 1 from emp)",
		"not exists (select 1 from emp where sal > 10)",
		"x in (1, 2) and y not in (select id from dept)",
		"(1 + 2) * 3 = 9",
		"'it''s' <> name",
		"true and not false",
		"x is null or x is not null",
	}
	for _, src := range cases {
		e, err := ParseExpr(src)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", src, err)
			continue
		}
		if _, err := ParseExpr(e.String()); err != nil {
			t.Errorf("reparse of %q (printed %q): %v", src, e.String(), err)
		}
	}
}

func TestOperatorPrecedence(t *testing.T) {
	e, err := ParseExpr("1 + 2 * 3")
	if err != nil {
		t.Fatal(err)
	}
	b := e.(*Binary)
	if b.Op != OpAdd {
		t.Fatalf("top op should be +, got %v", b.Op)
	}
	if b.R.(*Binary).Op != OpMul {
		t.Error("* should bind tighter than +")
	}
	e2, _ := ParseExpr("a or b and c")
	if e2.(*Binary).Op != OpOr {
		t.Error("or should be loosest")
	}
	e3, _ := ParseExpr("not a and b") // (not a) and b
	if e3.(*Binary).Op != OpAnd {
		t.Error("not binds tighter than and")
	}
	e4, _ := ParseExpr("1 < 2 and 3 < 4")
	if e4.(*Binary).Op != OpAnd {
		t.Error("comparison binds tighter than and")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"selec * from t",
		"select from t",
		"select * from",
		"select * where",
		"insert into t",
		"insert into t values",
		"insert into t values (1",
		"insert t values (1)",
		"delete t",
		"delete from t where",
		"update t",
		"update t set",
		"update t set a",
		"update t set a = ",
		"select a from t where a >",
		"select a from t where a ! b",
		"select 'unterminated",
		"select 1e", // malformed exponent (1e5 is now a valid float)
		"select a..b",
		"select sum(*) from t",
		"select a not b",
		"select ???",
		"select (select a from t",
		"select *, id from emp", // * must be alone (parse-time)
		"select *, count(*) from emp",
	}
	for _, src := range bad {
		if _, err := ParseStatement(src); err == nil {
			t.Errorf("ParseStatement(%q) succeeded, want error", src)
		}
	}
	if _, err := ParseExpr("1 + 2 extra"); err == nil {
		t.Error("trailing tokens should fail in ParseExpr")
	}
	if _, err := ParseStatement("select 1; select 2"); err == nil {
		t.Error("two statements in ParseStatement should fail")
	}
}

func TestLexerComments(t *testing.T) {
	st := mustStmt(t, "select id -- trailing comment\nfrom emp -- another\n")
	if st.(*Select).From[0].Name != "emp" {
		t.Error("comment handling broke FROM")
	}
}

func TestResolveSelect(t *testing.T) {
	st := mustStmt(t, "select e.id, d.budget from emp e, dept d where e.dept = d.id")
	if err := ResolveStatement(st, plainCtx()); err != nil {
		t.Fatal(err)
	}
	sel := st.(*Select)
	c := sel.Items[0].Expr.(*ColRef)
	if c.RTable != "emp" || c.RSource != "e" || c.RIndex != 0 {
		t.Errorf("resolution of e.id = %+v", c)
	}
	// Unqualified resolution.
	st2 := mustStmt(t, "select name from emp where sal > 0")
	if err := ResolveStatement(st2, plainCtx()); err != nil {
		t.Fatal(err)
	}
	if got := st2.(*Select).Items[0].Expr.(*ColRef).RTable; got != "emp" {
		t.Errorf("unqualified name resolved to %q", got)
	}
}

func TestResolveTransitionTables(t *testing.T) {
	st := mustStmt(t, "select * from inserted")
	if err := ResolveStatement(st, ruleCtx()); err != nil {
		t.Fatal(err)
	}
	tr := st.(*Select).From[0]
	if tr.Trans != TransInserted || tr.RTable != "emp" {
		t.Errorf("transition resolution: %+v", tr)
	}
	// Outside a rule context, transition tables are illegal.
	st2 := mustStmt(t, "select * from inserted")
	if err := ResolveStatement(st2, plainCtx()); err == nil {
		t.Error("transition table outside rule should fail")
	}
	// Restricted to triggering operations.
	rc := &ResolveContext{Schema: testSchema(), RuleTable: "emp",
		AllowedTrans: map[TransKind]bool{TransInserted: true}}
	st3 := mustStmt(t, "select * from deleted")
	if err := ResolveStatement(st3, rc); err == nil {
		t.Error("deleted not allowed for insert-triggered rule")
	}
	st4 := mustStmt(t, "select * from inserted")
	if err := ResolveStatement(st4, rc); err != nil {
		t.Errorf("inserted should be allowed: %v", err)
	}
}

func TestTransitionTableMustBeInFrom(t *testing.T) {
	// Referencing a transition table that is not bound in any FROM clause
	// is an error with a dedicated message.
	e, err := ParseExpr("exists (select 1 from emp where emp.sal > inserted.sal)")
	if err != nil {
		t.Fatal(err)
	}
	if err := ResolveExpr(e, ruleCtx()); err == nil {
		t.Fatal("unbound transition qualifier should fail to resolve")
	}
	// Bound via FROM it resolves fine.
	e2, err := ParseExpr("exists (select 1 from emp, inserted where emp.sal > inserted.sal)")
	if err != nil {
		t.Fatal(err)
	}
	if err := ResolveExpr(e2, ruleCtx()); err != nil {
		t.Fatalf("bound transition reference: %v", err)
	}
}

func TestResolveErrors(t *testing.T) {
	cases := []struct {
		src string
		ctx *ResolveContext
	}{
		{"select * from nosuch", plainCtx()},
		{"select nocol from emp", plainCtx()},
		{"select id from emp, log", plainCtx()},                               // ambiguous id
		{"select e.id from emp e, dept e", plainCtx()},                        // duplicate alias
		{"select x.id from emp e", plainCtx()},                                // unknown alias
		{"select *", plainCtx()},                                              // * without FROM
		{"select id, count(*) from emp", plainCtx()},                          // mix plain and agg
		{"select id from emp where count(*) > 1", plainCtx()},                 // agg in where
		{"insert into nosuch values (1)", plainCtx()},                         // unknown table
		{"insert into log values (1)", plainCtx()},                            // arity
		{"insert into log (id, id) values (1, 2)", plainCtx()},                // dup col
		{"insert into log (id, nope) values (1, 2)", plainCtx()},              // bad col
		{"insert into log select id from emp", plainCtx()},                    // query arity
		{"insert into log select * from emp", plainCtx()},                     // star arity
		{"delete from inserted", ruleCtx()},                                   // delete trans
		{"update inserted set id = 1", ruleCtx()},                             // update trans
		{"update emp set nope = 1", plainCtx()},                               // bad col
		{"update emp set sal = 1, sal = 2", plainCtx()},                       // dup set
		{"delete from nosuch", plainCtx()},                                    // unknown table
		{"update nosuch set a = 1", plainCtx()},                               // unknown table
		{"select id from emp where dept in (select * from dept)", plainCtx()}, // star subquery value
	}
	for _, c := range cases {
		st, err := ParseStatement(c.src)
		if err != nil {
			t.Errorf("parse %q failed: %v", c.src, err)
			continue
		}
		if err := ResolveStatement(st, c.ctx); err == nil {
			t.Errorf("resolve %q succeeded, want error", c.src)
		}
	}
}

func TestAnalyzeReadsPerforms(t *testing.T) {
	sch := testSchema()
	type tc struct {
		src      string
		ctx      *ResolveContext
		reads    string
		performs string
	}
	cases := []tc{
		{"select * from emp", plainCtx(),
			"{emp.dept, emp.id, emp.name, emp.sal}", "{}"},
		{"delete from emp", plainCtx(), "{}", "{(D,emp)}"},
		{"delete from emp where sal < 0", plainCtx(), "{emp.sal}", "{(D,emp)}"},
		{"update emp set sal = 0", plainCtx(), "{}", "{(U,emp.sal)}"},
		{"update emp set sal = sal + 1 where dept = 2", plainCtx(),
			"{emp.dept, emp.sal}", "{(U,emp.sal)}"},
		{"insert into log values (1, 'x')", plainCtx(), "{}", "{(I,log)}"},
		{"insert into log select id, name from emp where sal > 0", plainCtx(),
			"{emp.id, emp.name, emp.sal}", "{(I,log)}"},
		// Transition-table reads are charged to the rule's table (paper §3).
		{"insert into log select id, name from inserted", ruleCtx(),
			"{emp.id, emp.name}", "{(I,log)}"},
		{"update emp set sal = 0 where id in (select id from new-updated)", ruleCtx(),
			"{emp.id}", "{(U,emp.sal)}"},
		{"rollback", plainCtx(), "{}", "{}"},
	}
	for _, c := range cases {
		st := mustStmt(t, c.src)
		if err := ResolveStatement(st, c.ctx); err != nil {
			t.Errorf("resolve %q: %v", c.src, err)
			continue
		}
		if got := StatementReads(st, sch).String(); got != c.reads {
			t.Errorf("Reads(%q) = %s, want %s", c.src, got, c.reads)
		}
		if got := StatementPerforms(st).String(); got != c.performs {
			t.Errorf("Performs(%q) = %s, want %s", c.src, got, c.performs)
		}
	}
}

func TestExprReads(t *testing.T) {
	e, err := ParseExpr("exists (select 1 from emp where emp.sal > (select avg(budget) from dept))")
	if err != nil {
		t.Fatal(err)
	}
	if err := ResolveExpr(e, plainCtx()); err != nil {
		t.Fatal(err)
	}
	got := ExprReads(e, testSchema()).String()
	if got != "{dept.budget, emp.sal}" {
		t.Errorf("ExprReads = %s", got)
	}
}

func TestIsObservable(t *testing.T) {
	if !IsObservable(mustStmt(t, "select * from emp")) {
		t.Error("select should be observable")
	}
	if !IsObservable(mustStmt(t, "rollback")) {
		t.Error("rollback should be observable")
	}
	if IsObservable(mustStmt(t, "delete from emp")) {
		t.Error("delete is not observable")
	}
}

// TestReferencedTransitionTables collects, through Inspect, the
// transition tables a resolved statement or condition references: every
// one is a FROM item of some select in the tree, at any depth and in any
// clause.
func TestReferencedTransitionTables(t *testing.T) {
	referenced := func(n Node) map[TransKind]bool {
		out := map[TransKind]bool{}
		Inspect(n, func(n Node) bool {
			if s, ok := n.(*Select); ok {
				for _, tr := range s.From {
					if tr.Trans != TransNone {
						out[tr.Trans] = true
					}
				}
			}
			return true
		})
		return out
	}
	st := mustStmt(t, "insert into log select i.id, i.name from inserted i, old-updated ou where i.sal > ou.sal")
	if err := ResolveStatement(st, ruleCtx()); err != nil {
		t.Fatal(err)
	}
	got := referenced(st)
	if !got[TransInserted] || !got[TransOldUpdated] || got[TransDeleted] {
		t.Errorf("referenced = %v", got)
	}
	e, _ := ParseExpr("exists (select 1 from deleted)")
	if err := ResolveExpr(e, ruleCtx()); err != nil {
		t.Fatal(err)
	}
	if !referenced(e)[TransDeleted] {
		t.Error("deleted reference not found in condition")
	}
	// The deleted walker stopped at a select's WHERE: it never saw a
	// subquery in GROUP BY's HAVING.
	st = mustStmt(t, "insert into log select dept, count(*) from emp group by dept having count(*) > (select count(*) from new-updated)")
	if err := ResolveStatement(st, ruleCtx()); err != nil {
		t.Fatal(err)
	}
	if got := referenced(st); !got[TransNewUpdated] || len(got) != 1 {
		t.Errorf("HAVING subquery: referenced = %v, want new-updated only", got)
	}
}

// Property: the printer and parser form a stable pair on generated
// comparison expressions.
func TestPrintParseStability(t *testing.T) {
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	f := func(a, b uint8, opIdx uint8, conj bool) bool {
		op := ops[int(opIdx)%len(ops)]
		src := "sal " + op + " " + itoa(int64(a))
		if conj {
			src += " and dept <> " + itoa(int64(b))
		}
		e, err := ParseExpr(src)
		if err != nil {
			return false
		}
		e2, err := ParseExpr(e.String())
		if err != nil {
			return false
		}
		return e.String() == e2.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func itoa(i int64) string {
	if i < 0 {
		return "-" + itoa(-i)
	}
	s := ""
	for {
		s = string(rune('0'+i%10)) + s
		i /= 10
		if i == 0 {
			return s
		}
	}
}

func TestStringEscaping(t *testing.T) {
	st := mustStmt(t, "insert into log values (1, 'o''neill')")
	printed := st.String()
	if !strings.Contains(printed, "'o''neill'") {
		t.Errorf("escaping lost in %q", printed)
	}
	st2 := mustStmt(t, printed)
	lit := st2.(*Insert).Rows[0][1].(*Literal)
	if lit.Val.S != "o'neill" {
		t.Errorf("unescaped value = %q", lit.Val.S)
	}
}

// TestLexerReuse: one Lexer lexing text after text parses every text
// as a fresh lexer would, and fails with the same messages. The
// texts move between long and short, upper and lower case, literals
// with doubled quotes, and errors from the lexer and from the parser.
func TestLexerReuse(t *testing.T) {
	texts := []string{
		"insert into log values (1, 'it''s'), (2, ''), (3, 'a''''b')",
		"SELECT Name FROM Emp WHERE Sal > 1.5e3 AND Dept IN (1, 2) -- c",
		"delete from log",
		"select 'unterminated",
		"update emp set sal = sal * 2, name = 'X' where id = 99999999999999999999",
		"select a ! b",
		"SELECT v FROM t ORDER BY v LIMIT 10",
		"UPDATE emp SET sal = 0; Delete From log Where msg = 'Q'",
	}
	render := func(sts []Statement, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		var sb strings.Builder
		for _, st := range sts {
			sb.WriteString(st.String() + ";")
		}
		return sb.String()
	}
	want := make([]string, len(texts))
	for i, src := range texts {
		var fresh Lexer
		if err := fresh.Lex(src); err != nil {
			want[i] = render(nil, err)
		} else {
			want[i] = render(fresh.Parse())
		}
	}
	var lx Lexer
	for round := 0; round < 2; round++ {
		for i, src := range texts {
			got := ""
			if err := lx.Lex(src); err != nil {
				got = render(nil, err)
			} else {
				got = render(lx.Parse())
			}
			if got != want[i] || render(ParseStatements(src)) != want[i] {
				t.Errorf("%q: a reused lexer gives %q, ParseStatements %q, a fresh lexer %q", src, got, render(ParseStatements(src)), want[i])
			}
		}
	}
}
