package engine

import (
	"context"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"activerules/internal/ruledef"
	"activerules/internal/rules"
	"activerules/internal/schema"
	"activerules/internal/storage"
)

func mkSet(t testing.TB, schemaSrc, rulesSrc string) (*rules.Set, *storage.DB) {
	t.Helper()
	sch := schema.MustParse(schemaSrc)
	defs, err := ruledef.Parse(rulesSrc)
	if err != nil {
		t.Fatal(err)
	}
	set, err := rules.NewSet(sch, defs)
	if err != nil {
		t.Fatal(err)
	}
	return set, storage.NewDB(sch)
}

// TestNewCompilesByDefault: the zero Options run the compiled program
// on the bank example. Only Options.Interpret selects the reference
// interpreter.
func TestNewCompilesByDefault(t *testing.T) {
	sch, err := os.ReadFile("../../testdata/bank/schema.sdl")
	if err != nil {
		t.Fatal(err)
	}
	rl, err := os.ReadFile("../../testdata/bank/rules.srl")
	if err != nil {
		t.Fatal(err)
	}
	set, db := mkSet(t, string(sch), string(rl))
	e := New(set, db, Options{})
	if !e.Compiled() {
		t.Fatal("engine.New with zero Options runs the interpreter")
	}
	e.Close()
	if New(set, db, Options{Interpret: true}).Compiled() {
		t.Error("Options.Interpret still compiles")
	}
}

func TestSimpleCascade(t *testing.T) {
	set, db := mkSet(t, `
table account (id int, owner string)
table audit (id int, owner string)
`, `
create rule r_audit on account
when inserted
then insert into audit select id, owner from inserted
`)
	e := New(set, db, Options{})
	if _, err := e.ExecUser("insert into account values (1, 'ann'), (2, 'bob')"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Assert()
	if err != nil {
		t.Fatal(err)
	}
	if res.Considered != 1 || res.Fired != 1 {
		t.Errorf("Considered=%d Fired=%d", res.Considered, res.Fired)
	}
	if db.Table("audit").Len() != 2 {
		t.Errorf("audit rows = %d, want 2", db.Table("audit").Len())
	}
}

func TestConditionFalseDoesNotFire(t *testing.T) {
	set, db := mkSet(t, "table t (v int)\ntable u (v int)", `
create rule r on t
when inserted
if exists (select 1 from inserted where v > 100)
then insert into u select v from inserted
`)
	e := New(set, db, Options{})
	if _, err := e.ExecUser("insert into t values (5)"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Assert()
	if err != nil {
		t.Fatal(err)
	}
	if res.Considered != 1 || res.Fired != 0 {
		t.Errorf("Considered=%d Fired=%d", res.Considered, res.Fired)
	}
	if db.Table("u").Len() != 0 {
		t.Error("action should not have run")
	}
}

func TestRuleSeesCompositeTransition(t *testing.T) {
	// The tuple is inserted then updated by the user; the rule must see a
	// single insertion of the UPDATED tuple (net-effect rule 3).
	set, db := mkSet(t, "table t (v int)\ntable u (v int)", `
create rule r on t
when inserted
then insert into u select v from inserted
`)
	e := New(set, db, Options{})
	if _, err := e.ExecUser("insert into t values (1); update t set v = 42"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Assert(); err != nil {
		t.Fatal(err)
	}
	var got int64
	db.Table("u").Scan(func(tu *storage.Tuple) bool { got = tu.Vals[0].I; return true })
	if got != 42 {
		t.Errorf("rule saw v=%d, want 42 (insert of updated tuple)", got)
	}
}

func TestUpdateRuleNotTriggeredByInsert(t *testing.T) {
	set, db := mkSet(t, "table t (v int)\ntable u (v int)", `
create rule r on t
when updated(v)
then insert into u values (1)
`)
	e := New(set, db, Options{})
	if _, err := e.ExecUser("insert into t values (1)"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Assert()
	if err != nil {
		t.Fatal(err)
	}
	if res.Considered != 0 {
		t.Errorf("update rule considered on insert: %d", res.Considered)
	}
}

func TestUntriggering(t *testing.T) {
	// Footnote 2 of the paper: r_keep is triggered by insertions, but
	// r_sweep (higher priority) deletes all inserted tuples first, so
	// r_keep becomes untriggered and never fires.
	set, db := mkSet(t, "table t (v int)\ntable log (v int)", `
create rule r_sweep on t
when inserted
then delete from t
precedes r_keep

create rule r_keep on t
when inserted
then insert into log select v from inserted
`)
	e := New(set, db, Options{})
	if _, err := e.ExecUser("insert into t values (7)"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Assert()
	if err != nil {
		t.Fatal(err)
	}
	if db.Table("log").Len() != 0 {
		t.Error("r_keep should have been untriggered")
	}
	// Only r_sweep was considered: after its delete, the composite
	// transition for r_keep is empty (insert+delete annihilate).
	if res.Considered != 1 {
		t.Errorf("Considered = %d, want 1", res.Considered)
	}
}

func TestSelfTriggeringHitsBudget(t *testing.T) {
	set, db := mkSet(t, "table t (v int)", `
create rule r on t
when inserted
then insert into t values (1)
`)
	e := New(set, db, Options{MaxSteps: 50})
	if _, err := e.ExecUser("insert into t values (0)"); err != nil {
		t.Fatal(err)
	}
	_, err := e.Assert()
	if !errors.Is(err, ErrMaxSteps) {
		t.Fatalf("err = %v, want ErrMaxSteps", err)
	}
}

func TestSelfDisablingRuleTerminates(t *testing.T) {
	// A rule triggered by its own operation kind but whose condition
	// eventually becomes false (the paper's monotonic special case).
	set, db := mkSet(t, "table t (v int)", `
create rule r on t
when updated(v)
if exists (select 1 from t where v < 3)
then update t set v = v + 1 where v < 3
`)
	db.MustInsert("t", storage.IntV(0))
	e := New(set, db, Options{})
	if _, err := e.ExecUser("update t set v = 1"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Assert()
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	db.Table("t").Scan(func(tu *storage.Tuple) bool { got = tu.Vals[0].I; return true })
	if got != 3 {
		t.Errorf("v = %d, want 3", got)
	}
	// v=1 -> 2 and 2 -> 3 fired; the final consideration found the
	// condition false.
	if res.Fired != 2 || res.Considered != 3 {
		t.Errorf("Fired = %d, Considered = %d; want 2, 3", res.Fired, res.Considered)
	}
}

func TestPriorityOrderRespected(t *testing.T) {
	// Both rules are triggered; r_first must be considered before
	// r_second, so r_second's condition sees r_first's output.
	set, db := mkSet(t, "table t (v int)\ntable log (step int)", `
create rule r_first on t
when inserted
then insert into log values (1)
precedes r_second

create rule r_second on t
when inserted
if exists (select 1 from log where step = 1)
then insert into log values (2)
`)
	e := New(set, db, Options{})
	if _, err := e.ExecUser("insert into t values (0)"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Assert()
	if err != nil {
		t.Fatal(err)
	}
	if res.Fired != 2 || db.Table("log").Len() != 2 {
		t.Errorf("Fired=%d log=%d; r_second should have seen r_first's insert",
			res.Fired, db.Table("log").Len())
	}
}

func TestRuleRollbackRestoresTransactionStart(t *testing.T) {
	set, db := mkSet(t, "table t (v int)", `
create rule r on t
when inserted
if exists (select 1 from inserted where v < 0)
then rollback
`)
	e := New(set, db, Options{})
	if _, err := e.ExecUser("insert into t values (1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Assert(); err != nil {
		t.Fatal(err)
	}
	e.Commit()
	before := e.DB().Clone()
	if _, err := e.ExecUser("insert into t values (-5)"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Assert()
	if err != nil {
		t.Fatal(err)
	}
	if !res.RolledBack {
		t.Fatal("expected rollback")
	}
	sameState(t, "after rule rollback", e.DB(), before)
	if len(res.Observables) != 1 || !res.Observables[0].Rollback {
		t.Errorf("observables = %v", res.Observables)
	}
}

func TestObservableSelectEvents(t *testing.T) {
	set, db := mkSet(t, "table t (v int)\ntable u (v int)", `
create rule r on t
when inserted
then select v from inserted; insert into u select v from inserted
`)
	e := New(set, db, Options{})
	if _, err := e.ExecUser("insert into t values (3)"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Assert()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Observables) != 1 {
		t.Fatalf("observables = %d", len(res.Observables))
	}
	ev := res.Observables[0]
	if ev.Rollback || len(ev.Rows) != 1 || ev.Rows[0][0].I != 3 {
		t.Errorf("event = %+v", ev)
	}
	if !strings.Contains(ev.String(), "(3)") {
		t.Errorf("event string = %q", ev.String())
	}
}

func TestAssertionPointBoundaries(t *testing.T) {
	// A rule considered in a previous assertion point must not see that
	// old transition again in the next one.
	set, db := mkSet(t, "table t (v int)\ntable u (v int)", `
create rule r on t
when inserted
then insert into u select v from inserted
`)
	e := New(set, db, Options{})
	if _, err := e.ExecUser("insert into t values (1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Assert(); err != nil {
		t.Fatal(err)
	}
	if db.Table("u").Len() != 1 {
		t.Fatal("first assert should copy one row")
	}
	// No new user operations: nothing is triggered at the next point.
	res, err := e.Assert()
	if err != nil {
		t.Fatal(err)
	}
	if res.Considered != 0 || db.Table("u").Len() != 1 {
		t.Errorf("second assert re-processed the old transition (considered=%d)", res.Considered)
	}
	// New operations create a fresh transition seen exactly once.
	if _, err := e.ExecUser("insert into t values (2)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Assert(); err != nil {
		t.Fatal(err)
	}
	if db.Table("u").Len() != 2 {
		t.Errorf("u rows = %d, want 2", db.Table("u").Len())
	}
}

func TestExecUserRejectsRollback(t *testing.T) {
	set, db := mkSet(t, "table t (v int)", `
create rule r on t
when inserted
then delete from t
`)
	e := New(set, db, Options{})
	if _, err := e.ExecUser("rollback"); err == nil {
		t.Error("user rollback should be rejected")
	}
}

func TestStrategiesDiverge(t *testing.T) {
	// A deliberately non-confluent set: two unordered rules race to set v
	// to different values; different strategies reach different states.
	schemaSrc := "table t (v int)\ntable trig (x int)"
	rulesSrc := `
create rule r_a on trig
when inserted
then update t set v = 1

create rule r_b on trig
when inserted
then update t set v = 2
`
	runWith := func(s Strategy) [32]byte {
		set, db := mkSet(t, schemaSrc, rulesSrc)
		db.MustInsert("t", storage.IntV(0))
		e := New(set, db, Options{Strategy: s})
		if _, err := e.ExecUser("insert into trig values (1)"); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Assert(); err != nil {
			t.Fatal(err)
		}
		return e.DB().Fingerprint()
	}
	if runWith(FirstByName{}) == runWith(LastByName{}) {
		t.Error("FirstByName and LastByName should reach different final states here")
	}
	// Seeded strategy is reproducible.
	if runWith(NewSeeded(7)) != runWith(NewSeeded(7)) {
		t.Error("same seed should reproduce the same run")
	}
}

func TestScriptedStrategy(t *testing.T) {
	s := &Scripted{Choices: []int{1, 99}}
	set, _ := mkSet(t, "table t (v int)", `
create rule a on t when inserted then delete from t
create rule b on t when inserted then delete from t
`)
	rs := set.Rules()
	if got := s.Pick(rs); got != rs[1] {
		t.Errorf("scripted pick 1 = %s", got.Name)
	}
	if got := s.Pick(rs); got != rs[0] {
		t.Errorf("out-of-range pick should clamp to 0, got %s", got.Name)
	}
	if got := s.Pick(rs); got.Name != "a" {
		t.Errorf("exhausted script should fall back to FirstByName, got %s", got.Name)
	}
}

func TestCloneIndependence(t *testing.T) {
	set, db := mkSet(t, "table t (v int)\ntable u (v int)", `
create rule r on t
when inserted
then insert into u select v from inserted
`)
	e := New(set, db, Options{})
	if _, err := e.ExecUser("insert into t values (1)"); err != nil {
		t.Fatal(err)
	}
	cl := e.Clone()
	if cl.StateFingerprint() != e.StateFingerprint() {
		t.Fatal("clone should share the state fingerprint")
	}
	if _, err := cl.Assert(); err != nil {
		t.Fatal(err)
	}
	if e.DB().Table("u").Len() != 0 {
		t.Error("asserting the clone mutated the original")
	}
	if cl.StateFingerprint() == e.StateFingerprint() {
		t.Error("fingerprints should diverge after the clone ran")
	}
}

func TestStateFingerprintCapturesPendingTransitions(t *testing.T) {
	// Same database contents but different pending transitions must be
	// different states (Section 4: a state is (D, TR)).
	set, db := mkSet(t, "table t (v int)\ntable u (v int)", `
create rule r on t
when inserted
then insert into u select v from inserted
`)
	e1 := New(set, db.Clone(), Options{})
	e2 := New(set, db.Clone(), Options{})
	// e1: inserted then deleted (no net transition, same contents).
	if _, err := e1.ExecUser("insert into t values (9); delete from t"); err != nil {
		t.Fatal(err)
	}
	// e2: untouched.
	if e1.DB().Fingerprint() != e2.DB().Fingerprint() {
		t.Fatal("database contents should match")
	}
	if e1.StateFingerprint() != e2.StateFingerprint() {
		t.Error("insert+delete has no net effect; states should match")
	}
	// e2 with a real pending insert differs.
	if _, err := e2.ExecUser("insert into t values (9)"); err != nil {
		t.Fatal(err)
	}
	if e1.StateFingerprint() == e2.StateFingerprint() {
		t.Error("pending transition must distinguish states")
	}
}

func TestFiredByRule(t *testing.T) {
	set, db := mkSet(t, "table t (v int)", `
create rule bump on t when updated(v) if exists (select 1 from t where v < 3) then update t set v = v + 1 where v < 3
`)
	db.MustInsert("t", storage.IntV(0))
	e := New(set, db, Options{})
	if _, err := e.ExecUser("update t set v = 1"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Assert()
	if err != nil {
		t.Fatal(err)
	}
	if res.FiredByRule["bump"] != 2 { // 1->2, 2->3
		t.Errorf("FiredByRule = %v", res.FiredByRule)
	}
	// No firings: map stays nil.
	res2, err := e.Assert()
	if err != nil {
		t.Fatal(err)
	}
	if res2.FiredByRule != nil {
		t.Errorf("empty run should have nil FiredByRule: %v", res2.FiredByRule)
	}
}

// TestFiredByRuleEveryReturn reads FiredByRule on each way AssertContext
// returns — quiescence, rollback, a runtime error, the step budget and
// cancellation — and on the call that resumes after the last three: each
// counts the firings of its own call, and none is nil unless nothing fired.
func TestFiredByRuleEveryReturn(t *testing.T) {
	set, db := mkSet(t, "table t (v int)\ntable u (v int)", `
create rule bump on t when updated(v) if exists (select 1 from t where v < 3) then update t set v = v + 1 where v < 3
create rule copy on t when inserted then insert into u values (1)
create rule stop on u when inserted if exists (select 1 from u where v = 9) then rollback
create rule fail on u when inserted if exists (select 1 from u where v = 7) then update u set v = v / 0
`)
	db.MustInsert("t", storage.IntV(0))
	var cancelAt string // the rule whose firing cancels the context, if any
	cancel := func() {}
	e := New(set, db, Options{Trace: func(ev TraceEvent) {
		if ev.Kind == "fire" && ev.Rule == cancelAt {
			cancel()
		}
	}})
	run := func(what, src string, budget int, want map[string]int, wantErr bool) {
		t.Helper()
		if src != "" {
			if _, err := e.ExecUser(src); err != nil {
				t.Fatal(err)
			}
		}
		ctx, c := context.WithCancel(context.Background())
		defer c()
		cancel = c
		e.opts.MaxSteps = budget
		res, err := e.AssertContext(ctx)
		if (err != nil) != wantErr {
			t.Fatalf("%s: err %v", what, err)
		}
		if !reflect.DeepEqual(res.FiredByRule, want) {
			t.Errorf("%s: FiredByRule = %#v, want %#v", what, res.FiredByRule, want)
		}
	}
	run("quiescence", "update t set v = 1; insert into t values (3)", 100, map[string]int{"bump": 2, "copy": 1}, false)
	run("nothing fired", "", 100, nil, false)
	if err := e.Commit(); err != nil {
		t.Fatal(err)
	}
	run("rollback", "insert into t values (3); insert into u values (9)", 100, map[string]int{"copy": 1, "stop": 1}, false)
	run("runtime error", "update t set v = 2; insert into t values (3); insert into u values (7)", 100, map[string]int{"bump": 1, "copy": 1}, true)
	if err := e.Rollback(); err != nil {
		t.Fatal(err)
	}
	run("step budget", "update t set v = 0; insert into t values (3)", 2, map[string]int{"bump": 2}, true)
	run("resumed after the budget", "", 100, map[string]int{"bump": 1, "copy": 1}, false)
	if err := e.Commit(); err != nil {
		t.Fatal(err)
	}
	cancelAt = "bump"
	run("cancelled", "update t set v = 1; insert into t values (3)", 100, map[string]int{"bump": 1}, true)
	cancelAt = ""
	run("resumed after cancellation", "", 100, map[string]int{"bump": 1, "copy": 1}, false)
}

func TestSetStrategyAndAccessors(t *testing.T) {
	set, db := mkSet(t, "table t (v int)\ntable a (v int)\ntable b (v int)", `
create rule ra on t when inserted then update a set v = 1
create rule rb on t when inserted then update a set v = 2
`)
	db.MustInsert("a", storage.IntV(0))
	e := New(set, db, Options{})
	if e.Set() != set {
		t.Error("Set accessor wrong")
	}
	if _, err := e.ExecUser("insert into t values (1)"); err != nil {
		t.Fatal(err)
	}
	e.SetStrategy(LastByName{})
	if _, err := e.Assert(); err != nil {
		t.Fatal(err)
	}
	// LastByName considers rb first, so ra's update lands last: v = 1.
	var v int64
	db.Table("a").Scan(func(tu *storage.Tuple) bool { v = tu.Vals[0].I; return true })
	if v != 1 {
		t.Errorf("v = %d; LastByName should run rb before ra", v)
	}
	// nil resets to the default without panicking.
	e.SetStrategy(nil)
	if _, err := e.Assert(); err != nil {
		t.Fatal(err)
	}
}

func TestTRStateFingerprint(t *testing.T) {
	set, db := mkSet(t, "table t (v int)\ntable u (v int)", `
create rule r on t when deleted then insert into u values (1)
`)
	id := db.MustInsert("t", storage.IntV(1))
	e1 := New(set, db.Clone(), Options{})
	e2 := New(set, db.Clone(), Options{})
	// e1 carries a pending UPDATE on t (not triggering r: r is
	// delete-triggered); e2 is clean. The fine fingerprint differs, the
	// paper's (D, TR) fingerprint does not... except the DB contents
	// differ after the update, so change it back for the TR comparison.
	if _, err := e1.ExecUser("update t set v = 2; update t set v = 1"); err != nil {
		t.Fatal(err)
	}
	// Identity composite: same DB, empty net — both fingerprints match.
	if e1.TRStateFingerprint() != e2.TRStateFingerprint() {
		t.Error("identity transition should not distinguish TR states")
	}
	// A genuinely triggering delete makes both differ.
	e3 := e2.Clone()
	if _, err := e3.ExecUser("delete from t"); err != nil {
		t.Fatal(err)
	}
	if e3.TRStateFingerprint() == e2.TRStateFingerprint() {
		t.Error("triggered rule must appear in the TR fingerprint")
	}
	_ = id
}

func TestRecordingMutatorErrors(t *testing.T) {
	set, db := mkSet(t, "table t (v int)", `
create rule r on t when inserted then update t set v = 1 where v = 99
`)
	e := New(set, db, Options{})
	// Engine-level exec of statements that fail mid-way: update of a
	// missing tuple is unreachable through SQL (scan-based), so exercise
	// the error paths through the mutator interface directly.
	m := recordingMutator{e}
	one := []storage.Value{storage.IntV(1)}
	if err := m.Delete("t", []storage.TupleID{999}); err == nil {
		t.Error("delete of missing tuple should fail")
	}
	if err := m.Update("t", []string{"v"}, []storage.TupleID{999}, one); err == nil {
		t.Error("update of missing tuple should fail")
	}
	if _, err := m.Insert("t", [][]storage.Value{{storage.StringV("bad")}}); err == nil {
		t.Error("type mismatch should fail")
	}
	// A table the schema lacks fails with storage's error, whatever the
	// statement.
	const noTable = `storage: no table "nosuch"`
	if _, err := m.Insert("nosuch", [][]storage.Value{one}); err == nil || err.Error() != noTable {
		t.Errorf("insert into a missing table: %v", err)
	}
	if err := m.Delete("nosuch", []storage.TupleID{1}); err == nil || err.Error() != noTable {
		t.Errorf("delete from a missing table: %v", err)
	}
	if err := m.Update("nosuch", []string{"v"}, []storage.TupleID{1}, one); err == nil || err.Error() != noTable {
		t.Errorf("update of a missing table: %v", err)
	}
}

func TestExecUserErrors(t *testing.T) {
	set, db := mkSet(t, "table t (v int)", `
create rule r on t when inserted then delete from t where v < 0
`)
	e := New(set, db, Options{})
	if _, err := e.ExecUser("not sql at all ()"); err == nil {
		t.Error("parse error should surface")
	}
	if _, err := e.ExecUser("insert into missing values (1)"); err == nil {
		t.Error("resolve error should surface")
	}
	if _, err := e.ExecUser("select 1 / 0 from t"); err == nil {
		// needs a row for the division to evaluate
		db.MustInsert("t", storage.IntV(1))
		if _, err := e.ExecUser("select 1 / 0 from t"); err == nil {
			t.Error("eval error should surface")
		}
	}
}

func TestRuleConditionErrorSurfaces(t *testing.T) {
	set, db := mkSet(t, "table t (v int)", `
create rule r on t when inserted if (select v from t) > 0 then delete from t where v < 0
`)
	e := New(set, db, Options{})
	// Two rows make the scalar subquery fail at condition time.
	if _, err := e.ExecUser("insert into t values (1), (2)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Assert(); err == nil {
		t.Error("condition evaluation error should abort Assert")
	}
}

func TestEligibleRules(t *testing.T) {
	set, db := mkSet(t, "table t (v int)\ntable u (v int)", `
create rule hi on t when inserted then insert into u values (1) precedes lo
create rule lo on t when inserted then insert into u values (2)
`)
	e := New(set, db, Options{})
	if _, err := e.ExecUser("insert into t values (1)"); err != nil {
		t.Fatal(err)
	}
	trig := e.TriggeredRules()
	if len(trig) != 2 {
		t.Fatalf("triggered = %d", len(trig))
	}
	elig := e.EligibleRules()
	if len(elig) != 1 || elig[0].Name != "hi" {
		t.Errorf("eligible = %v", rules.Names(elig))
	}
}

// TestExecUserShapeCache: a compiled engine compiles each user script
// once per token key. Texts that differ only in literal values hit it
// (a row count or a literal's kind is part of the key), a failing
// script leaves the database as it was and, once every statement of it
// compiled, the script cached, a script that does not resolve is not
// cached, and a fork starts a cache of its own.
func TestExecUserShapeCache(t *testing.T) {
	set, db := mkSet(t, "table t (id int, v int)", "create rule r on t when deleted then insert into t values (0, 0)")
	e := New(set, db, Options{})
	steps := []struct {
		sql     string
		fails   bool
		scripts int
	}{
		{"insert into t values (1, 10), (2, 20)", false, 1},
		{"insert into t values (3, 30)", false, 2}, // one row fewer: another key
		{"update t set v = v + 1 where id = 1", false, 3},
		{"UPDATE t SET v = v + 5 -- a comment\n WHERE id = 3", false, 3},
		{"update t set v = v + 5 where id = 'x'", true, 4}, // a string literal: another key
		{"update t set v = v / 0 where id = 2", true, 5},
		{"update t set v = v / 2 where id = 2", false, 5},
		{"update t set w = 1 where id = 1", true, 5}, // does not resolve
		{"update t set v = v + 7 where id = 2", false, 5},
		{"update t set v = 1 where id = 1; update t set v = v / 0 where id = 1", true, 6},
		{"update t set v = 2 where id = 1; update t set w = 0 where id = 1", true, 6}, // the second does not resolve
	}
	for _, s := range steps {
		before := e.DB().String()
		_, err := e.ExecUser(s.sql)
		if (err != nil) != s.fails {
			t.Fatalf("%q: err %v, want failure %v", s.sql, err, s.fails)
		}
		if s.fails && e.DB().String() != before {
			t.Errorf("%q failed and changed the database:\n%s", s.sql, e.DB().String())
		}
		if got := e.user.Len(); got != s.scripts {
			t.Errorf("after %q: %d scripts, want %d", s.sql, got, s.scripts)
		}
	}
	if got := e.DB().String(); !strings.Contains(got, "(1, 11)") || !strings.Contains(got, "(2, 17)") || !strings.Contains(got, "(3, 35)") {
		t.Errorf("final state:\n%s", got)
	}
	if fork := e.Clone(); fork.user != nil {
		t.Error("a fork shares its parent's user cache")
	}
	ie := New(set, storage.NewDB(set.Schema()), Options{Interpret: true})
	if _, err := ie.ExecUser("insert into t values (1, 1)"); err != nil || ie.user != nil {
		t.Errorf("interpreting engine: err %v, user cache %v", err, ie.user != nil)
	}
}
