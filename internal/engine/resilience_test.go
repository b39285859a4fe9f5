package engine

// Tests for the engine's failure story: action atomicity under injected
// faults, the post-error resume contract, panic containment,
// cancellation, and runtime livelock witnesses.

import (
	"context"
	"errors"
	"testing"

	"activerules/internal/faultinject"
)

// engineState captures everything the atomicity contract promises to
// restore: the execution-graph state (db + per-rule pending transitions)
// and the raw log position.
func engineState(e *Engine) (string, [32]byte, int) {
	return e.StateFingerprint(), e.db.Fingerprint(), e.db.HistoryLen()
}

func TestActionFailureAtomicPerStatementKind(t *testing.T) {
	const schemaSrc = "table t (v int)\ntable u (v int)"
	cases := []struct {
		name   string
		rules  string
		seed   string // committed before the transition; its mutations count
		failAt int    // 1-based mutation call that fails
	}{
		{
			name: "insert",
			rules: `create rule r on t when inserted
then insert into u select v from inserted`,
			failAt: 2, // call 1: user insert into t
		},
		{
			name: "update",
			rules: `create rule r on t when inserted
then update u set v = v + 1`,
			seed:   "insert into u values (10)",
			failAt: 3, // 1: seed, 2: user insert, 3: action update
		},
		{
			name: "delete",
			rules: `create rule r on t when inserted
then delete from u`,
			seed:   "insert into u values (10)",
			failAt: 3,
		},
		{
			name: "multi-row update fails midway",
			rules: `create rule r on t when inserted
then update u set v = v + 1`,
			seed:   "insert into u values (1), (2), (3)",
			failAt: 6, // 1-3: seed, 4: user insert, 5-7: per-row updates
		},
		{
			name: "observable before failing statement",
			rules: `create rule r on t when inserted
then select v from u; insert into u values (1); insert into u values (2)`,
			seed:   "insert into u values (9)",
			failAt: 4, // 1: seed, 2: user insert, 3: first action insert, 4: second
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set, db := mkSet(t, schemaSrc, tc.rules)
			inj := faultinject.New(faultinject.Config{FailAt: tc.failAt})
			e := New(set, db, Options{WrapMutator: inj.Wrap})
			if tc.seed != "" {
				if _, err := e.ExecUser(tc.seed); err != nil {
					t.Fatal(err)
				}
				e.Commit()
			}
			if _, err := e.ExecUser("insert into t values (1)"); err != nil {
				t.Fatal(err)
			}
			wantState, wantDB, wantMark := engineState(e)

			res, err := e.Assert()
			var xe *ExecError
			if !errors.As(err, &xe) {
				t.Fatalf("want *ExecError, got %v", err)
			}
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Errorf("cause not the injected fault: %v", err)
			}
			if xe.Rule != "r" || xe.Statement == "" {
				t.Errorf("ExecError context incomplete: rule=%q stmt=%q", xe.Rule, xe.Statement)
			}
			gotState, gotDB, gotMark := engineState(e)
			if gotDB != wantDB {
				t.Errorf("database not restored:\n%s", e.DB().String())
			}
			if gotMark != wantMark {
				t.Errorf("history position = %d, want %d", gotMark, wantMark)
			}
			if gotState != wantState {
				t.Error("engine state fingerprint differs from pre-action state")
			}
			if len(res.Observables) != 0 {
				t.Errorf("observables from the aborted action leaked: %v", res.Observables)
			}
			if !e.InFlight() {
				t.Error("processing must be suspended after an ExecError")
			}

			// Resumability: a fault-free retry completes and matches a run
			// that never faulted.
			inj.Disarm()
			if _, err := e.Assert(); err != nil {
				t.Fatalf("resume: %v", err)
			}
			set2, db2 := mkSet(t, schemaSrc, tc.rules)
			e2 := New(set2, db2, Options{})
			if tc.seed != "" {
				if _, err := e2.ExecUser(tc.seed); err != nil {
					t.Fatal(err)
				}
				e2.Commit()
			}
			if _, err := e2.ExecUser("insert into t values (1)"); err != nil {
				t.Fatal(err)
			}
			if _, err := e2.Assert(); err != nil {
				t.Fatal(err)
			}
			if e.DB().Fingerprint() != e2.DB().Fingerprint() {
				t.Errorf("resumed run diverged from fault-free run:\n%s\nvs\n%s",
					e.DB().String(), e2.DB().String())
			}
		})
	}
}

func TestResumeDoesNotReseeConsumedTransition(t *testing.T) {
	// r1 fires successfully, then r2's action fails. Resuming must
	// re-consider only r2 — not replay r1 against the already-consumed
	// transition (the pre-fix behavior reset all marks to assertStart).
	set, db := mkSet(t, "table t (v int)\ntable u (v int)\ntable w (v int)", `
create rule r1 on t when inserted then insert into u select v from inserted
create rule r2 on u when inserted then insert into w select v from inserted
`)
	inj := faultinject.New(faultinject.Config{FailAt: 3}) // 1: user, 2: r1 insert, 3: r2 insert
	e := New(set, db, Options{WrapMutator: inj.Wrap})
	if _, err := e.ExecUser("insert into t values (7)"); err != nil {
		t.Fatal(err)
	}
	res1, err := e.Assert()
	var xe *ExecError
	if !errors.As(err, &xe) || xe.Rule != "r2" {
		t.Fatalf("want ExecError in r2, got %v", err)
	}
	if res1.Considered != 1 || res1.Fired != 1 {
		t.Fatalf("partial progress lost: considered=%d fired=%d", res1.Considered, res1.Fired)
	}
	inj.Disarm()
	res2, err := e.Assert()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Considered != 1 || res2.Fired != 1 {
		t.Errorf("resume must only re-consider r2: considered=%d fired=%d", res2.Considered, res2.Fired)
	}
	if got := db.Table("u").Len(); got != 1 {
		t.Errorf("u rows = %d, want 1 (r1 must not replay)", got)
	}
	if got := db.Table("w").Len(); got != 1 {
		t.Errorf("w rows = %d, want 1", got)
	}
}

func TestPanicContainment(t *testing.T) {
	set, db := mkSet(t, "table t (v int)\ntable u (v int)", `
create rule r on t when inserted then insert into u select v from inserted`)
	inj := faultinject.New(faultinject.Config{PanicAt: 2})
	e := New(set, db, Options{WrapMutator: inj.Wrap})
	if _, err := e.ExecUser("insert into t values (1)"); err != nil {
		t.Fatal(err)
	}
	wantState, _, _ := engineState(e)
	_, err := e.Assert()
	var xe *ExecError
	if !errors.As(err, &xe) || xe.Rule != "r" {
		t.Fatalf("want *ExecError, got %v", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("cause must be a *PanicError: %v", err)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic stack not captured")
	}
	if gotState, _, _ := engineState(e); gotState != wantState {
		t.Error("state not restored after recovered panic")
	}
	inj.Disarm()
	if _, err := e.Assert(); err != nil {
		t.Fatalf("resume after panic: %v", err)
	}
	if db.Table("u").Len() != 1 {
		t.Error("resumed action did not apply")
	}
}

func TestExecUserAtomicity(t *testing.T) {
	set, db := mkSet(t, "table t (v int)\ntable u (v int)", `
create rule r on t when inserted then insert into u select v from inserted`)
	inj := faultinject.New(faultinject.Config{FailAt: 3})
	e := New(set, db, Options{WrapMutator: inj.Wrap})
	wantState, wantDB, wantMark := engineState(e)
	_, err := e.ExecUser("insert into t values (1); insert into t values (2); insert into t values (3)")
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("want injected fault, got %v", err)
	}
	gotState, gotDB, gotMark := engineState(e)
	if gotDB != wantDB || gotMark != wantMark || gotState != wantState {
		t.Error("failed user script must leave no partial transition")
	}
	// Retry fault-free: identical script must replay cleanly.
	inj.Disarm()
	if _, err := e.ExecUser("insert into t values (1); insert into t values (2); insert into t values (3)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Assert(); err != nil {
		t.Fatal(err)
	}
	if db.Table("u").Len() != 3 {
		t.Errorf("u rows = %d, want 3", db.Table("u").Len())
	}
}

func TestAssertContextCancellation(t *testing.T) {
	set, db := mkSet(t, "table t (v int)\ntable u (v int)\ntable w (v int)", `
create rule r1 on t when inserted then insert into u select v from inserted
create rule r2 on u when inserted then insert into w select v from inserted
`)
	// Pre-cancelled context: nothing runs, state stays resumable.
	e := New(set, db, Options{})
	if _, err := e.ExecUser("insert into t values (1)"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := e.AssertContext(ctx)
	var ce *CancelledError
	if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want *CancelledError wrapping context.Canceled, got %v", err)
	}
	if res.Considered != 0 {
		t.Errorf("pre-cancelled context must not consider rules: %d", res.Considered)
	}
	if !e.InFlight() {
		t.Error("cancelled processing must be suspended, not abandoned")
	}

	// Resume with a live context completes the cascade.
	if _, err := e.Assert(); err != nil {
		t.Fatal(err)
	}
	if db.Table("w").Len() != 1 {
		t.Error("resumed processing incomplete")
	}
}

func TestAssertContextMidFlightCancellation(t *testing.T) {
	set, db := mkSet(t, "table t (v int)\ntable u (v int)\ntable w (v int)", `
create rule r1 on t when inserted then insert into u select v from inserted
create rule r2 on u when inserted then insert into w select v from inserted
`)
	ctx, cancel := context.WithCancel(context.Background())
	e := New(set, db, Options{Trace: func(ev TraceEvent) {
		if ev.Kind == "fire" && ev.Rule == "r1" {
			cancel() // cancel between considerations
		}
	}})
	if _, err := e.ExecUser("insert into t values (1)"); err != nil {
		t.Fatal(err)
	}
	res, err := e.AssertContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want cancellation, got %v", err)
	}
	if res.Considered != 1 || res.Fired != 1 {
		t.Errorf("progress before cancellation lost: %+v", res)
	}
	res2, err := e.Assert()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Considered != 1 {
		t.Errorf("resume must finish the remaining rule only: %+v", res2)
	}
	if db.Table("w").Len() != 1 {
		t.Error("cascade incomplete after resume")
	}
}

func TestLivelockWitness(t *testing.T) {
	set, db := mkSet(t, "table a (v int)\ntable b (v int)", `
create rule ra on a when inserted then delete from a; insert into b values (1)
create rule rb on b when inserted then delete from b; insert into a values (1)
`)
	e := New(set, db, Options{MaxSteps: 60})
	if _, err := e.ExecUser("insert into a values (1)"); err != nil {
		t.Fatal(err)
	}
	_, err := e.Assert()
	var le *LivelockError
	if !errors.As(err, &le) {
		t.Fatalf("want *LivelockError, got %v", err)
	}
	if !errors.Is(err, ErrMaxSteps) {
		t.Error("LivelockError must satisfy errors.Is(err, ErrMaxSteps)")
	}
	if le.Period != 2 || len(le.Cycle) != 2 {
		t.Fatalf("period=%d cycle=%v, want period 2", le.Period, le.Cycle)
	}
	seen := map[string]bool{le.Cycle[0]: true, le.Cycle[1]: true}
	if !seen["ra"] || !seen["rb"] {
		t.Errorf("cycle %v must name both ping-pong rules", le.Cycle)
	}
	if le.Error() == "" || le.Steps <= 0 {
		t.Error("witness must carry diagnostics")
	}
}

func TestGrowingSetNoFalseLivelockWitness(t *testing.T) {
	// A self-triggering rule that grows the database never revisits a
	// state: the budget verdict must stay the inconclusive ErrMaxSteps.
	set, db := mkSet(t, "table t (v int)", `
create rule grow on t when inserted then insert into t select v from inserted`)
	e := New(set, db, Options{MaxSteps: 40})
	if _, err := e.ExecUser("insert into t values (1)"); err != nil {
		t.Fatal(err)
	}
	_, err := e.Assert()
	var le *LivelockError
	if errors.As(err, &le) {
		t.Fatalf("growing execution must not fabricate a livelock witness: %v", err)
	}
	if !errors.Is(err, ErrMaxSteps) {
		t.Fatalf("want ErrMaxSteps, got %v", err)
	}
}

func TestTraceTerminalEvents(t *testing.T) {
	terminal := func(kinds []string) string {
		if len(kinds) == 0 {
			return ""
		}
		return kinds[len(kinds)-1]
	}
	collect := func(opts Options, rulesSrc, script string, ctx context.Context) ([]string, error) {
		set, db := mkSet(t, "table t (v int)\ntable u (v int)", rulesSrc)
		var kinds []string
		opts.Trace = func(ev TraceEvent) { kinds = append(kinds, ev.Kind) }
		e := New(set, db, opts)
		if _, err := e.ExecUser(script); err != nil {
			t.Fatal(err)
		}
		_, err := e.AssertContext(ctx)
		return kinds, err
	}
	bg := context.Background()
	cascade := "create rule r on t when inserted then insert into u select v from inserted"
	loop := "create rule r on t when inserted then delete from t; insert into t values (1)"

	kinds, err := collect(Options{}, cascade, "insert into t values (1)", bg)
	if err != nil || terminal(kinds) != "assert-end" {
		t.Errorf("success must end with assert-end: %v (err %v)", kinds, err)
	}

	kinds, err = collect(Options{MaxSteps: 30}, loop, "insert into t values (1)", bg)
	if err == nil || terminal(kinds) != "assert-error" {
		t.Errorf("budget/livelock must end with assert-error: %v (err %v)", kinds, err)
	}

	cancelled, cancel := context.WithCancel(bg)
	cancel()
	kinds, err = collect(Options{}, cascade, "insert into t values (1)", cancelled)
	if err == nil || terminal(kinds) != "assert-cancelled" {
		t.Errorf("cancellation must end with assert-cancelled: %v (err %v)", kinds, err)
	}

	// Failure inside a consideration.
	inj := faultinject.New(faultinject.Config{FailAt: 2})
	kinds, err = collect(Options{WrapMutator: inj.Wrap}, cascade, "insert into t values (1)", bg)
	if err == nil || terminal(kinds) != "assert-error" {
		t.Errorf("exec error must end with assert-error: %v (err %v)", kinds, err)
	}
}

// TestNestedSavepointPanicContainment exercises panic containment while
// a caller-held savepoint is already open: the engine's per-action
// savepoint nests inside the caller's, the recovered panic rolls back
// only the action layer, and the caller's savepoint remains fully
// functional for both its rollback and release legs afterwards.
func TestNestedSavepointPanicContainment(t *testing.T) {
	set, db := mkSet(t, "table t (v int)\ntable u (v int)", `
create rule r on t when inserted then insert into u select v from inserted`)
	inj := faultinject.New(faultinject.Config{PanicAt: 4})
	e := New(set, db, Options{WrapMutator: inj.Wrap})

	// Baseline outside any savepoint: calls 1 (user insert) and 2
	// (action insert).
	if _, err := e.ExecUser("insert into t values (1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Assert(); err != nil {
		t.Fatal(err)
	}
	base := db.Fingerprint()

	// Rollback leg: user transaction in a savepoint; the rule action
	// (call 4) panics inside the engine's own nested savepoint.
	outer := db.Savepoint()
	if _, err := e.ExecUser("insert into t values (2)"); err != nil { // call 3
		t.Fatal(err)
	}
	wantState, _, _ := engineState(e)
	_, err := e.Assert()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("nested panic not contained as *PanicError: %v", err)
	}
	if gotState, _, _ := engineState(e); gotState != wantState {
		t.Error("state not restored after panic inside nested savepoint")
	}
	inj.Disarm()
	if _, err := e.Assert(); err != nil {
		t.Fatalf("resume after nested panic: %v", err)
	}
	if db.Table("u").Len() != 2 {
		t.Fatalf("u rows = %d, want 2 after resumed action", db.Table("u").Len())
	}
	db.RollbackTo(outer)
	if db.Fingerprint() != base {
		t.Fatal("outer savepoint rollback did not restore the pre-savepoint state exactly")
	}

	// Release leg: the same cycle fault-free, committed via Release;
	// the mutations must stick.
	outer2 := db.Savepoint()
	if _, err := e.ExecUser("insert into t values (3)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Assert(); err != nil {
		t.Fatal(err)
	}
	db.Release(outer2)
	released := db.Fingerprint()
	if released == base {
		t.Fatal("released savepoint lost its mutations")
	}

	// Depth bookkeeping: release must have returned the db to depth
	// zero, so a fresh savepoint cycle rolls back to exactly the
	// released state — a stale undo log would drag it further back.
	sp := db.Savepoint()
	if _, err := e.ExecUser("insert into t values (4)"); err != nil {
		t.Fatal(err)
	}
	db.RollbackTo(sp)
	if db.Fingerprint() != released {
		t.Fatal("post-release savepoint cycle did not restore the released state")
	}
}
