package execgraph

import (
	"fmt"
	"testing"

	"activerules/internal/engine"
	"activerules/internal/ruledef"
	"activerules/internal/rules"
	"activerules/internal/schema"
	"activerules/internal/storage"
)

// prep compiles a schema + rule set, seeds the database via seed, runs
// the user script, and returns the ready engine.
func prep(t *testing.T, schemaSrc, rulesSrc, userOps string, seed func(*storage.DB)) *engine.Engine {
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
	db := storage.NewDB(sch)
	if seed != nil {
		seed(db)
	}
	e := engine.New(set, db, engine.Options{})
	if userOps != "" {
		if _, err := e.ExecUser(userOps); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func TestConfluentDisjointRules(t *testing.T) {
	// Two unordered rules writing disjoint tables commute: many
	// interleavings, one final state (Figure 1's diamond).
	e := prep(t, "table t (v int)\ntable a (v int)\ntable b (v int)", `
create rule ra on t when inserted then insert into a select v from inserted
create rule rb on t when inserted then insert into b select v from inserted
`, "insert into t values (1)", nil)
	res, err := Explore(e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Branching {
		t.Error("two unordered eligible rules should branch (Observation 6.2)")
	}
	if !res.Confluent() {
		t.Errorf("expected confluence: %d final states, cycle=%v bound=%v",
			len(res.FinalDBs), res.CycleDetected, res.BoundExceeded)
	}
	db := res.FinalDBs[res.FinalFingerprints()[0]]
	if db.Table("a").Len() != 1 || db.Table("b").Len() != 1 {
		t.Error("both rules should have fired on every path")
	}
}

func TestNonConfluentRace(t *testing.T) {
	// Two unordered rules both set t.v; last writer wins, so the final
	// state depends on the order: exactly two final states.
	e := prep(t, "table t (v int)\ntable trig (x int)", `
create rule ra on trig when inserted then update t set v = 1
create rule rb on trig when inserted then update t set v = 2
`, "insert into trig values (0)", func(db *storage.DB) {
		db.MustInsert("t", storage.IntV(0))
	})
	res, err := Explore(e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Confluent() {
		t.Error("race should not be confluent")
	}
	if len(res.FinalDBs) != 2 {
		t.Errorf("final states = %d, want 2", len(res.FinalDBs))
	}
	if !res.Terminates() {
		t.Error("the race still terminates")
	}
}

func TestWitnessPaths(t *testing.T) {
	// Non-confluent race: each final state carries a concrete schedule,
	// and replaying that schedule reproduces the state.
	e := prep(t, "table t (v int)\ntable trig (x int)", `
create rule ra on trig when inserted then update t set v = 1
create rule rb on trig when inserted then update t set v = 2
`, "insert into trig values (0)", func(db *storage.DB) {
		db.MustInsert("t", storage.IntV(0))
	})
	res, err := Explore(e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Witnesses) != 2 {
		t.Fatalf("witnesses = %d, want 2", len(res.Witnesses))
	}
	for fp, path := range res.Witnesses {
		if len(path) != 2 {
			t.Fatalf("witness path = %v", path)
		}
		// Replay the schedule on a fresh clone.
		replay := e.Clone()
		replay.BeginAssert()
		for _, name := range path {
			if _, _, _, err := replay.Consider(replay.Set().Rule(name)); err != nil {
				t.Fatal(err)
			}
		}
		if len(replay.EligibleRules()) != 0 {
			t.Error("witness should be a complete schedule")
		}
		if replay.DB().Fingerprint() != fp {
			t.Errorf("replaying %v did not reproduce its final state", path)
		}
	}
}

func TestOrderingRestoresConfluence(t *testing.T) {
	// The same race with a priority is a single path: confluent.
	e := prep(t, "table t (v int)\ntable trig (x int)", `
create rule ra on trig when inserted then update t set v = 1 precedes rb
create rule rb on trig when inserted then update t set v = 2
`, "insert into trig values (0)", func(db *storage.DB) {
		db.MustInsert("t", storage.IntV(0))
	})
	res, err := Explore(e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Branching {
		t.Error("a totally ordered pair should not branch")
	}
	if !res.Confluent() {
		t.Error("ordered race should be confluent")
	}
	// Final value is rb's (the lower-priority rule runs second).
	db := res.FinalDBs[res.FinalFingerprints()[0]]
	var v int64
	db.Table("t").Scan(func(tu *storage.Tuple) bool { v = tu.Vals[0].I; return true })
	if v != 2 {
		t.Errorf("final v = %d, want 2", v)
	}
}

func TestInsertDeleteLoopAnnihilates(t *testing.T) {
	// a deletes what the user inserted; b would re-insert on deletions.
	// Net effects make this terminate: a's delete annihilates the
	// insertion it is paired with, so b sees an empty composite
	// transition and never triggers (net-effect rule 4).
	e := prep(t, "table t (v int)", `
create rule a on t when inserted then delete from t
create rule b on t when deleted then insert into t values (1)
`, "insert into t values (1)", nil)
	res, err := Explore(e, Options{MaxStates: 5000, MaxDepth: 500})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminates() {
		t.Error("net effects should annihilate the insert/delete pair")
	}
	db := res.FinalDBs[res.FinalFingerprints()[0]]
	if db.Table("t").Len() != 0 {
		t.Error("t should end empty")
	}
}

func TestCycleDetection(t *testing.T) {
	// A value-flipping rule revisits the same (D, TR) state forever: the
	// execution graph has a genuine cycle.
	e := prep(t, "table t (v int)", `
create rule flip on t when updated(v) then update t set v = 1 - v
`, "update t set v = 1", func(db *storage.DB) {
		db.MustInsert("t", storage.IntV(0))
	})
	res, err := Explore(e, Options{MaxStates: 5000, MaxDepth: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Terminates() {
		t.Error("flip rule should not terminate")
	}
	if !res.CycleDetected {
		t.Errorf("expected a detected cycle, got bound=%v", res.BoundExceeded)
	}
}

func TestGrowingNonterminationHitsBound(t *testing.T) {
	// A self-triggering inserter grows the database forever: no state
	// repeats, so the bound is the signal.
	e := prep(t, "table t (v int)", `
create rule r on t when inserted then insert into t values (1)
`, "insert into t values (0)", nil)
	res, err := Explore(e, Options{MaxStates: 200, MaxDepth: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Terminates() {
		t.Error("self-inserter should not terminate")
	}
}

func TestPartialConfluenceOnDataTable(t *testing.T) {
	// The rules race on scratch but agree on data: partially confluent
	// with respect to {data}, not confluent overall (Section 7).
	e := prep(t, "table trig (x int)\ntable scratch (v int)\ntable data (v int)", `
create rule ra on trig when inserted then update scratch set v = 1; insert into data values (1)
create rule rb on trig when inserted then update scratch set v = 2; insert into data values (2)
`, "insert into trig values (0)", func(db *storage.DB) {
		db.MustInsert("scratch", storage.IntV(0))
	})
	res, err := Explore(e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Confluent() {
		t.Error("scratch race should break full confluence")
	}
	if !res.PartiallyConfluentOn([]string{"data"}) {
		t.Error("data table should be order-independent")
	}
	if res.PartiallyConfluentOn([]string{"scratch"}) {
		t.Error("scratch table is order-dependent")
	}
}

func TestObservableStreams(t *testing.T) {
	// Two unordered observable rules: the order of their SELECT actions
	// differs across paths, so two streams exist even though the final
	// database state is identical (observable determinism and confluence
	// are orthogonal, Section 8).
	e := prep(t, "table t (v int)", `
create rule ra on t when inserted then select v from inserted
create rule rb on t when inserted then select v + 1 from inserted
`, "insert into t values (5)", nil)
	res, err := Explore(e, Options{TrackObservables: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Confluent() {
		t.Error("pure selects are confluent")
	}
	if res.ObservablyDeterministic() {
		t.Error("unordered observables should yield two streams")
	}
	if len(res.Streams) != 2 {
		t.Errorf("streams = %d, want 2", len(res.Streams))
	}
}

func TestOrderedObservablesDeterministic(t *testing.T) {
	e := prep(t, "table t (v int)", `
create rule ra on t when inserted then select v from inserted precedes rb
create rule rb on t when inserted then select v + 1 from inserted
`, "insert into t values (5)", nil)
	res, err := Explore(e, Options{TrackObservables: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ObservablyDeterministic() {
		t.Errorf("ordered observables should be deterministic: %d streams", len(res.Streams))
	}
	if len(res.StreamRenderings()) != 1 {
		t.Errorf("renderings = %v", res.StreamRenderings())
	}
}

func TestRollbackPaths(t *testing.T) {
	// One of two unordered rules rolls back; the other, if it runs first,
	// deletes the triggering tuple and untriggers the guard. The outcome
	// (rollback or not) depends on the order.
	e := prep(t, "table t (v int)\ntable u (v int)", `
create rule guard on t when inserted then rollback
create rule work on t when inserted then delete from t; insert into u values (1)
`, "insert into t values (1)", nil)
	res, err := Explore(e, Options{TrackObservables: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AnyRollback {
		t.Error("some path should roll back")
	}
	if res.Confluent() {
		t.Error("rollback race should not be confluent")
	}
	if res.ObservablyDeterministic() {
		t.Error("rollback timing differs across paths")
	}
}

func TestUntriggeringDuringExploration(t *testing.T) {
	// sweep (higher priority) deletes the inserted tuple; keep becomes
	// untriggered on every path: single final state with empty log.
	e := prep(t, "table t (v int)\ntable log (v int)", `
create rule sweep on t when inserted then delete from t precedes keep
create rule keep on t when inserted then insert into log select v from inserted
`, "insert into t values (1)", nil)
	res, err := Explore(e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Confluent() {
		t.Error("should be confluent (single path)")
	}
	db := res.FinalDBs[res.FinalFingerprints()[0]]
	if db.Table("log").Len() != 0 {
		t.Error("keep should have been untriggered")
	}
}

func TestExploreDoesNotMutateEngine(t *testing.T) {
	e := prep(t, "table t (v int)\ntable u (v int)", `
create rule r on t when inserted then insert into u select v from inserted
`, "insert into t values (1)", nil)
	before := e.StateFingerprint()
	if _, err := Explore(e, Options{}); err != nil {
		t.Fatal(err)
	}
	if e.StateFingerprint() != before {
		t.Error("Explore mutated the engine")
	}
	// The engine still runs normally afterwards.
	if _, err := e.Assert(); err != nil {
		t.Fatal(err)
	}
	if e.DB().Table("u").Len() != 1 {
		t.Error("post-exploration Assert failed")
	}
}

func TestConditionFalseFinalState(t *testing.T) {
	// A triggered rule whose condition is false is still considered; the
	// final state records that consideration consumed the transition.
	e := prep(t, "table t (v int)\ntable u (v int)", `
create rule r on t when inserted if exists (select 1 from inserted where v > 10) then insert into u values (1)
`, "insert into t values (1)", nil)
	res, err := Explore(e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Confluent() {
		t.Error("single rule should be confluent")
	}
	db := res.FinalDBs[res.FinalFingerprints()[0]]
	if db.Table("u").Len() != 0 {
		t.Error("condition was false; no action expected")
	}
}

func TestDisableMemoSameOutcomes(t *testing.T) {
	// Memoization is a pure optimization: the reachable final states and
	// streams are identical with and without it; only the work differs.
	e := prep(t, "table t (v int)\ntable a (v int)\ntable b (v int)", `
create rule ra on t when inserted then insert into a select v from inserted
create rule rb on t when inserted then update b set v = 1
create rule rc on t when inserted then update b set v = 2
`, "insert into t values (1)", func(db *storage.DB) {
		db.MustInsert("b", storage.IntV(0))
	})
	memo, err := Explore(e, Options{TrackObservables: true})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Explore(e, Options{TrackObservables: true, DisableMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(memo.FinalDBs) != len(raw.FinalDBs) {
		t.Errorf("final states differ: memo=%d raw=%d", len(memo.FinalDBs), len(raw.FinalDBs))
	}
	for fp := range memo.FinalDBs {
		if _, ok := raw.FinalDBs[fp]; !ok {
			t.Error("memoized exploration found a state the raw one missed")
		}
	}
	if raw.StatesExplored < memo.StatesExplored {
		t.Errorf("raw exploration should do at least as much work: %d vs %d",
			raw.StatesExplored, memo.StatesExplored)
	}

	// The memo-free run is the memo's only independent check, so it also
	// covers the acyclic generated workloads, field for field.
	compared := 0
	for _, cfg := range diffConfigs()[:16] {
		e, _ := workloadEngine(t, cfg, 3, 6)
		opts := Options{TrackObservables: true, MaxStates: 20000}
		memo, err := Explore(e, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.DisableMemo = true
		raw, err := Explore(e, opts)
		if err != nil {
			t.Fatal(err)
		}
		if memo.BoundExceeded || raw.BoundExceeded {
			continue
		}
		compared++
		if raw.StatesExplored < memo.StatesExplored {
			t.Errorf("seed %d: raw visited %d states, memoized %d", cfg.Seed, raw.StatesExplored, memo.StatesExplored)
		}
		want, got := summarize(raw), summarize(memo)
		want.states = got.states
		compareVerdicts(t, fmt.Sprintf("seed %d", cfg.Seed), want, got)
	}
	if compared < 8 {
		t.Errorf("only %d generated workloads finished memo-free within the bound", compared)
	}
}

func TestThreeWayBranchCount(t *testing.T) {
	e := prep(t, "table t (v int)\ntable a (v int)\ntable b (v int)\ntable c (v int)", `
create rule ra on t when inserted then insert into a values (1)
create rule rb on t when inserted then insert into b values (1)
create rule rc on t when inserted then insert into c values (1)
`, "insert into t values (1)", nil)
	res, err := Explore(e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxEligible != 3 {
		t.Errorf("MaxEligible = %d, want 3", res.MaxEligible)
	}
	if !res.Confluent() {
		t.Error("disjoint inserters are confluent")
	}
	// 3! = 6 paths but states merge; all 8 subsets of fired rules are
	// distinct states: explored states should be well below 16.
	if res.StatesExplored > 16 {
		t.Errorf("memoization ineffective: %d states", res.StatesExplored)
	}
}
