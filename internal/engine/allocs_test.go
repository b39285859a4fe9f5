package engine

import (
	"fmt"
	"strings"
	"testing"

	"activerules/internal/storage"
)

// raceEnabled is set by race_test.go, which only a -race build compiles.
var raceEnabled bool

// cascadeStepAllocs pins the cost of one step of a cascade on a warmed
// compiled engine: what the step keeps — the pending net (3), the four
// rows it inserts (a tuple and its values each) — plus the copy
// TriggeredRules hands out, and nothing of what the step only uses. The
// commit before the pin measured 65.
const cascadeStepAllocs = 13

// TestCascadeStepAllocs is the tripwire for the firing loop: find the
// triggered rule and consider it, for a chain rule of the served cascade
// (bench/gen.go's chainNN: a condition and an action that each read the
// four inserted rows).
func TestCascadeStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const depth, runs = 128, 100
	var sch, rl strings.Builder
	for i := 0; i <= depth; i++ {
		fmt.Fprintf(&sch, "table c%d (v int)\n", i)
	}
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&rl, "create rule chain%03d on c%d\nwhen inserted\nif exists (select 1 from inserted where v >= 0)\nthen insert into c%d select v from inserted\n\n", i, i, i+1)
	}
	set, db := mkSet(t, sch.String(), rl.String())
	e := New(set, db, Options{})
	const op = "insert into c0 values (1), (2), (3), (4)"
	// Warm: one whole cascade and its commit size every scratch.
	if _, err := e.ExecUser(op); err != nil {
		t.Fatal(err)
	}
	if res, err := e.Assert(); err != nil || res.Fired != depth {
		t.Fatalf("warm-up: fired %d, err %v", res.Fired, err)
	}
	if err := e.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecUser(op); err != nil {
		t.Fatal(err)
	}
	e.BeginAssert()
	// Each run is the next step down the chain (AllocsPerRun makes one
	// more call than runs, to warm up).
	steps := 0
	got := testing.AllocsPerRun(runs, func() {
		triggered := e.TriggeredRules()
		if len(triggered) != 1 {
			t.Fatalf("step %d: triggered %v", steps, names(triggered))
		}
		if fired, _, _, err := e.Consider(triggered[0]); err != nil || !fired {
			t.Fatalf("step %d: fired %v, err %v", steps, fired, err)
		}
		steps++
	})
	if steps != runs+1 {
		t.Fatalf("took %d steps, want %d", steps, runs+1)
	}
	if got > cascadeStepAllocs {
		t.Errorf("one cascade step: %.0f allocations, want <= %d", got, cascadeStepAllocs)
	}
	t.Logf("one cascade step: %.0f allocations", got)
}

// TestRecordingMutatorAllocs is the tripwire for "the database's history
// is the only record": an update and a delete through the engine's
// mutator allocate nothing — storage's own entry lands in the history's
// warmed backing array, and no old row is copied for a second log (one
// full-row copy each, before the transition log went).
func TestRecordingMutatorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	for _, compiled := range []bool{false, true} {
		set, db := mkSet(t, "table t (a int, b int, c int)", "create rule r on t when updated(a), deleted then delete from t where a < 0")
		id := db.MustInsert("t", storage.IntV(1), storage.IntV(2), storage.IntV(3))
		e := New(set, db, Options{Interpret: !compiled})
		m := recordingMutator{e}
		v := storage.IntV(0)
		for name, primitive := range map[string]func() error{
			"update": func() error { v.I++; return m.Update("t", id, "a", v) },
			"delete": func() error { return m.Delete("t", id) },
		} {
			// Each run rolls its one entry back, so the history stays
			// inside the array the warm-up call grew.
			got := testing.AllocsPerRun(100, func() {
				sp := db.Savepoint()
				if err := primitive(); err != nil {
					t.Fatal(err)
				}
				db.RollbackTo(sp)
			})
			if got != 0 {
				t.Errorf("compiled=%v: one %s through the recording mutator: %.0f allocations, want 0", compiled, name, got)
			}
		}
	}
}
