package serve

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// TestEngineHandoverLeaksNoSavepoint drives every path that rebuilds the
// engine over the live database — quarantine, probe readmission,
// restoration, rule swap — and checks the hand-over at each request
// boundary: exactly the current engine's transaction savepoint is open
// and no undo record outlives its transaction. A rebuild that failed to
// close the outgoing engine would not get this far: engine.New refuses
// a database that still has a savepoint active.
func TestEngineHandoverLeaksNoSavepoint(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	s, in := newQuarantineServer(t, Config{
		QuarantineThreshold: 1,
		Now:                 clk.Now,
	})
	defer s.Close()
	_, full := mkSystem(t, quarantineSchema, quarantineRules)
	ctx := context.Background()
	db := s.eng.DB()
	boundary := func(when string) {
		t.Helper()
		if s.eng.DB() != db {
			t.Fatalf("%s: the engine's database changed", when)
		}
		if depth, records := db.UndoDepth(); depth != 1 || records != 0 {
			t.Fatalf("%s: %d savepoints open with %d undo records, want 1 and 0", when, depth, records)
		}
	}
	submit := func(when string, wantErr bool) {
		t.Helper()
		_, err := s.Submit(ctx, Request{SQL: "insert into t values (1); delete from audit"})
		if (err != nil) != wantErr {
			t.Fatalf("%s: submit = %v, want error %v", when, err, wantErr)
		}
		boundary(when)
	}
	for cycle := 0; cycle < 50; cycle++ {
		in.Arm()
		submit("tripping request", true) // hostile panics: quarantined
		if q := s.Health().Report.Quarantined; len(q) != 1 {
			t.Fatalf("cycle %d: Quarantined = %v, want [hostile]", cycle, q)
		}
		submit("degraded request", false)
		swapped := full
		if cycle%2 == 1 {
			swapped = full[:1]
		}
		if err := s.SwapRules(ctx, swapped, nil); err != nil {
			t.Fatal(err)
		}
		boundary("after swap")
		clk.Advance(time.Hour)
		in.Disarm()
		submit("curing probe", false) // readmitted half-open, then restored
		if q := s.Health().Report.Quarantined; len(q) != 0 {
			t.Fatalf("cycle %d: Quarantined = %v after a successful probe", cycle, q)
		}
		if err := s.SwapRules(ctx, full, nil); err != nil {
			t.Fatal(err)
		}
		boundary("after restoring swap")
	}
}

// heapAfterGC is the live heap once everything unreachable is gone.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRuleSetsAreCollected drives the two things that mint rule sets on
// a compiled server — opening one, and rebuilding the active set around
// a quarantine — hundreds of times, and checks that the live heap stays
// where it was after the first few. Every rules.Set carries its schema
// and its compiled closures; a process-wide table keyed by set pinned
// all of them (2 MB and 5 MB over the two legs here).
func TestRuleSetsAreCollected(t *testing.T) {
	const (
		warm   = 20
		rounds = 300
		slack  = 256 << 10
	)
	ctx := context.Background()
	flat := func(what string, round func(i int)) {
		t.Helper()
		for i := 0; i < warm; i++ {
			round(i)
		}
		before := heapAfterGC()
		for i := 0; i < rounds; i++ {
			round(i)
		}
		if after := heapAfterGC(); after > before+slack {
			t.Errorf("%s: live heap grew %d KB over %d rounds", what, (after-before)>>10, rounds)
		}
	}

	flat("server lifecycles", func(int) {
		s, in := newQuarantineServer(t, Config{})
		in.Disarm()
		for k := 0; k < 3; k++ {
			if _, err := s.Submit(ctx, Request{SQL: "insert into t values (1)"}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})

	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	s, in := newQuarantineServer(t, Config{
		QuarantineThreshold: 1,
		Now:                 clk.Now,
	})
	defer s.Close()
	flat("quarantine/readmit rebuilds", func(i int) {
		in.Arm()
		if _, err := s.Submit(ctx, Request{SQL: "insert into t values (1); delete from audit"}); err == nil {
			t.Fatal("armed request succeeded")
		}
		clk.Advance(time.Hour)
		in.Disarm()
		if _, err := s.Submit(ctx, Request{SQL: "insert into t values (1); delete from audit; delete from poison"}); err != nil {
			t.Fatal(err)
		}
		if q := s.Health().Report.Quarantined; len(q) != 0 {
			t.Fatalf("round %d: Quarantined = %v after a successful probe", i, q)
		}
	})
}
