package serve

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"activerules/internal/rules"
	"activerules/internal/wal"
)

// TestOneSetPerChange pins that a served rule set is built once per
// change and shared: the engine runs the set the baseline and every
// degraded-mode report were computed over, and an emptied quarantine
// returns the engine to the full set (and its memoized program) rather
// than rebuilding it.
func TestOneSetPerChange(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	s, in := newQuarantineServer(t, Config{
		QuarantineThreshold: 1,
		Now:                 clk.Now,
	})
	defer s.Close()
	ctx := context.Background()

	full, prog := s.eng.Set(), s.eng.Program()
	if prog == nil {
		t.Fatal("the engine did not compile its set")
	}
	if full != s.full {
		t.Fatal("after New the engine does not run the set the baseline was computed over")
	}
	if s.Health().Report.served != full {
		t.Fatal("after New the report does not describe the engine's set")
	}

	trip := func() {
		t.Helper()
		in.Arm()
		if _, err := s.Submit(ctx, Request{SQL: "insert into t values (1)"}); err == nil {
			t.Fatal("armed request succeeded")
		}
		if q := s.Health().Report.Quarantined; len(q) != 1 {
			t.Fatalf("Quarantined = %v, want [hostile]", q)
		}
		if s.eng.Set() == s.full || s.eng.Set().Rule("hostile") != nil {
			t.Fatal("the engine still runs the quarantined rule")
		}
		if s.Health().Report.served != s.eng.Set() {
			t.Fatal("the degraded report was computed over a set other than the engine's")
		}
	}

	// Readmission: the due probe empties the quarantine, and the
	// successful probe closes the breaker.
	trip()
	clk.Advance(11 * time.Millisecond)
	in.Disarm()
	resp, err := s.Submit(ctx, Request{SQL: "insert into t values (2)"})
	if err != nil {
		t.Fatalf("curing probe: %v", err)
	}
	if resp.FiredByRule["hostile"] != 1 {
		t.Fatalf("FiredByRule = %v, want hostile readmitted", resp.FiredByRule)
	}
	if s.eng.Set() != full || s.eng.Program() != prog {
		t.Error("readmission rebuilt the full set instead of returning to the one New built")
	}
	if s.Health().Report.served != full {
		t.Error("after readmission the report does not describe the engine's set")
	}

	// A swap that drops the quarantined rule empties the quarantine: the
	// engine runs the set the swap built.
	trip()
	_, defs := mkSystem(t, quarantineSchema, quarantineRules)
	if err := s.SwapRules(ctx, rules.Without(defs, "hostile"), nil); err != nil {
		t.Fatal(err)
	}
	if q := s.Health().Report.Quarantined; len(q) != 0 {
		t.Fatalf("Quarantined = %v after the swap dropped the rule", q)
	}
	if s.eng.Set() != s.full || s.Health().Report.served != s.full {
		t.Error("after the swap the engine or the report is off the swap's set")
	}
}

// cascadeSystem is the rule system of the benchmark's serve_cascade
// workload: a 24-deep chain, 8 unordered fan-out rules on its head, and
// 10 idle bank clusters — 62 rules over 63 tables.
func cascadeSystem() (schemaSrc, rulesSrc string) {
	var sch, rl strings.Builder
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&sch, "table account%d (id int, owner string, balance float)\n", i)
		fmt.Fprintf(&sch, "table audit%d (id int, owner string)\n", i)
		fmt.Fprintf(&sch, "table holds%d (id int, acct int)\n", i)
		fmt.Fprintf(&rl, "create rule r_audit%d on account%d\nwhen inserted\nthen insert into audit%d select id, owner from inserted\n\n", i, i, i)
		fmt.Fprintf(&rl, "create rule r_hold%d on account%d\nwhen updated(balance)\nif exists (select 1 from new-updated nu where nu.balance < 0)\nthen insert into holds%d select nu.id, nu.id from new-updated nu where nu.balance < 0\n\n", i, i, i)
		fmt.Fprintf(&rl, "create rule r_purge%d on account%d\nwhen deleted\nthen delete from holds%d where acct in (select id from deleted)\n\n", i, i, i)
	}
	for i := 0; i <= 24; i++ {
		fmt.Fprintf(&sch, "table c%d (v int)\n", i)
	}
	for j := 0; j < 8; j++ {
		fmt.Fprintf(&sch, "table f%d (v int)\n", j)
	}
	for i := 0; i < 24; i++ {
		fmt.Fprintf(&rl, "create rule chain%02d on c%d\nwhen inserted\nif exists (select 1 from inserted where v >= 0)\nthen insert into c%d select v from inserted\n\n", i, i, i+1)
	}
	for j := 0; j < 8; j++ {
		fmt.Fprintf(&rl, "create rule fan%d on c0\nwhen inserted\nthen insert into f%d select v from inserted where v >= 0\n\n", j, j)
	}
	return sch.String(), rl.String()
}

// BenchmarkServerNew times Server construction over the cascade system
// on an in-memory WAL: set build, baseline analysis, WAL open and the
// engine (compiling the program). Close is outside the timer.
func BenchmarkServerNew(b *testing.B) {
	schemaSrc, rulesSrc := cascadeSystem()
	sch, defs := mkSystem(b, schemaSrc, rulesSrc)
	if n, m := len(defs), len(sch.SortedTables()); n != 62 || m != 63 {
		b.Fatalf("cascade system has %d rules over %d tables, want 62 over 63", n, m)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := New(sch, defs, "wal", Config{WAL: wal.Options{FS: wal.NewMemFS()}})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
