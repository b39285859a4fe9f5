package analysis

// Tests for the Section 9 future-work extensions implemented here:
// restricted user operations, and partitioned analysis.

import (
	"strings"
	"testing"

	"activerules/internal/schema"
)

const extSchema = `
table a (v int)
table b (v int)
table c (v int)
table d (v int)
`

// extRules: a cyclic pair on (a, b); an independent safe rule on (c, d).
const extRules = `
create rule r_ab on a when inserted then insert into b values (1)
create rule r_ba on b when inserted then insert into a values (1)
create rule r_cd on c when inserted then insert into d values (1)
`

func TestReachableRules(t *testing.T) {
	a := compile(t, extSchema, extRules, nil)
	// Only inserts on c: the (a, b) cycle is unreachable.
	reach := a.ReachableRules(schema.NewOpSet(schema.Insert("c")))
	if got := strings.Join(ruleNames(reach), ","); got != "r_cd" {
		t.Errorf("reachable = %s, want r_cd", got)
	}
	// Inserts on a reach both cycle rules transitively.
	reach2 := a.ReachableRules(schema.NewOpSet(schema.Insert("a")))
	if got := strings.Join(ruleNames(reach2), ","); got != "r_ab,r_ba" {
		t.Errorf("reachable = %s, want r_ab,r_ba", got)
	}
	// Updates on a trigger nothing (rules are insert-triggered).
	if n := len(a.ReachableRules(schema.NewOpSet(schema.Update("a", "v")))); n != 0 {
		t.Errorf("update-only workload should reach 0 rules, got %d", n)
	}
}

func TestAnalyzeRestricted(t *testing.T) {
	a := compile(t, extSchema, extRules, nil)
	// Unrestricted: the cycle blocks termination.
	if a.Termination().Guaranteed {
		t.Fatal("full set has a cycle")
	}
	// Restricted to inserts on c: everything reachable is safe.
	v := a.AnalyzeRestricted(schema.NewOpSet(schema.Insert("c")))
	if !v.Termination.Guaranteed {
		t.Error("restricted termination should hold")
	}
	if !v.Confluence.Guaranteed {
		t.Errorf("restricted confluence should hold: %v", v.Confluence.Violations)
	}
	if !v.Observable.Guaranteed() {
		t.Error("no observables: restricted observable determinism should hold")
	}
	if got := strings.Join(v.ReachableNames(), ","); got != "r_cd" {
		t.Errorf("ReachableNames = %s", got)
	}
	// Restricted to inserts on a: the cycle is reachable; still flagged.
	v2 := a.AnalyzeRestricted(schema.NewOpSet(schema.Insert("a")))
	if v2.Termination.Guaranteed {
		t.Error("cycle reachable: termination must not be guaranteed")
	}
	// Restricted to updates on a: no rule is reachable, and the empty set
	// terminates, so all three verdicts hold however cyclic the rest is.
	v3 := a.AnalyzeRestricted(schema.NewOpSet(schema.Update("a", "v")))
	if len(v3.Reachable) != 0 || !v3.Termination.Guaranteed || !v3.Confluence.Guaranteed || !v3.Observable.Guaranteed() {
		t.Errorf("no reachable rule: reachable %v, termination %v, confluence %v, observable %v",
			v3.ReachableNames(), v3.Termination.Guaranteed, v3.Confluence.Guaranteed, v3.Observable.Guaranteed())
	}
}

func TestAnalyzeRestrictedObservables(t *testing.T) {
	// Two unordered observable rules on different tables: unrestricted,
	// observable determinism fails; restricted to one table's inserts,
	// only one observable is reachable and determinism holds.
	src := `
create rule obs_a on a when inserted then select v from inserted
create rule obs_b on b when inserted then select v from inserted
`
	an := compile(t, extSchema, src, nil)
	if an.ObservableDeterminism().Guaranteed() {
		t.Fatal("unrestricted: two unordered observables must fail")
	}
	v := an.AnalyzeRestricted(schema.NewOpSet(schema.Insert("a")))
	if !v.Observable.Guaranteed() {
		t.Errorf("only obs_a reachable: determinism should hold: %v", v.Observable.Violations())
	}
	// Both tables restore the conflict.
	v2 := an.AnalyzeRestricted(schema.NewOpSet(schema.Insert("a"), schema.Insert("b")))
	if v2.Observable.Guaranteed() {
		t.Error("both observables reachable: determinism must fail")
	}
}

func TestPartition(t *testing.T) {
	a := compile(t, extSchema, extRules, nil)
	parts := a.Partition()
	if len(parts) != 2 {
		t.Fatalf("partitions = %d, want 2", len(parts))
	}
	if got := strings.Join(ruleNames(parts[0]), ","); got != "r_ab,r_ba" {
		t.Errorf("partition 0 = %s", got)
	}
	if got := strings.Join(ruleNames(parts[1]), ","); got != "r_cd" {
		t.Errorf("partition 1 = %s", got)
	}
}

func TestPartitionJoinsOnReadsAndPriorities(t *testing.T) {
	// r1 writes a; r2 reads a in its condition (shared table). r3 is
	// table-disjoint from both but priority-ordered against r2: all
	// three must share a partition.
	a := compile(t, extSchema, `
create rule r1 on a when inserted then update a set v = 1
create rule r2 on b when inserted if exists (select 1 from a where v > 0) then insert into b values (2)
create rule r3 on c when inserted then insert into d values (1) precedes r2
`, nil)
	parts := a.Partition()
	if len(parts) != 1 {
		t.Fatalf("partitions = %d, want 1 (reads and priorities join)", len(parts))
	}
}

func TestPartitionedConfluenceMatchesGlobal(t *testing.T) {
	// The combined partitioned verdict must agree with the global
	// analysis on both accepted and rejected sets.
	cases := []struct {
		name  string
		rules string
	}{
		{"accepted", `
create rule r1 on a when inserted then insert into b values (1)
create rule r2 on c when inserted then insert into d values (1)
`},
		{"rejected", `
create rule r1 on a when inserted then update b set v = 1
create rule r2 on a when inserted then update b set v = 2
create rule r3 on c when inserted then insert into d values (1)
`},
	}
	for _, c := range cases {
		an := compile(t, extSchema, c.rules, nil)
		global := an.Confluence()
		combined, per := an.PartitionedConfluence()
		if combined.Guaranteed != global.Guaranteed {
			t.Errorf("%s: combined=%v global=%v", c.name, combined.Guaranteed, global.Guaranteed)
		}
		if len(per) == 0 {
			t.Errorf("%s: no per-partition verdicts", c.name)
		}
		// Cross-partition pairs commute trivially; the partitioned
		// analysis may check strictly fewer pairs.
		if combined.PairsChecked > global.PairsChecked {
			t.Errorf("%s: partitioning increased pair checks (%d > %d)",
				c.name, combined.PairsChecked, global.PairsChecked)
		}
	}
}
