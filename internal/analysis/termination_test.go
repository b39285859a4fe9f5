package analysis

import (
	"reflect"
	"strings"
	"testing"

	"activerules/internal/rules"
)

func TestTerminationAcyclicChain(t *testing.T) {
	a := compile(t, "table t (v int)\ntable u (v int)\ntable w (v int)", `
create rule r1 on t when inserted then insert into u values (1)
create rule r2 on u when inserted then insert into w values (1)
`, nil)
	v := a.Termination()
	if !v.Guaranteed {
		t.Errorf("acyclic chain should terminate: %+v", v.CyclicSCCs)
	}
	g := v.Graph
	set := a.Set()
	if !g.HasEdge(set.Rule("r1"), set.Rule("r2")) {
		t.Error("edge r1 -> r2 missing")
	}
	if g.HasEdge(set.Rule("r2"), set.Rule("r1")) {
		t.Error("edge r2 -> r1 should not exist")
	}
	if g.EdgeCount() != 1 {
		t.Errorf("EdgeCount = %d, want 1", g.EdgeCount())
	}
}

func TestTerminationSelfLoop(t *testing.T) {
	a := compile(t, "table t (v int)", `
create rule r on t when inserted then insert into t values (1)
`, nil)
	v := a.Termination()
	if v.Guaranteed {
		t.Error("self-triggering inserter may not terminate")
	}
	if len(v.CyclicSCCs) != 1 || len(v.CyclicSCCs[0]) != 1 {
		t.Fatalf("CyclicSCCs = %v", v.CyclicSCCs)
	}
	if len(v.SampleCycles) != 1 || v.SampleCycles[0][0].Name != "r" {
		t.Errorf("SampleCycles = %v", v.SampleCycles)
	}
}

func TestTerminationTwoRuleCycle(t *testing.T) {
	a := compile(t, "table t (v int)\ntable u (v int)", `
create rule r1 on t when inserted then insert into u values (1)
create rule r2 on u when inserted then insert into t values (1)
`, nil)
	v := a.Termination()
	if v.Guaranteed {
		t.Error("mutual inserters may not terminate")
	}
	if len(v.CyclicSCCs) != 1 || len(v.CyclicSCCs[0]) != 2 {
		t.Fatalf("CyclicSCCs = %v", v.CyclicSCCs)
	}
	cyc := ruleNames(v.SampleCycles[0])
	if len(cyc) != 2 {
		t.Errorf("sample cycle = %v", cyc)
	}
}

func TestAutoDischargeDeleteOnly(t *testing.T) {
	// r1 only deletes from u, and nothing in the component inserts into
	// u: the paper's first special case. The cycle r1 -> r2 -> r1 is
	// discharged automatically.
	a := compile(t, "table t (v int)\ntable u (v int)", `
create rule r1 on t when updated(v) then delete from u
create rule r2 on u when deleted then update t set v = 0
`, nil)
	v := a.Termination()
	if !v.Guaranteed {
		t.Errorf("delete-only cycle should be auto-discharged: %v", v.CyclicSCCs)
	}
	if len(v.AutoDischarged) != 1 || v.AutoDischarged[0] != "r1" {
		t.Errorf("AutoDischarged = %v", v.AutoDischarged)
	}
}

func TestAutoDischargeBlockedByInserter(t *testing.T) {
	// Same shape, but r2 also re-inserts into u: r1's deletions can be
	// refilled, so the discharge must NOT fire.
	a := compile(t, "table t (v int)\ntable u (v int)", `
create rule r1 on t when updated(v) then delete from u
create rule r2 on u when deleted then update t set v = 0; insert into u values (1)
`, nil)
	v := a.Termination()
	if v.Guaranteed {
		t.Error("refilled delete-only cycle must not be discharged")
	}
	if len(v.AutoDischarged) != 0 {
		t.Errorf("AutoDischarged = %v", v.AutoDischarged)
	}
}

func TestUserDischarge(t *testing.T) {
	// A self-disabling pattern the syntactic monotonicity detector
	// cannot prove (multiplicative growth): the user verifies it and
	// discharges the rule (Section 5's interactive process).
	const src = `
create rule grow on t when updated(v) if exists (select 1 from t where v < 10) then update t set v = v * 2 where v < 10 and v > 0
`
	cert := NewCertification().DischargeRule("grow")
	a := compile(t, "table t (v int)", src, cert)
	v := a.Termination()
	if !v.Guaranteed {
		t.Error("user discharge should break the self-loop")
	}
	if len(v.UserDischarged) != 1 || v.UserDischarged[0] != "grow" {
		t.Errorf("UserDischarged = %v", v.UserDischarged)
	}
	// Without the discharge it is flagged.
	a2 := compile(t, "table t (v int)", src, nil)
	if a2.Termination().Guaranteed {
		t.Error("without discharge the self-loop must be flagged")
	}
}

func TestAutoDischargeMonotonic(t *testing.T) {
	// The additive bounded pattern IS automated (Section 5's second
	// special case): update v = v + 1 where v < 10.
	a := compile(t, "table t (v int)", `
create rule bump on t when updated(v) if exists (select 1 from t where v < 10) then update t set v = v + 1 where v < 10
`, nil)
	v := a.Termination()
	if !v.Guaranteed {
		t.Errorf("bounded increment should be auto-discharged: %v", v.CyclicSCCs)
	}
	if len(v.AutoDischarged) != 1 || v.AutoDischarged[0] != "bump" {
		t.Errorf("AutoDischarged = %v", v.AutoDischarged)
	}
	// Decrement form with the matching bound.
	a2 := compile(t, "table t (v int)", `
create rule drop on t when updated(v) then update t set v = v - 2 where v > 0
`, nil)
	if !a2.Termination().Guaranteed {
		t.Error("bounded decrement should be auto-discharged")
	}
	// Wrong-direction bound must NOT discharge (v grows away from it).
	a3 := compile(t, "table t (v int)", `
create rule runaway on t when updated(v) then update t set v = v + 1 where v > 0
`, nil)
	if a3.Termination().Guaranteed {
		t.Error("unbounded increment must stay flagged")
	}
	// No bound at all.
	a4 := compile(t, "table t (v int)", `
create rule free on t when updated(v) then update t set v = v + 1
`, nil)
	if a4.Termination().Guaranteed {
		t.Error("boundless update must stay flagged")
	}
	// Another rule writing the same column blocks the discharge.
	a5 := compile(t, "table t (v int)\ntable u (x int)", `
create rule bump on t when updated(v) then update t set v = v + 1 where v < 10
create rule reset on u when inserted then update t set v = 0
`, nil)
	v5 := a5.Termination()
	// reset is not even in bump's component (nothing triggers it), but
	// the tier-2 interference check is deliberately global: any
	// undischarged rule that can rewind the ranked column blocks the
	// certificate, reachable or not (conservative, but safe — see the
	// downstream-replenisher tests for why SCC-local checks are wrong).
	if v5.Guaranteed {
		t.Error("an out-of-component resetter must block the ranking discharge")
	}
	a6 := compile(t, "table t (v int)\ntable u (x int)", `
create rule bump on t when updated(v) then update t set v = v + 1 where v < 10; insert into u values (1)
create rule reset on u when inserted then update t set v = 0
`, nil)
	v6 := a6.Termination()
	if v6.Guaranteed {
		t.Error("a same-component resetter must block the monotonic discharge")
	}
	// Inserters into the table also block it (fresh rows below the bound).
	a7 := compile(t, "table t (v int)\ntable u (x int)", `
create rule bump on t when updated(v) then update t set v = v + 1 where v < 10; insert into u values (1)
create rule feed on u when inserted then insert into t values (0)
`, nil)
	if a7.Termination().Guaranteed {
		t.Error("a same-component inserter must block the monotonic discharge")
	}
}

func TestEdgeDischarge(t *testing.T) {
	// Two-rule cycle; the user verifies that r2's inserts into t never
	// actually satisfy r1's condition side (edge r2 -> r1 dead), which
	// breaks the cycle without removing either rule.
	const src = `
create rule r1 on t when inserted if exists (select 1 from inserted where v > 100) then insert into u values (1)
create rule r2 on u when inserted then insert into t values (1)
`
	a := compile(t, "table t (v int)\ntable u (v int)", src, nil)
	if a.Termination().Guaranteed {
		t.Fatal("cycle must be flagged without the discharge")
	}
	cert := NewCertification().DischargeEdge("r2", "r1")
	a2 := compile(t, "table t (v int)\ntable u (v int)", src, cert)
	v := a2.Termination()
	if !v.Guaranteed {
		t.Errorf("edge discharge should break the cycle: %v", v.CyclicSCCs)
	}
	// The verdict's graph reflects the removal.
	set := a2.Set()
	if v.Graph.HasEdge(set.Rule("r2"), set.Rule("r1")) {
		t.Error("discharged edge still present in the verdict graph")
	}
	if !v.Graph.HasEdge(set.Rule("r1"), set.Rule("r2")) {
		t.Error("other direction must remain")
	}
	// Discharging the WRONG direction leaves the cycle.
	cert3 := NewCertification().DischargeEdge("r1", "r2")
	a3 := compile(t, "table t (v int)\ntable u (v int)", src, cert3)
	if !a3.Termination().Guaranteed {
		t.Log("r1->r2 discharge also breaks this 2-cycle (expected: any edge on the cycle works)")
	}
	// Certification bookkeeping.
	if !cert.EdgeDischarged("R2", "r1") || cert.EdgeDischarged("r1", "r2") {
		t.Error("EdgeDischarged lookup wrong")
	}
	if got := cert.DischargedEdges(); len(got) != 1 || got[0] != [2]string{"r2", "r1"} {
		t.Errorf("DischargedEdges = %v", got)
	}
	cl := cert.Clone()
	if !cl.EdgeDischarged("r2", "r1") {
		t.Error("Clone lost edge discharges")
	}
}

func TestTerminationOfSubset(t *testing.T) {
	// r1 and r2 form a cycle; r3 is independent. The subset {r3}
	// terminates on its own even though R does not — the property needed
	// by partial confluence (footnote 7 of Section 7).
	a := compile(t, "table t (v int)\ntable u (v int)\ntable w (v int)", `
create rule r1 on t when inserted then insert into u values (1)
create rule r2 on u when inserted then insert into t values (1)
create rule r3 on w when inserted then delete from w where v < 0
`, nil)
	if a.Termination().Guaranteed {
		t.Fatal("full set has a cycle")
	}
	set := a.Set()
	if v := a.TerminationOf([]*rules.Rule{set.Rule("r3")}); !v.Guaranteed {
		t.Error("subset {r3} should terminate on its own")
	}
	if v := a.TerminationOf([]*rules.Rule{set.Rule("r1"), set.Rule("r2")}); v.Guaranteed {
		t.Error("subset {r1, r2} keeps the cycle")
	}
	if v := a.TerminationOf([]*rules.Rule{set.Rule("r1")}); !v.Guaranteed {
		t.Error("subset {r1} alone has no cycle (the r1->r2 edge leaves the subset)")
	}
}

func TestSampleCycleReportRendering(t *testing.T) {
	a := compile(t, "table t (v int)\ntable u (v int)", `
create rule r1 on t when inserted then insert into u values (1)
create rule r2 on u when inserted then insert into t values (1)
`, nil)
	out := ReportTermination(a.Termination())
	for _, want := range []string{"may not terminate", "cyclic component 1", "sample cycle", "discharge"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	a2 := compile(t, "table t (v int)\ntable u (v int)", `
create rule r on t when inserted then insert into u values (1)
`, nil)
	if !strings.Contains(ReportTermination(a2.Termination()), "guaranteed") {
		t.Error("positive report missing 'guaranteed'")
	}
}

// sameTermination compares two verdicts field for field, the graph by
// its edges: a reordered analyzer keeps the graph it was derived with,
// whose Set is the rule set before the new priorities.
func sameTermination(got, want *TerminationVerdict) bool {
	g, w := *got, *want
	if !reflect.DeepEqual(g.Graph.adj, w.Graph.adj) {
		return false
	}
	g.Graph, w.Graph = nil, nil
	return reflect.DeepEqual(g, w)
}

// TestTerminationMemoLifetime: an analyzer's termination memo starts
// over exactly when its verdict table does. After SetRefinement
// on→off→on, and after AutoRepair's reordering steps, Termination()
// equals a fresh analyzer's.
func TestTerminationMemoLifetime(t *testing.T) {
	for _, name := range []string{"bank", "countdown", "lintdemo"} {
		set := fixtureSet(t, name)
		a := New(set, nil)
		for _, on := range []bool{true, false, true} {
			got := a.SetRefinement(on).Termination()
			if want := New(set, nil).SetRefinement(on).Termination(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: after SetRefinement(%v), Termination() =\n%+v\nwant\n%+v", name, on, got, want)
			}
		}
		for _, on := range []bool{false, true} {
			plan, err := New(set, nil).SetRefinement(on).AutoRepair(0)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(plan.Orderings) == 0 {
				continue
			}
			got, want := plan.Final.Termination, New(plan.Repaired, nil).SetRefinement(on).Termination()
			if !sameTermination(got, want) {
				t.Errorf("%s (refine %v): after %d orderings, Termination() =\n%+v\nwant\n%+v", name, on, len(plan.Orderings), got, want)
			}
		}
	}
}
