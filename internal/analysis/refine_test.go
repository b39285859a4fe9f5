package analysis

import (
	"strings"
	"testing"
)

// loadFixture compiles the shipped lintdemo fixture, the acceptance
// vehicle for condition-aware refinement.
func loadFixture(t *testing.T, cert *Certification) *Analyzer {
	return New(fixtureSet(t, "lintdemo"), cert)
}

// TestRefinementPrunesFalseCycle is the first acceptance criterion: the
// fixture's r_ping/r_pong cycle (and r_selfcap's self-loop) is real in
// the syntactic graph and provably infeasible under refinement.
func TestRefinementPrunesFalseCycle(t *testing.T) {
	raw := loadFixture(t, nil)
	rv := raw.Termination()
	if rv.Guaranteed {
		t.Fatal("raw analysis must NOT guarantee termination (syntactic cycles exist)")
	}
	if len(rv.CyclicSCCs) != 2 {
		t.Fatalf("raw CyclicSCCs = %d, want 2 (ping/pong and selfcap)", len(rv.CyclicSCCs))
	}

	ref := loadFixture(t, nil).SetRefinement(true)
	fv := ref.Termination()
	if !fv.Guaranteed {
		t.Fatalf("refined analysis must guarantee termination; cyclic: %v", fv.CyclicSCCs)
	}
	if !fv.Refined {
		t.Error("verdict should be marked Refined")
	}
	wantEdges := [][2]string{
		{"r_hi", "r_selfcap"},
		{"r_low", "r_selfcap"},
		{"r_ping", "r_pong"},
		{"r_pong", "r_ping"},
		{"r_selfcap", "r_selfcap"},
	}
	if len(fv.PrunedEdges) != len(wantEdges) {
		t.Fatalf("PrunedEdges = %v, want %d edges", fv.PrunedEdges, len(wantEdges))
	}
	for i, pe := range fv.PrunedEdges {
		if pe.From != wantEdges[i][0] || pe.To != wantEdges[i][1] {
			t.Errorf("pruned[%d] = %s->%s, want %s->%s", i, pe.From, pe.To, wantEdges[i][0], wantEdges[i][1])
		}
		if pe.Why == "" {
			t.Errorf("pruned[%d] lacks justification", i)
		}
	}
	if len(fv.RefinementDischarged) != 1 || fv.RefinementDischarged[0].Rule != "r_dead" {
		t.Errorf("RefinementDischarged = %v, want [r_dead]", fv.RefinementDischarged)
	}
}

// TestRefinementUpgradesCommute is the second acceptance criterion: the
// (r_low, r_hi) pair fails Lemma 6.1 syntactically (both update v.flag)
// and is upgraded to "commutes" by the disjoint-scope discharge.
func TestRefinementUpgradesCommute(t *testing.T) {
	raw := loadFixture(t, nil)
	set := raw.Set()
	lo, hi := set.Rule("r_low"), set.Rule("r_hi")
	if ok, reasons := raw.Commute(lo, hi); ok || len(reasons) == 0 {
		t.Fatalf("raw verdict must be noncommutative with reasons; ok=%v reasons=%v", ok, reasons)
	}

	ref := loadFixture(t, nil).SetRefinement(true)
	set = ref.Set()
	if ok, reasons := ref.Commute(set.Rule("r_low"), set.Rule("r_hi")); !ok {
		t.Fatalf("refined verdict must commute; reasons=%v", reasons)
	}
	ups := ref.Upgrades()
	found := false
	for _, up := range ups {
		if up.A == "r_low" && up.B == "r_hi" {
			found = true
			if len(up.Why) == 0 {
				t.Error("upgrade lacks justifications")
			}
		}
	}
	if !found {
		t.Errorf("no (r_low, r_hi) upgrade recorded: %v", ups)
	}
}

// TestRefinementConfluence: the fixture is confluent only under
// refinement, and the verdict carries the upgrades.
func TestRefinementConfluence(t *testing.T) {
	raw := loadFixture(t, nil)
	if rv := raw.Confluence(); rv.Guaranteed {
		t.Fatal("raw analysis must not certify confluence")
	}
	ref := loadFixture(t, nil).SetRefinement(true)
	fv := ref.Confluence()
	if !fv.Guaranteed {
		t.Fatalf("refined analysis must certify confluence; violations: %v", fv.Violations)
	}
	if len(fv.Upgrades) != 2 {
		t.Fatalf("Upgrades = %v, want 2 (r_low/r_hi and r_ping/r_stamp)", fv.Upgrades)
	}
}

// TestSetRefinementToggle: turning refinement off restores the raw
// verdicts (the verdict table must start over both ways).
func TestSetRefinementToggle(t *testing.T) {
	a := loadFixture(t, nil)
	set := a.Set()
	lo, hi := set.Rule("r_low"), set.Rule("r_hi")
	a.SetRefinement(true)
	if ok, _ := a.Commute(lo, hi); !ok {
		t.Fatal("refined: pair should commute")
	}
	if !a.Refined() {
		t.Error("Refined() should report true")
	}
	a.SetRefinement(false)
	if ok, _ := a.Commute(lo, hi); ok {
		t.Fatal("raw again: pair should not commute")
	}
	if a.Termination().Refined {
		t.Error("verdict should not be marked Refined after disable")
	}
}

// TestRefinementDeterministic: pruned edges, upgrades, and reports are
// byte-identical across fresh analyzers and across repeated runs on one.
func TestRefinementDeterministic(t *testing.T) {
	render := func(a *Analyzer) string {
		tv := a.Termination()
		cv := a.Confluence()
		return ReportTermination(tv) + ReportConfluence(cv)
	}
	a := loadFixture(t, nil).SetRefinement(true)
	first := render(a)
	if !strings.Contains(first, "pruned edge") || !strings.Contains(first, "refined to commute") {
		t.Fatalf("report missing refined sections:\n%s", first)
	}
	for i := 0; i < 3; i++ {
		if got := render(loadFixture(t, nil).SetRefinement(true)); got != first {
			t.Fatalf("run %d differs:\ngot:\n%s\nwant:\n%s", i, got, first)
		}
	}
	if got := render(a); got != first {
		t.Fatalf("a second run on one analyzer differs:\ngot:\n%s\nwant:\n%s", got, first)
	}
}

// TestRefinementOnBankFixture: the bank rule set has no statically
// refutable edges (its scopes flow through IN-subqueries the domain
// cannot bound), so refinement must change nothing — a guard against
// overeager pruning on realistic rules.
func TestRefinementOnBankFixture(t *testing.T) {
	set := fixtureSet(t, "bank")
	raw, ref := New(set, nil), New(set, nil).SetRefinement(true)
	rv, fv := raw.Termination(), ref.Termination()
	if rv.Guaranteed != fv.Guaranteed {
		t.Errorf("termination changed: raw=%v refined=%v", rv.Guaranteed, fv.Guaranteed)
	}
	if len(fv.PrunedEdges) != 0 {
		t.Errorf("unexpected pruning on bank: %v", fv.PrunedEdges)
	}
	if len(fv.RefinementDischarged) != 0 {
		t.Errorf("unexpected discharges on bank: %v", fv.RefinementDischarged)
	}
}
