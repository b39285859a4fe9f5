package analysis

import (
	"strings"
	"testing"

	"activerules/internal/rules"
)

func TestUnorderedObservablesNotDeterministic(t *testing.T) {
	// Two unordered observable rules: via the fictional Obs table each
	// reads Obs.c and performs (I, Obs), so they cannot commute
	// (Corollary 8.2's contrapositive).
	a := compile(t, "table t (v int)", `
create rule ra on t when inserted then select v from inserted
create rule rb on t when inserted then select v + 1 from inserted
`, nil)
	v := a.ObservableDeterminism()
	if v.Guaranteed() {
		t.Fatal("unordered observables must not be accepted")
	}
	if len(v.ObservableRules) != 2 {
		t.Errorf("ObservableRules = %v", v.ObservableRules)
	}
	// Sig(Obs) contains both observables.
	if got := strings.Join(v.Partial.SigNames(), ","); got != "ra,rb" {
		t.Errorf("Sig(Obs) = %s", got)
	}
	found := false
	for _, viol := range v.Violations() {
		if (viol.CulpritA == "ra" && viol.CulpritB == "rb") ||
			(viol.CulpritA == "rb" && viol.CulpritB == "ra") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected (ra, rb) violation: %v", v.Violations())
	}
}

func TestOrderedObservablesDeterministic(t *testing.T) {
	a := compile(t, "table t (v int)", `
create rule ra on t when inserted then select v from inserted precedes rb
create rule rb on t when inserted then select v + 1 from inserted
`, nil)
	v := a.ObservableDeterminism()
	if !v.Guaranteed() {
		t.Errorf("ordered observables should be deterministic: %v", v.Violations())
	}
	if got := a.CheckCorollary82(v); len(got) != 0 {
		t.Errorf("corollary 8.2 violated: %v", got)
	}
}

func TestObservableDeterminismRequiresFullTermination(t *testing.T) {
	// Theorem 8.1 requires no infinite paths in any execution graph for
	// R, even when the nonterminating rule is not observable and not in
	// Sig(Obs).
	a := compile(t, "table t (v int)\ntable u (v int)", `
create rule obs1 on t when inserted then select v from inserted
create rule loop on u when inserted then insert into u values (1)
`, nil)
	v := a.ObservableDeterminism()
	if v.Guaranteed() {
		t.Error("nontermination of R must block observable determinism")
	}
	if v.Partial.Confluence.RequirementHolds == false {
		t.Error("the requirement itself holds (single observable)")
	}
	if v.Termination.Guaranteed {
		t.Error("termination verdict should flag the loop")
	}
}

func TestOrthogonalityConfluentNotObservablyDeterministic(t *testing.T) {
	// Confluence and observable determinism are orthogonal (Section 8).
	// Pure unordered SELECT rules: confluent (no writes at all) but not
	// observably deterministic.
	a := compile(t, "table t (v int)", `
create rule ra on t when inserted then select v from inserted
create rule rb on t when inserted then select v + 1 from inserted
`, nil)
	if !a.Confluence().Guaranteed {
		t.Error("pure selects should be confluent")
	}
	if a.ObservableDeterminism().Guaranteed() {
		t.Error("unordered selects should not be observably deterministic")
	}
}

func TestOrthogonalityDeterministicNotConfluent(t *testing.T) {
	// The converse: a scratch race breaks confluence, but the single
	// observable rule is untouched by it: observably deterministic.
	a := compile(t, "table trig (x int)\ntable scratch (v int)\ntable t (v int)", `
create rule rs1 on trig when inserted then update scratch set v = 1
create rule rs2 on trig when inserted then update scratch set v = 2
create rule obs1 on t when inserted then select v from inserted
`, nil)
	if a.Confluence().Guaranteed {
		t.Fatal("scratch race should break confluence")
	}
	v := a.ObservableDeterminism()
	if !v.Guaranteed() {
		t.Errorf("observable stream is unaffected by the scratch race: %v", v.Violations())
	}
	if got := strings.Join(v.Partial.SigNames(), ","); got != "obs1" {
		t.Errorf("Sig(Obs) = %s, want obs1", got)
	}
}

func TestSigObsPullsInInterferingRules(t *testing.T) {
	// A non-observable rule that writes what an observable rule reads
	// joins Sig(Obs); if it races with the observable rule, determinism
	// fails.
	a := compile(t, "table trig (x int)\ntable t (v int)", `
create rule w on trig when inserted then update t set v = 1
create rule obs1 on trig when inserted then select v from t
`, nil)
	v := a.ObservableDeterminism()
	if v.Guaranteed() {
		t.Fatal("w changes what obs1 observes; order matters")
	}
	if got := strings.Join(v.Partial.SigNames(), ","); got != "obs1,w" {
		t.Errorf("Sig(Obs) = %s, want obs1,w", got)
	}
	// Ordering the two restores determinism.
	a2 := compile(t, "table trig (x int)\ntable t (v int)", `
create rule w on trig when inserted then update t set v = 1 precedes obs1
create rule obs1 on trig when inserted then select v from t
`, nil)
	if !a2.ObservableDeterminism().Guaranteed() {
		t.Error("ordered pair should be deterministic")
	}
}

func TestRollbackIsObservable(t *testing.T) {
	a := compile(t, "table t (v int)", `
create rule guard on t when inserted then rollback
create rule audit on t when inserted then select v from inserted
`, nil)
	v := a.ObservableDeterminism()
	if len(v.ObservableRules) != 2 {
		t.Errorf("both rules are observable: %v", v.ObservableRules)
	}
	if v.Guaranteed() {
		t.Error("unordered rollback vs select must not be deterministic")
	}
}

func TestFreshObsNameAvoidsCollision(t *testing.T) {
	a := compile(t, "table obs (v int)", `
create rule r on obs when inserted then select v from inserted
`, nil)
	v := a.ObservableDeterminism()
	if v.ObsTable == "obs" {
		t.Error("Obs name must not collide with a schema table")
	}
	if !strings.Contains(v.ObsTable, "obs") {
		t.Errorf("ObsTable = %q", v.ObsTable)
	}
}

func TestObservableReportRendering(t *testing.T) {
	a := compile(t, "table t (v int)", `
create rule ra on t when inserted then select v from inserted
create rule rb on t when inserted then select v + 1 from inserted
`, nil)
	out := ReportObservable(a.ObservableDeterminism())
	for _, want := range []string{"OBSERVABLE DETERMINISM", "may not", "observable rules", "Sig"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	a2 := compile(t, "table t (v int)", `
create rule ra on t when inserted then select v from inserted precedes rb
create rule rb on t when inserted then select v + 1 from inserted
`, nil)
	if !strings.Contains(ReportObservable(a2.ObservableDeterminism()), "guaranteed") {
		t.Error("positive report missing 'guaranteed'")
	}
}

// TestObservableViewSharesGraph: the Obs view an observable analysis
// derives from an analyzer that has built nothing yet (refinement off)
// uses the analyzer's triggering graph, not one of its own.
func TestObservableViewSharesGraph(t *testing.T) {
	g := verdictWorkload(t, 7, 24)
	a := New(g.Set, nil)
	var views []*Analyzer
	a.computeHook = func(view *Analyzer, lo, hi *rules.Rule) {
		if view != a {
			views = append(views, view)
		}
	}
	a.ObservableDeterminism()
	if len(views) == 0 {
		t.Fatal("the observable analysis examined no pair on its Obs view")
	}
	if a.tg == nil || views[0].tg != a.tg {
		t.Errorf("the Obs view's triggering graph (%p) is not the analyzer's (%p)", views[0].tg, a.tg)
	}
}
