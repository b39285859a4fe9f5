package analysis

import (
	"testing"

	"activerules/internal/workload"
)

func TestAutoRepairSimpleRace(t *testing.T) {
	a := compile(t, "table trig (x int)\ntable t (v int)", `
create rule ri on trig when inserted then update t set v = 1
create rule rj on trig when inserted then update t set v = 2
`, nil)
	plan, err := a.AutoRepair(0)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Succeeded() {
		t.Fatalf("repair failed: %+v", plan.Final)
	}
	if len(plan.Orderings) != 1 || plan.Orderings[0] != [2]string{"ri", "rj"} {
		t.Errorf("Orderings = %v", plan.Orderings)
	}
	if !plan.Repaired.Higher(plan.Repaired.Rule("ri"), plan.Repaired.Rule("rj")) {
		t.Error("ordering not applied to the repaired set")
	}
}

func TestAutoRepairMovingViolations(t *testing.T) {
	// Three mutually racing rules: the paper's warning in action — fixing
	// one pair surfaces the next. The loop must converge anyway.
	a := compile(t, "table trig (x int)\ntable t (v int)", `
create rule ra on trig when inserted then update t set v = 1
create rule rb on trig when inserted then update t set v = 2
create rule rc on trig when inserted then update t set v = 3
`, nil)
	plan, err := a.AutoRepair(0)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Succeeded() {
		t.Fatal("repair should converge")
	}
	if len(plan.Orderings) != 3 {
		t.Errorf("expected 3 orderings for a 3-clique, got %v", plan.Orderings)
	}
	if plan.Rounds < 3 {
		t.Errorf("Rounds = %d, expected iterative repair", plan.Rounds)
	}
}

func TestAutoRepairCannotFixTermination(t *testing.T) {
	a := compile(t, "table t (v int)", `
create rule loop on t when inserted then insert into t values (1)
`, nil)
	plan, err := a.AutoRepair(0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Succeeded() {
		t.Error("nontermination cannot be repaired by orderings")
	}
	if !plan.Final.RequirementHolds {
		t.Error("the requirement itself holds (no pairs)")
	}
}

func TestAutoRepairAlreadyConfluent(t *testing.T) {
	a := compile(t, "table t (v int)\ntable a (v int)\ntable b (v int)", `
create rule ra on t when inserted then insert into a values (1)
create rule rb on t when inserted then insert into b values (1)
`, nil)
	plan, err := a.AutoRepair(0)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Succeeded() || len(plan.Orderings) != 0 || plan.Rounds != 1 {
		t.Errorf("already-confluent set should need no repairs: %+v", plan)
	}
}

func TestAutoRepairRandomWorkloads(t *testing.T) {
	// The loop must converge on arbitrary acyclic workloads, and the
	// repaired set must satisfy the requirement.
	for seed := int64(0); seed < 25; seed++ {
		g := workload.MustGenerate(workload.Config{
			Seed: seed, Rules: 7, Tables: 4, Acyclic: true,
			UpdateFrac: 0.4, DeleteFrac: 0.15, ConditionFrac: 0.3,
			PriorityDensity: 0.1,
		})
		a := New(g.Set, nil)
		plan, err := a.AutoRepair(0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !plan.Final.RequirementHolds {
			t.Fatalf("seed %d: requirement still failing after repair", seed)
		}
		// Acyclic generation + orderings: full confluence must follow.
		if !plan.Succeeded() {
			t.Fatalf("seed %d: acyclic set should be fully repairable", seed)
		}
	}
}

func TestAutoRepairRespectsCertifications(t *testing.T) {
	// A certified-commutative pair must not get an ordering.
	cert := NewCertification().CertifyCommutes("ri", "rj")
	a := compile(t, "table trig (x int)\ntable t (v int)", `
create rule ri on trig when inserted then update t set v = 1
create rule rj on trig when inserted then update t set v = 2
`, cert)
	plan, err := a.AutoRepair(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Orderings) != 0 {
		t.Errorf("certified pair needed no ordering: %v", plan.Orderings)
	}
	if !plan.Succeeded() {
		t.Error("certified set should be confluent")
	}
}

// TestAutoRepairKeepsRefinement: every round analyzes under the
// refinement the caller enabled. The lintdemo fixture is confluent only
// under refinement (TestRefinementConfluence); two racing rules added to
// it need exactly one ordering. An analyzer that drops refinement after
// the first round orders the fixture's refined-to-commute pairs too.
func TestAutoRepairKeepsRefinement(t *testing.T) {
	sch, rls := fixtureSources(t, "lintdemo")
	a := compile(t, sch, rls+`
create rule x1 on log when deleted then update log set note = 'a' where id > 0
create rule x2 on log when deleted then update log set note = 'b' where id > 0
`, nil).SetRefinement(true)
	plan, err := a.AutoRepair(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Orderings) != 1 || plan.Orderings[0] != [2]string{"x1", "x2"} {
		t.Errorf("Orderings = %v, want [[x1 x2]]", plan.Orderings)
	}
	if !plan.Succeeded() {
		t.Errorf("repair under refinement should succeed: %+v", plan.Final)
	}
}
