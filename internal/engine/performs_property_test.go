package engine

// Links the static Section 3 sets to runtime behavior: whatever a rule's
// action actually does during processing must be covered by its static
// Performs set. This is the soundness assumption every analysis builds
// on (Lemma 4.1: "There is some set of operations O' ⊆ Performs(r)...").

import (
	"math/rand"
	"testing"

	"activerules/internal/transition"
	"activerules/internal/workload"
)

func TestPerformsCoversRuntimeActions(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		g, err := workload.Generate(workload.Config{
			Seed: seed, Rules: 6, Tables: 4, Acyclic: true,
			UpdateFrac: 0.35, DeleteFrac: 0.2, ConditionFrac: 0.4,
			WriteFanout: 2, TransRefFrac: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		db := workload.SeedDatabase(g.Schema, 2)
		e := New(g.Set, db, Options{})
		rng := rand.New(rand.NewSource(seed + 1000))
		if _, err := e.ExecUser(workload.UserScript(g.Schema, rng, 2)); err != nil {
			t.Fatal(err)
		}
		e.BeginAssert()
		steps := 0
		for steps < 200 {
			eligible := e.EligibleRules()
			if len(eligible) == 0 {
				break
			}
			r := eligible[rng.Intn(len(eligible))]
			before := e.db.HistoryLen()
			fired, _, rolled, err := e.Consider(r)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if rolled {
				break
			}
			// Every net operation of the action must be in Performs(r);
			// an unfired rule must have performed nothing.
			for _, table := range g.Schema.TableNames() {
				actionNet := transition.ComputeTable(e.db, before, e.db.Table(table), &transition.Scratch{}, nil)
				for op := range netOps(actionNet.Table(table)) {
					if !fired {
						t.Fatalf("seed %d: rule %s did not fire but performed %s", seed, r.Name, op)
					}
					if !r.Performs().Contains(op) {
						t.Fatalf("seed %d: rule %s performed %s outside its static Performs %s",
							seed, r.Name, op, r.Performs())
					}
				}
			}
			steps++
		}
	}
}

// TestTriggeredNeverEligibleWithHigherTriggered validates the Choose
// discipline at runtime: no considered rule ever coexists in the
// eligible set with a higher-priority triggered rule.
func TestChooseDisciplineAtRuntime(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		g, err := workload.Generate(workload.Config{
			Seed: seed, Rules: 6, Tables: 4, Acyclic: true,
			UpdateFrac: 0.3, PriorityDensity: 0.5, ConditionFrac: 0.3,
		})
		if err != nil {
			t.Fatal(err)
		}
		db := workload.SeedDatabase(g.Schema, 2)
		e := New(g.Set, db, Options{})
		rng := rand.New(rand.NewSource(seed))
		if _, err := e.ExecUser(workload.UserScript(g.Schema, rng, 2)); err != nil {
			t.Fatal(err)
		}
		e.BeginAssert()
		for steps := 0; steps < 100; steps++ {
			triggered := e.TriggeredRules()
			eligible := e.EligibleRules()
			if len(eligible) == 0 {
				break
			}
			for _, el := range eligible {
				for _, tr := range triggered {
					if tr != el && g.Set.Higher(tr, el) {
						t.Fatalf("seed %d: eligible %s has higher triggered %s", seed, el.Name, tr.Name)
					}
				}
			}
			if _, _, rolled, err := e.Consider(eligible[0]); err != nil || rolled {
				break
			}
		}
	}
}
