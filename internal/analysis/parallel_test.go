package analysis

// Metamorphic tests for the pairwise passes: every verdict is a function
// of the rule set alone. A fresh analyzer, one whose verdict table other
// passes have already filled in their own order, and a second run on
// the same analyzer all answer alike.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"activerules/internal/workload"
)

func metamorphicWorkloads(t *testing.T) []*workload.Generated {
	t.Helper()
	var out []*workload.Generated
	for _, cfg := range []workload.Config{
		{Seed: 11, Rules: 24, Tables: 8, UpdateFrac: 0.3, DeleteFrac: 0.15,
			ConditionFrac: 0.3, PriorityDensity: 0.05, ObservableFrac: 0.2},
		{Seed: 12, Rules: 32, Tables: 6, Acyclic: true, WriteFanout: 2,
			UpdateFrac: 0.4, ConditionFrac: 0.2, PriorityDensity: 0.1},
		{Seed: 13, Rules: 16, Tables: 4, UpdateFrac: 0.5, DeleteFrac: 0.2,
			TransRefFrac: 0.3, ObservableFrac: 0.4},
	} {
		g, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, g)
	}
	return out
}

// warmed returns an analyzer whose verdict table the shard planner has
// already filled, in its own scan order.
func warmed(g *workload.Generated) *Analyzer {
	a := New(g.Set, nil)
	a.ShardPlan()
	return a
}

func TestParallelMatrixInvariant(t *testing.T) {
	for _, g := range metamorphicWorkloads(t) {
		base := New(g.Set, nil).CommutativityMatrix()
		a := warmed(g)
		for run := 1; run <= 2; run++ {
			if got := a.CommutativityMatrix(); !reflect.DeepEqual(base, got) {
				t.Errorf("run %d: commutativity matrix of a warmed analyzer differs from a fresh one", run)
			}
		}
	}
}

func TestParallelConfluenceInvariant(t *testing.T) {
	for _, g := range metamorphicWorkloads(t) {
		base := New(g.Set, nil).Confluence()
		a := warmed(g)
		for run := 1; run <= 2; run++ {
			got := a.Confluence()
			if got.Guaranteed != base.Guaranteed ||
				got.RequirementHolds != base.RequirementHolds ||
				got.PairsChecked != base.PairsChecked {
				t.Errorf("run %d: confluence verdict differs: %+v vs %+v", run, got, base)
			}
			// Violations must match exactly, including their order.
			if !reflect.DeepEqual(got.Violations, base.Violations) {
				t.Errorf("run %d: violations differ (%d vs %d)", run, len(got.Violations), len(base.Violations))
			}
		}
	}
}

func TestParallelSigInvariant(t *testing.T) {
	for _, g := range metamorphicWorkloads(t) {
		tables := []string{"t0", "t1"}
		base := New(g.Set, nil).PartialConfluence(tables)
		a := warmed(g)
		for run := 1; run <= 2; run++ {
			got := a.PartialConfluence(tables)
			if !reflect.DeepEqual(got.SigNames(), base.SigNames()) {
				t.Errorf("run %d: Sig differs: %v vs %v", run, got.SigNames(), base.SigNames())
			}
			if got.Guaranteed() != base.Guaranteed() {
				t.Errorf("run %d: partial-confluence verdict differs", run)
			}
		}
	}
}

func TestParallelObservableInvariant(t *testing.T) {
	for _, g := range metamorphicWorkloads(t) {
		base := New(g.Set, nil).ObservableDeterminism()
		a := warmed(g)
		for run := 1; run <= 2; run++ {
			got := a.ObservableDeterminism()
			if got.Guaranteed() != base.Guaranteed() {
				t.Errorf("run %d: observable-determinism verdict differs", run)
			}
			if !reflect.DeepEqual(got.ObservableRules, base.ObservableRules) {
				t.Errorf("run %d: observable rules differ", run)
			}
			if !reflect.DeepEqual(got.Violations(), base.Violations()) {
				t.Errorf("run %d: observable violations differ", run)
			}
		}
	}
}

// TestParallelReportStable renders the full report from a fresh and a
// warmed analyzer, twice from the latter: the rendering exercises every
// pass end to end.
func TestParallelReportStable(t *testing.T) {
	for i, g := range metamorphicWorkloads(t) {
		render := func(a *Analyzer) string {
			return fmt.Sprintf("%s%s%s",
				ReportTermination(a.Termination()),
				ReportConfluence(a.Confluence()),
				ReportObservable(a.ObservableDeterminism()))
		}
		base := render(New(g.Set, nil))
		a := warmed(g)
		for run := 1; run <= 2; run++ {
			if got := render(a); got != base {
				t.Errorf("workload %d run %d: report of a warmed analyzer differs from a fresh one", i, run)
			}
		}
	}
}

// TestParallelRefinedReportStable is the tripwire for a pass whose
// examined pairs depend on anything but the rule set: with refinement
// on, every pair Commute examines may add a "refined to commute" entry,
// so the rendered reports of two fresh analyzers are byte-equal only if
// the set of examined pairs is. Priorities matter: only Sig examines
// ordered pairs.
func TestParallelRefinedReportStable(t *testing.T) {
	for _, n := range []int{24, 48, 96} {
		for seed := int64(1); seed <= 6; seed++ {
			g, err := workload.Generate(workload.Config{
				Seed: seed, Rules: n, Tables: n / 4, Acyclic: true, WriteFanout: 2,
				UpdateFrac: .5, DeleteFrac: .1, ConditionFrac: .8, TransRefFrac: .2,
				ObservableFrac: .2, PriorityDensity: .3, ValueFloor: 60,
			})
			if err != nil {
				t.Fatal(err)
			}
			render := func() string {
				a := New(g.Set, nil).SetRefinement(true)
				return ReportConfluence(a.Confluence()) +
					ReportObservable(a.ObservableDeterminism()) +
					a.ShardPlan().String() +
					ReportPartialConfluence(a.PartialConfluence(g.Schema.TableNames()[:4]))
			}
			base := render()
			if !strings.Contains(base, "refined to commute: ") {
				t.Errorf("rules %d seed %d: no pair was refined; the comparison is vacuous", n, seed)
			}
			if got := render(); got != base {
				t.Errorf("rules %d seed %d: reports of two fresh analyzers differ", n, seed)
			}
		}
	}
}
