package analysis

// Metamorphic tests for the parallel pairwise passes: every analysis
// verdict must be byte-identical at every worker count, because the
// passes parallelize over independent pair checks (CommutativityMatrix,
// the Confluence Requirement sweep), never over anything order-sensitive
// — Sig in particular is one sequential fixpoint.

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

func TestParallelMatrixInvariant(t *testing.T) {
	for _, g := range metamorphicWorkloads(t) {
		base := New(g.Set, nil).CommutativityMatrix()
		for _, workers := range []int{2, 8} {
			got := New(g.Set, nil).SetParallelism(workers).CommutativityMatrix()
			if !reflect.DeepEqual(base, got) {
				t.Errorf("workers=%d: commutativity matrix differs from sequential", workers)
			}
		}
	}
}

func TestParallelConfluenceInvariant(t *testing.T) {
	for _, g := range metamorphicWorkloads(t) {
		base := New(g.Set, nil).Confluence()
		for _, workers := range []int{2, 8} {
			got := New(g.Set, nil).SetParallelism(workers).Confluence()
			if got.Guaranteed != base.Guaranteed ||
				got.RequirementHolds != base.RequirementHolds ||
				got.PairsChecked != base.PairsChecked {
				t.Errorf("workers=%d: confluence verdict differs: %+v vs %+v", workers, got, base)
			}
			// Violations must match exactly, including their order: the
			// parallel sweep collects them in pair order.
			if !reflect.DeepEqual(got.Violations, base.Violations) {
				t.Errorf("workers=%d: violations differ (%d vs %d)",
					workers, len(got.Violations), len(base.Violations))
			}
		}
	}
}

func TestParallelSigInvariant(t *testing.T) {
	for _, g := range metamorphicWorkloads(t) {
		tables := []string{"t0", "t1"}
		base := New(g.Set, nil).PartialConfluence(tables)
		for _, workers := range []int{2, 8} {
			got := New(g.Set, nil).SetParallelism(workers).PartialConfluence(tables)
			if !reflect.DeepEqual(got.SigNames(), base.SigNames()) {
				t.Errorf("workers=%d: Sig differs: %v vs %v", workers, got.SigNames(), base.SigNames())
			}
			if got.Guaranteed() != base.Guaranteed() {
				t.Errorf("workers=%d: partial-confluence verdict differs", workers)
			}
		}
	}
}

func TestParallelObservableInvariant(t *testing.T) {
	for _, g := range metamorphicWorkloads(t) {
		base := New(g.Set, nil).ObservableDeterminism()
		for _, workers := range []int{2, 8} {
			got := New(g.Set, nil).SetParallelism(workers).ObservableDeterminism()
			if got.Guaranteed() != base.Guaranteed() {
				t.Errorf("workers=%d: observable-determinism verdict differs", workers)
			}
			if !reflect.DeepEqual(got.ObservableRules, base.ObservableRules) {
				t.Errorf("workers=%d: observable rules differ", workers)
			}
			if !reflect.DeepEqual(got.Violations(), base.Violations()) {
				t.Errorf("workers=%d: observable violations differ", workers)
			}
		}
	}
}

// TestParallelReportStable renders the full report at several worker
// counts: the rendering exercises every pass end to end, and a stable
// report is what the CLI's -parallel flag ultimately promises.
func TestParallelReportStable(t *testing.T) {
	for i, g := range metamorphicWorkloads(t) {
		render := func(workers int) string {
			a := New(g.Set, nil).SetParallelism(workers)
			return fmt.Sprintf("%s%s%s",
				ReportTermination(a.Termination()),
				ReportConfluence(a.Confluence()),
				ReportObservable(a.ObservableDeterminism()))
		}
		base := render(1)
		for _, workers := range []int{2, 8} {
			if got := render(workers); got != base {
				t.Errorf("workload %d workers=%d: report differs from sequential", i, workers)
			}
		}
	}
}

// TestParallelRefinedReportStable is the tripwire for a pass whose
// parallel form examines different pairs than its sequential one: with
// refinement on, every pair Commute examines may add a "refined to
// commute" entry, so the rendered reports are byte-equal across worker
// counts only if the set of examined pairs is. Priorities matter: only
// Sig examines ordered pairs.
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
			render := func(workers int) string {
				a := New(g.Set, nil).SetRefinement(true).SetParallelism(workers)
				return ReportConfluence(a.Confluence()) +
					ReportObservable(a.ObservableDeterminism()) +
					a.ShardPlan().String() +
					ReportPartialConfluence(a.PartialConfluence(g.Schema.TableNames()[:4]))
			}
			base := render(1)
			if !strings.Contains(base, "refined to commute: ") {
				t.Errorf("rules %d seed %d: no pair was refined; the comparison is vacuous", n, seed)
			}
			for _, workers := range []int{2, 8} {
				if got := render(workers); got != base {
					t.Errorf("rules %d seed %d workers=%d: report differs from sequential", n, seed, workers)
				}
			}
		}
	}
}
