package activerules_test

// Differential soundness suite for condition-aware refinement: every
// verdict the refined analysis strengthens (termination after edge
// pruning, confluence after commute upgrades) is checked against
// exhaustive execution-graph exploration. The explorer is ground truth
// for the single initial state it starts from, so the implications run
// one way: a refined "guaranteed" must never contradict an explorer
// counterexample, and an explorer-detected cycle must never be
// certified terminating.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"activerules/internal/analysis"
	"activerules/internal/engine"
	"activerules/internal/execgraph"
	"activerules/internal/ruledef"
	"activerules/internal/rules"
	"activerules/internal/schema"
	"activerules/internal/storage"
	"activerules/internal/workload"
)

// refineWorkloads enumerates the generated configurations: seeds ×
// topology × ValueFloor, plus trans-heavy and condition-free outliers.
// ValueFloor 60 lifts every written constant above the generated
// condition bounds [40, 60), the regime where witness-based edge
// pruning can fire; floor 0 is the legacy generator, where refinement
// should mostly be a no-op.
func refineWorkloads() []workload.Config {
	var cfgs []workload.Config
	for seed := int64(1); seed <= 5; seed++ {
		for _, acyclic := range []bool{true, false} {
			for _, floor := range []int{0, 60} {
				cfgs = append(cfgs, workload.Config{
					Seed:  seed*101 + int64(floor),
					Rules: 4 + int(seed), Tables: 3,
					Acyclic: acyclic, WriteFanout: 2,
					UpdateFrac: 0.3, DeleteFrac: 0.1,
					ConditionFrac: 0.9, PriorityDensity: 0.25,
					TransRefFrac: 0.6, ValueFloor: floor,
				})
			}
		}
	}
	// Outliers: no conditions (nothing to refine), pure trans-driven,
	// update-heavy, and a larger cyclic set.
	cfgs = append(cfgs,
		workload.Config{Seed: 7001, Rules: 6, Tables: 3, ConditionFrac: 0, UpdateFrac: 0.5, DeleteFrac: 0.2},
		workload.Config{Seed: 7002, Rules: 6, Tables: 3, ConditionFrac: 1, TransRefFrac: 1, ValueFloor: 60},
		workload.Config{Seed: 7003, Rules: 5, Tables: 2, ConditionFrac: 0.8, UpdateFrac: 0.8, ValueFloor: 60},
		workload.Config{Seed: 7004, Rules: 8, Tables: 4, ConditionFrac: 0.9, TransRefFrac: 0.5, PriorityDensity: 0.4, ValueFloor: 60},
	)
	return cfgs
}

// checkRefinedVsExplorer runs the raw and refined analyses plus a
// bounded parallel exploration and cross-checks them. It returns the
// number of refinement facts (pruned edges + discharged rules) so the
// caller can assert the suite exercised the machinery at all.
func checkRefinedVsExplorer(t *testing.T, set *rules.Set, db *storage.DB, script string, opts execgraph.Options) int {
	t.Helper()
	raw := analysis.New(set, nil)
	ref := analysis.New(set, nil).SetRefinement(true)
	rawT, refT := raw.Termination(), ref.Termination()
	rawC, refC := raw.Confluence(), ref.Confluence()

	// Refinement only removes noncommutativity reasons and triggering
	// edges, so its guarantees must be a superset of the raw ones.
	if rawT.Guaranteed && !refT.Guaranteed {
		t.Errorf("refinement lost a termination guarantee")
	}
	if rawC.Guaranteed && !refC.Guaranteed {
		t.Errorf("refinement lost a confluence guarantee")
	}

	e := engine.New(set, db, engine.Options{})
	if _, err := e.ExecUser(script); err != nil {
		t.Fatalf("user script: %v", err)
	}
	res, err := execgraph.Explore(e, opts)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}

	// Soundness, the load-bearing direction: an explorer-detected
	// infinite execution refutes any termination certificate.
	if res.CycleDetected && refT.Guaranteed {
		t.Errorf("DISAGREEMENT: explorer found a cycle but refined analysis certified termination")
	}
	if refT.Guaranteed && res.BoundExceeded {
		// Finite but larger than the bound: inconclusive, not a
		// disagreement. Record it so suite-wide bounds can be tuned.
		t.Logf("refined-terminating but exploration hit its bound (%d states)", res.StatesExplored)
	}
	if refC.Guaranteed && res.Terminates() && !res.Confluent() {
		t.Errorf("DISAGREEMENT: refined analysis certified confluence but explorer found %d final states",
			len(res.FinalDBs))
	}
	return len(refT.PrunedEdges) + len(refT.RefinementDischarged)
}

// pairSubsystem compiles a two-rule subsystem, dropping priority edges
// that reference rules outside the pair.
func pairSubsystem(t *testing.T, sch *schema.Schema, defs []rules.Definition, a, b string) *rules.Set {
	t.Helper()
	within := func(names []string) []string {
		var out []string
		for _, n := range names {
			if n == a || n == b {
				out = append(out, n)
			}
		}
		return out
	}
	var keep []rules.Definition
	for _, d := range defs {
		if d.Name != a && d.Name != b {
			continue
		}
		d.Precedes = within(d.Precedes)
		d.Follows = within(d.Follows)
		keep = append(keep, d)
	}
	sub, err := rules.NewSet(sch, keep)
	if err != nil {
		t.Fatalf("subsystem (%s, %s): %v", a, b, err)
	}
	return sub
}

// TestRefinedDifferentialGenerated sweeps the generated configurations.
// Beyond the per-workload cross-check it asserts that, suite-wide, the
// refinement actually pruned something — a silent no-op would make the
// whole exercise vacuous.
func TestRefinedDifferentialGenerated(t *testing.T) {
	opts := execgraph.Options{MaxStates: 1000, MaxDepth: 400}
	totalFacts := 0
	cfgs := refineWorkloads()
	if len(cfgs) < 24 {
		t.Fatalf("suite has %d configs, want >= 24", len(cfgs))
	}
	for i, cfg := range cfgs {
		cfg := cfg
		t.Run(fmt.Sprintf("w%02d-seed%d-floor%d", i, cfg.Seed, cfg.ValueFloor), func(t *testing.T) {
			g, err := workload.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			db := workload.SeedDatabase(g.Schema, 3)
			script := workload.UserScript(g.Schema, rand.New(rand.NewSource(cfg.Seed+1)), 2)
			totalFacts += checkRefinedVsExplorer(t, g.Set, db, script, opts)

			// Every commute upgrade is re-validated on its two-rule
			// subsystem: commuting rules alone must be confluent from
			// the same initial state.
			ref := analysis.New(g.Set, nil).SetRefinement(true)
			ref.Confluence()
			for _, up := range ref.Upgrades() {
				sub := pairSubsystem(t, g.Schema, g.Defs, up.A, up.B)
				se := engine.New(sub, workload.SeedDatabase(g.Schema, 3), engine.Options{})
				if _, err := se.ExecUser(script); err != nil {
					t.Fatalf("subsystem script: %v", err)
				}
				sres, err := execgraph.Explore(se, opts)
				if err != nil {
					t.Fatal(err)
				}
				if sres.Terminates() && !sres.Confluent() {
					t.Errorf("DISAGREEMENT: upgraded pair (%s, %s) not confluent in isolation: %d final states",
						up.A, up.B, len(sres.FinalDBs))
				}
			}
		})
	}
	if totalFacts == 0 {
		t.Error("suite produced zero pruned edges / discharged rules; refinement never fired")
	}
}

// loadFixtureSet compiles a testdata fixture directly.
func loadFixtureSet(t *testing.T, dir string) (*schema.Schema, *rules.Set) {
	t.Helper()
	schSrc, err := os.ReadFile(filepath.Join("testdata", dir, "schema.sdl"))
	if err != nil {
		t.Fatal(err)
	}
	rlsSrc, err := os.ReadFile(filepath.Join("testdata", dir, "rules.srl"))
	if err != nil {
		t.Fatal(err)
	}
	sch, err := schema.Parse(string(schSrc))
	if err != nil {
		t.Fatal(err)
	}
	defs, err := ruledef.Parse(string(rlsSrc))
	if err != nil {
		t.Fatal(err)
	}
	set, err := rules.NewSet(sch, defs)
	if err != nil {
		t.Fatal(err)
	}
	return sch, set
}

// TestRefinedDifferentialFixtures runs the same cross-check on the
// shipped bank, powernet, and lintdemo fixtures with hand-written
// initial states.
func TestRefinedDifferentialFixtures(t *testing.T) {
	cases := []struct {
		dir    string
		script string
	}{
		{"bank", "insert into account values (1, 'ann', 100.0), (2, 'bob', 20.0); update account set balance = balance - 75.0"},
		{"powernet", "insert into node values (1, 'gen', false), (2, 'load', false); insert into wire values (10, 1, 2, false); update node set powered = true where id = 1"},
		{"lintdemo", "insert into v values (5, 0); insert into v values (25, 0); insert into q values (100, 61); delete from v where flag = 0"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.dir, func(t *testing.T) {
			sch, set := loadFixtureSet(t, c.dir)
			db := storage.NewDB(sch)
			checkRefinedVsExplorer(t, set, db, c.script, execgraph.Options{MaxStates: 20000})
		})
	}
}

// TestRefinedNeverCertifiesLiveCycle pins the critical negative case:
// a genuinely nonterminating rule set (the flip cycle, which the
// explorer refutes by finding a lasso) must stay uncertified no matter
// what the refinement prunes, because its condition is satisfiable.
func TestRefinedNeverCertifiesLiveCycle(t *testing.T) {
	sch, err := schema.Parse("table t (id int, v int)")
	if err != nil {
		t.Fatal(err)
	}
	defs, err := ruledef.Parse(`
create rule flip on t
when updated(v)
if exists (select 1 from new-updated nu where nu.v >= 0)
then update t set v = 1 - v where id = 0
`)
	if err != nil {
		t.Fatal(err)
	}
	set, err := rules.NewSet(sch, defs)
	if err != nil {
		t.Fatal(err)
	}
	ref := analysis.New(set, nil).SetRefinement(true)
	if ref.Termination().Guaranteed {
		t.Fatal("refinement certified a live flip cycle as terminating")
	}
	db := storage.NewDB(sch)
	db.MustInsert("t", storage.IntV(0), storage.IntV(0))
	e := engine.New(set, db, engine.Options{})
	if _, err := e.ExecUser("update t set v = 1 where id = 0"); err != nil {
		t.Fatal(err)
	}
	res, err := execgraph.Explore(e, execgraph.Options{MaxStates: 5000, MaxDepth: 500})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CycleDetected {
		t.Fatal("explorer should witness the flip cycle")
	}
}
