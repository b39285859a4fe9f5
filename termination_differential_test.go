package activerules_test

// Differential soundness suite for the tier-2 termination analysis:
// every CycleDischarged verdict — a cyclic triggering graph accepted on
// the strength of per-SCC certificates — is cross-validated against
// exhaustive execution-graph exploration. The explorer is ground truth
// for the initial state it starts from, so a discharged rule set whose
// exploration finds a cycle is an outright soundness bug
// (DISAGREEMENT), while the converse direction only checks that
// genuinely live cycles are never upgraded out of TermUnknown.

import (
	"encoding/json"
	"fmt"
	"math/rand"
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

// shapeScript returns a user transition that provokes each appended
// cyclic shape: the countdown needs an updated(v) on cd_cnt, the drain
// a delete on dr_pool, the convergent update an off-fixpoint write.
func shapeScript(shapes []string) string {
	script := ""
	for _, s := range shapes {
		if script != "" {
			script += "; "
		}
		switch s {
		case "countdown":
			script += "update cd_cnt set v = 5 where id = 1"
		case "drain":
			script += "delete from dr_pool where id = 0"
		case "converge":
			script += "update cv_keyd set v = 0 where id = 1"
		}
	}
	return script
}

// terminationWorkloads enumerates the generated configurations: seeds
// crossed with every shape combination, random part forced acyclic so
// each config's only cyclic SCCs are the hand-shaped ones and the
// expected verdict is exactly TermCycleDischarged.
func terminationWorkloads() []workload.Config {
	combos := [][]string{
		{"countdown"},
		{"drain"},
		{"converge"},
		{"countdown", "drain", "converge"},
	}
	var cfgs []workload.Config
	for seed := int64(1); seed <= 6; seed++ {
		for _, shapes := range combos {
			cfgs = append(cfgs, workload.Config{
				Seed:  seed * 31,
				Rules: 3 + int(seed%3), Tables: 3,
				Acyclic: true, WriteFanout: 2,
				UpdateFrac: 0.3, DeleteFrac: 0.1,
				ConditionFrac: 0.5, PriorityDensity: 0.2,
				CyclicShapes: shapes,
			})
		}
	}
	return cfgs
}

// TestTerminationDifferentialGenerated sweeps the generated
// configurations. For each: the analysis must land on
// TermCycleDischarged (the shapes are the only cycles and every one
// carries a certificate), and a bounded exploration from a transition
// that provokes every shape must terminate — zero tolerated
// disagreements. Suite-wide it asserts all three certificate kinds
// actually appeared, so a regression that silently stops discharging a
// kind cannot pass vacuously.
func TestTerminationDifferentialGenerated(t *testing.T) {
	cfgs := terminationWorkloads()
	if len(cfgs) < 24 {
		t.Fatalf("suite has %d configs, want >= 24", len(cfgs))
	}
	kinds := map[string]int{}
	for i, cfg := range cfgs {
		cfg := cfg
		t.Run(fmt.Sprintf("w%02d-seed%d-%d-shapes", i, cfg.Seed, len(cfg.CyclicShapes)), func(t *testing.T) {
			g, err := workload.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			term := analysis.New(g.Set, nil).Termination()
			if term.Status != analysis.TermCycleDischarged {
				t.Fatalf("status = %v, want cycle-discharged; report:\n%s",
					term.Status, analysis.ReportTermination(term))
			}
			for _, sv := range term.SCCs {
				if !sv.Discharged {
					t.Fatalf("SCC %d {%v} not discharged", sv.ID, sv.Members)
				}
				for _, step := range sv.Certificate {
					kinds[step.Kind]++
				}
			}

			// Ground truth: from a state that provokes every shape (and
			// a couple of random-table ops for the acyclic part), every
			// execution path must be finite.
			db := workload.SeedDatabase(g.Schema, 3)
			script := workload.UserScript(g.Schema, rand.New(rand.NewSource(cfg.Seed+1)), 1)
			script += "; " + shapeScript(cfg.CyclicShapes)
			e := engine.New(g.Set, db, engine.Options{})
			if _, err := e.ExecUser(script); err != nil {
				t.Fatalf("user script: %v", err)
			}
			res, err := execgraph.Explore(e, execgraph.Options{MaxStates: 6000, MaxDepth: 500})
			if err != nil {
				t.Fatalf("explore: %v", err)
			}
			if res.CycleDetected {
				t.Errorf("DISAGREEMENT: tier-2 discharged every cycle but the explorer found an infinite execution")
			}
			if res.BoundExceeded {
				t.Errorf("exploration hit its bound (%d states); raise MaxStates so the check is conclusive",
					res.StatesExplored)
			}
		})
	}
	for _, k := range []string{"ranking", "delete-only", "convergent-update"} {
		if kinds[k] == 0 {
			t.Errorf("suite never exercised a %s certificate", k)
		}
	}
}

// TestTerminationDifferentialFixtures cross-validates the shipped
// cyclic fixtures: the three discharged ones must explore to
// termination, and flipflop — the undischargeable control — must both
// stay TermUnknown and be refuted by an explorer-witnessed cycle.
func TestTerminationDifferentialFixtures(t *testing.T) {
	cases := []struct {
		dir       string
		script    string
		status    analysis.TerminationStatus
		kind      string // certificate kind expected on SCC 1
		liveCycle bool   // explorer must witness an infinite execution
	}{
		{"countdown", "update cd_cnt set v = 7 where id = 0", analysis.TermCycleDischarged, "ranking", false},
		{"drain", "delete from dr_pool where id = 0", analysis.TermCycleDischarged, "delete-only", false},
		{"converge", "update cv_keyd set v = 0 where id = 1", analysis.TermCycleDischarged, "convergent-update", false},
		{"flipflop", "update fl set v = 1 where id = 0", analysis.TermUnknown, "", true},
	}
	for _, c := range cases {
		c := c
		t.Run(c.dir, func(t *testing.T) {
			sch, set := loadFixtureSet(t, c.dir)
			term := analysis.New(set, nil).Termination()
			if term.Status != c.status {
				t.Fatalf("status = %v, want %v", term.Status, c.status)
			}
			if c.kind != "" {
				if len(term.SCCs) == 0 || len(term.SCCs[0].Certificate) == 0 {
					t.Fatalf("no certificate on SCC 1:\n%s", analysis.ReportTermination(term))
				}
				if got := term.SCCs[0].Certificate[0].Kind; got != c.kind {
					t.Fatalf("certificate kind = %s, want %s", got, c.kind)
				}
			}
			// Refinement must not upgrade an undischargeable live cycle
			// either: its conditions are satisfiable, so nothing prunes.
			if c.liveCycle {
				if analysis.New(set, nil).SetRefinement(true).Termination().Guaranteed {
					t.Fatal("refined analysis certified the live flip/flop cycle")
				}
			}

			db := workload.SeedDatabase(sch, 3)
			e := engine.New(set, db, engine.Options{})
			if _, err := e.ExecUser(c.script); err != nil {
				t.Fatalf("user script: %v", err)
			}
			res, err := execgraph.Explore(e, execgraph.Options{MaxStates: 6000, MaxDepth: 500})
			if err != nil {
				t.Fatalf("explore: %v", err)
			}
			if c.liveCycle {
				if !res.CycleDetected {
					t.Fatal("explorer should witness the flip/flop cycle")
				}
				return
			}
			if res.CycleDetected {
				t.Error("DISAGREEMENT: discharged fixture has an explorer-witnessed infinite execution")
			}
			if res.BoundExceeded {
				t.Errorf("exploration inconclusive at %d states", res.StatesExplored)
			}
		})
	}
}

// TestTerminationNegativesStayBlocked pins the interference check:
// downstream-replenisher shapes that tier-2 refuses to discharge must
// stay TermUnknown. For the ranking replenisher the refusal is
// engine-refutable — the explorer finds an infinite execution, so a
// discharge-order induction that quantified only over the SCC would
// accept it and be wrong. The delete-only replenisher documents the
// other flavor of conservatism: under the engine's net-effect
// transition semantics the constant same-row refill cancels against
// the drain's delete and this concrete instance terminates, but tier-2
// does not model net-effect cancellation, so the analysis stays
// blocked (which is sound — Unknown never disagrees with anything).
func TestTerminationNegativesStayBlocked(t *testing.T) {
	cases := []struct {
		name, schema, rules, script string
		live                        bool // explorer must refute termination
	}{
		{
			name:   "ranking-reset-by-insert",
			schema: "table t (id int, v int)",
			rules: `
create rule bump on t
when updated(v)
then update t set v = v - 1 where v > 0

create rule echo on t
when updated(v)
then insert into t values (9, 5)
`,
			script: "update t set v = 3 where id = 0",
			live:   true,
		},
		{
			name:   "delete-only-refill-in-scope",
			schema: "table dr_pool (id int, v int)",
			rules: `
create rule dr_drain on dr_pool
when deleted, inserted
then delete from dr_pool where v >= 0

create rule dr_refill on dr_pool
when deleted
then insert into dr_pool values (9, 5)
`,
			script: "delete from dr_pool where id = 0",
			live:   false,
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			sch, err := schema.Parse(c.schema)
			if err != nil {
				t.Fatal(err)
			}
			defs, err := ruledef.Parse(c.rules)
			if err != nil {
				t.Fatal(err)
			}
			set, err := rules.NewSet(sch, defs)
			if err != nil {
				t.Fatal(err)
			}
			term := analysis.New(set, nil).Termination()
			if term.Status != analysis.TermUnknown {
				t.Fatalf("status = %v, want unknown (replenisher must block the discharge)", term.Status)
			}
			db := storage.NewDB(sch)
			tbl := sch.TableNames()[0]
			db.MustInsert(tbl, storage.IntV(0), storage.IntV(0))
			e := engine.New(set, db, engine.Options{})
			if _, err := e.ExecUser(c.script); err != nil {
				t.Fatal(err)
			}
			res, err := execgraph.Explore(e, execgraph.Options{MaxStates: 3000, MaxDepth: 300})
			if err != nil {
				t.Fatal(err)
			}
			if c.live && res.Terminates() {
				t.Error("explorer terminated: the blocked shape was not actually live, weakening the negative suite")
			}
		})
	}
}

// TestTerminationReportStableAcrossParallelism renders the termination
// report and its JSON encoding from scratch three times, each with a
// fresh analyzer, and requires byte-identical output. Certificates come from
// map-ordered discharge attempts internally, so this is the tripwire
// for iteration-order nondeterminism leaking into user-facing surfaces.
func TestTerminationReportStableAcrossParallelism(t *testing.T) {
	for _, dir := range []string{"countdown", "drain", "converge", "flipflop"} {
		dir := dir
		t.Run(dir, func(t *testing.T) {
			_, set := loadFixtureSet(t, dir)
			var wantReport, wantJSON string
			for run := 1; run <= 3; run++ {
				term := analysis.New(set, nil).Termination()
				report := analysis.ReportTermination(term)
				js, err := json.Marshal(term.SCCs)
				if err != nil {
					t.Fatal(err)
				}
				if wantReport == "" {
					wantReport, wantJSON = report, string(js)
					continue
				}
				if report != wantReport {
					t.Errorf("run %d: report drifted\ngot:\n%s\nwant:\n%s", run, report, wantReport)
				}
				if string(js) != wantJSON {
					t.Errorf("run %d: SCC JSON drifted\ngot: %s\nwant: %s", run, js, wantJSON)
				}
			}
		})
	}
}
