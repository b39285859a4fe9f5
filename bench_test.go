package activerules_test

// The benchmark harness regenerating the measured experiments of
// EXPERIMENTS.md (E1, E2, E3, E6 scaling; E4 ground-truth throughput;
// E5 baseline comparison; F1 diamond validation). The paper itself
// reports no measurements (implementation was future work, Section 9);
// these benchmarks characterize the reproduction and record the rows
// that EXPERIMENTS.md cites.
//
// Run everything:  go test -bench=. -benchmem .
// One experiment:  go test -bench=BenchmarkE1 .

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"activerules"
	"activerules/internal/analysis"
	"activerules/internal/baseline"
	"activerules/internal/engine"
	"activerules/internal/execgraph"
	"activerules/internal/workload"
)

// activerulesLoad aliases the facade loader for the engine benches.
var activerulesLoad = activerules.Load

// benchSet generates a compiled rule set for benchmarking, failing the
// benchmark on generator errors.
func benchSet(b *testing.B, cfg workload.Config) *workload.Generated {
	b.Helper()
	g, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// --- E1: termination analysis scaling (Theorem 5.1) --------------------

func BenchmarkE1Termination(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024, 4096} {
		for _, density := range []struct {
			name   string
			tables int
		}{
			{"sparse", n}, // many tables: few triggering edges
			{"dense", 4},  // few tables: many triggering edges
		} {
			b.Run(fmt.Sprintf("rules=%d/%s", n, density.name), func(b *testing.B) {
				g := benchSet(b, workload.Config{
					Seed: 11, Rules: n, Tables: density.tables,
					UpdateFrac: 0.3, DeleteFrac: 0.15, ConditionFrac: 0.3,
				})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a := analysis.New(g.Set, nil)
					v := a.Termination()
					_ = v.Guaranteed
				}
			})
		}
	}
}

// --- E2: confluence analysis scaling (Definition 6.5) ------------------

func BenchmarkE2Confluence(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64, 128} {
		for _, prio := range []float64{0, 0.3, 0.9} {
			b.Run(fmt.Sprintf("rules=%d/prio=%.1f", n, prio), func(b *testing.B) {
				g := benchSet(b, workload.Config{
					Seed: 13, Rules: n, Tables: n / 2, Acyclic: true,
					UpdateFrac: 0.3, DeleteFrac: 0.1, ConditionFrac: 0.3,
					PriorityDensity: prio,
				})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a := analysis.New(g.Set, nil)
					v := a.Confluence()
					_ = v.Guaranteed
				}
			})
		}
	}
}

// --- E3: Sig(T') and partial confluence scaling (Definition 7.1) -------

func BenchmarkE3PartialConfluence(b *testing.B) {
	for _, n := range []int{16, 64, 128} {
		for _, nt := range []int{1, 4} {
			b.Run(fmt.Sprintf("rules=%d/tables=%d", n, nt), func(b *testing.B) {
				g := benchSet(b, workload.Config{
					Seed: 17, Rules: n, Tables: n / 2, Acyclic: true,
					UpdateFrac: 0.3, DeleteFrac: 0.1, PriorityDensity: 0.2,
				})
				targets := g.Schema.TableNames()[:nt]
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a := analysis.New(g.Set, nil)
					v := a.PartialConfluence(targets)
					_ = v.Guaranteed()
				}
			})
		}
	}
}

// --- E4: ground-truth model checking throughput -------------------------

func BenchmarkE4GroundTruth(b *testing.B) {
	for _, n := range []int{3, 5, 7} {
		b.Run(fmt.Sprintf("rules=%d", n), func(b *testing.B) {
			g := benchSet(b, workload.Config{
				Seed: 19, Rules: n, Tables: 4, Acyclic: true,
				UpdateFrac: 0.35, DeleteFrac: 0.15, ConditionFrac: 0.3,
			})
			db := workload.SeedDatabase(g.Schema, 2)
			e := engine.New(g.Set, db, engine.Options{})
			rng := rand.New(rand.NewSource(23))
			if _, err := e.ExecUser(workload.UserScript(g.Schema, rng, 2)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := execgraph.Explore(e, execgraph.Options{MaxStates: 50000, MaxDepth: 400})
				if err != nil {
					b.Fatal(err)
				}
				_ = res.StatesExplored
			}
		})
	}
}

// --- E5: paper analysis vs HH91-style baseline --------------------------

func BenchmarkE5Baseline(b *testing.B) {
	g := benchSet(b, workload.Config{
		Seed: 29, Rules: 64, Tables: 32, Acyclic: true,
		UpdateFrac: 0.4, PriorityDensity: 0.6,
	})
	b.Run("baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := baseline.Analyze(g.Set)
			_ = v.UniqueFixedPoint()
		}
	})
	b.Run("paper", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := analysis.New(g.Set, nil).Confluence()
			_ = v.Guaranteed
		}
	})
}

// --- E6: engine throughput ----------------------------------------------

// BenchmarkE6EngineCascade measures rule-processing steps through a
// linear triggering chain of the given depth.
func BenchmarkE6EngineCascade(b *testing.B) {
	for _, depth := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			// A chain: rule k moves a token from t(k) to t(k+1).
			schemaSrc := ""
			rulesSrc := ""
			for i := 0; i <= depth; i++ {
				schemaSrc += fmt.Sprintf("table t%d (v int)\n", i)
			}
			for i := 0; i < depth; i++ {
				rulesSrc += fmt.Sprintf(
					"create rule r%02d on t%d when inserted then insert into t%d select v from inserted\n\n",
					i, i, i+1)
			}
			sys, err := activerulesLoad(schemaSrc, rulesSrc)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db := sys.NewDB()
				eng := sys.NewEngine(db, engine.Options{})
				if _, err := eng.ExecUser("insert into t0 values (1)"); err != nil {
					b.Fatal(err)
				}
				res, err := eng.Assert()
				if err != nil {
					b.Fatal(err)
				}
				if res.Fired != depth {
					b.Fatalf("fired = %d, want %d", res.Fired, depth)
				}
			}
		})
	}
}

// BenchmarkE6EngineWideTransition measures processing of a set-oriented
// transition: one rule handling n inserted tuples at once.
func BenchmarkE6EngineWideTransition(b *testing.B) {
	for _, width := range []int{1, 64, 512} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			sys, err := activerulesLoad(
				"table src (v int)\ntable dst (v int)",
				"create rule copy on src when inserted then insert into dst select v from inserted")
			if err != nil {
				b.Fatal(err)
			}
			script := "insert into src values (0)"
			for i := 1; i < width; i++ {
				script += fmt.Sprintf(", (%d)", i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db := sys.NewDB()
				eng := sys.NewEngine(db, engine.Options{})
				if _, err := eng.ExecUser(script); err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Assert(); err != nil {
					b.Fatal(err)
				}
				if db.Table("dst").Len() != width {
					b.Fatal("copy incomplete")
				}
			}
		})
	}
}

// --- Ablation: explorer state memoization --------------------------------

// BenchmarkAblationExplorerMemo quantifies the memoization design choice
// of the model checker: without cross-path state sharing the diamond-
// shaped execution graphs of commuting rules explode combinatorially.
func BenchmarkAblationExplorerMemo(b *testing.B) {
	// n independent commuting inserters: 2^n states memoized, n! paths
	// without memoization.
	const n = 6
	schemaSrc := "table t (v int)\n"
	rulesSrc := ""
	for i := 0; i < n; i++ {
		schemaSrc += fmt.Sprintf("table d%d (v int)\n", i)
		rulesSrc += fmt.Sprintf("create rule r%d on t when inserted then insert into d%d values (1)\n\n", i, i)
	}
	sys, err := activerulesLoad(schemaSrc, rulesSrc)
	if err != nil {
		b.Fatal(err)
	}
	mk := func() *activerules.Engine {
		eng := sys.NewEngine(sys.NewDB(), engine.Options{})
		if _, err := eng.ExecUser("insert into t values (1)"); err != nil {
			b.Fatal(err)
		}
		return eng
	}
	for _, memo := range []bool{true, false} {
		name := "memo"
		if !memo {
			name = "nomemo"
		}
		b.Run(name, func(b *testing.B) {
			eng := mk()
			for i := 0; i < b.N; i++ {
				res, err := execgraph.Explore(eng, execgraph.Options{
					MaxStates: 1 << 20, MaxDepth: 100, DisableMemo: !memo,
				})
				if err != nil || len(res.FinalDBs) != 1 {
					b.Fatalf("exploration broken: %v %d", err, len(res.FinalDBs))
				}
			}
		})
	}
}

// BenchmarkExplorePointActions explores n commuting rules whose actions
// are point updates of one table: 2^n memoized states, and every fork
// runs one rule's action on a fresh clone of the table, so it is the
// explorer's price of an equality probe on a table that probes once.
func BenchmarkExplorePointActions(b *testing.B) {
	const n = 6
	rulesSrc := ""
	for i := 0; i < n; i++ {
		rulesSrc += fmt.Sprintf("create rule r%d on s when inserted then update t set v = v + 1 where id = %d\n\n", i, i)
	}
	sys, err := activerulesLoad("table s (v int)\ntable t (id int, v int)\n", rulesSrc)
	if err != nil {
		b.Fatal(err)
	}
	for _, rows := range []int{10, 200} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			var script strings.Builder
			script.WriteString("insert into s values (1); insert into t values ")
			for i := 0; i < rows; i++ {
				if i > 0 {
					script.WriteString(", ")
				}
				fmt.Fprintf(&script, "(%d, 0)", i)
			}
			eng := sys.NewEngine(sys.NewDB(), engine.Options{})
			if _, err := eng.ExecUser(script.String()); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := execgraph.Explore(eng, execgraph.Options{MaxStates: 1 << 20, MaxDepth: 100})
				if err != nil || len(res.FinalDBs) != 1 || res.StatesExplored != 1<<n {
					b.Fatalf("exploration broken: %v %d final, %d states", err, len(res.FinalDBs), res.StatesExplored)
				}
			}
		})
	}
}

// --- F1: commutativity diamond validation -------------------------------

func BenchmarkF1CommutativityDiamond(b *testing.B) {
	// Two statically-commutative rules, both triggered by the same
	// insert: the diamond of Figure 1, validated per iteration.
	sys, err := activerulesLoad(
		"table t (v int)\ntable a (v int)\ntable c (v int)",
		`
create rule ra on t when inserted then insert into a select v from inserted
create rule rc on t when inserted then insert into c select v from inserted
`)
	if err != nil {
		b.Fatal(err)
	}
	eng := sys.NewEngine(sys.NewDB(), engine.Options{})
	if _, err := eng.ExecUser("insert into t values (1)"); err != nil {
		b.Fatal(err)
	}
	eng.BeginAssert()
	a := analysis.New(sys.Rules(), nil)
	ri, rj := sys.Rules().Rule("ra"), sys.Rules().Rule("rc")
	if ok, _ := a.Commute(ri, rj); !ok {
		b.Fatal("pair should commute")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e1 := eng.Clone()
		e1.Consider(ri)
		e1.Consider(rj)
		e2 := eng.Clone()
		e2.Consider(rj)
		e2.Consider(ri)
		if e1.TRStateFingerprint() != e2.TRStateFingerprint() {
			b.Fatal("diamond broke")
		}
	}
}

// --- Refined analysis: cost and yield of condition-aware refinement ----

// BenchmarkRefinedAnalysis measures the abstract-interpretation overhead
// of -refine against the raw syntactic analysis on the same workloads,
// and reports how many triggering edges the refinement prunes. The
// ValueFloor=60 variants generate writes provably above every condition
// bound, the regime where pruning pays off.
func BenchmarkRefinedAnalysis(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		for _, floor := range []int{0, 60} {
			cfg := workload.Config{
				Seed: 11, Rules: n, Tables: 4,
				UpdateFrac: 0.3, DeleteFrac: 0.1, ConditionFrac: 0.9,
				TransRefFrac: 0.6, ValueFloor: floor,
			}
			g := benchSet(b, cfg)
			b.Run(fmt.Sprintf("rules=%d/floor=%d/raw", n, floor), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					a := analysis.New(g.Set, nil)
					v := a.Termination()
					_ = a.Confluence()
					_ = v.Guaranteed
				}
			})
			b.Run(fmt.Sprintf("rules=%d/floor=%d/refined", n, floor), func(b *testing.B) {
				pruned := 0
				for i := 0; i < b.N; i++ {
					a := analysis.New(g.Set, nil).SetRefinement(true)
					v := a.Termination()
					_ = a.Confluence()
					pruned = len(v.PrunedEdges)
				}
				b.ReportMetric(float64(pruned), "edges-pruned")
			})
		}
	}
}
