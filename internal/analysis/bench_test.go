package analysis

// Ablation benchmarks for the design choices DESIGN.md calls out:
// the op-indexed triggering-graph build vs the naive quadratic one, and
// the cost profile of the Definition 6.5 closure.

import (
	"fmt"
	"reflect"
	"testing"

	"activerules/internal/rules"
	"activerules/internal/workload"
)

func benchWorkload(b *testing.B, n int) *workload.Generated {
	b.Helper()
	g, err := workload.Generate(workload.Config{
		Seed: 3, Rules: n, Tables: n / 2,
		UpdateFrac: 0.3, DeleteFrac: 0.15, ConditionFrac: 0.3,
	})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkAblationGraphBuild(b *testing.B) {
	for _, n := range []int{64, 512, 2048} {
		g := benchWorkload(b, n)
		b.Run(fmt.Sprintf("indexed/rules=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = BuildTriggeringGraph(g.Set)
			}
		})
		b.Run(fmt.Sprintf("naive/rules=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = buildTriggeringGraphNaive(g.Set)
			}
		})
	}
}

// TestNaiveGraphAgrees keeps the ablation baseline honest: both builds,
// the indexed one and the reference's (reference_test.go), must produce
// identical adjacency.
func TestNaiveGraphAgrees(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := workload.MustGenerate(workload.Config{
			Seed: seed, Rules: 20, Tables: 5,
			UpdateFrac: 0.3, DeleteFrac: 0.2,
		})
		if fast, slow := BuildTriggeringGraph(g.Set), buildTriggeringGraphNaive(g.Set); !reflect.DeepEqual(fast.adj, slow.adj) {
			t.Fatalf("seed %d: adjacency %v, naive %v", seed, fast.adj, slow.adj)
		}
	}
}

func BenchmarkBuildR1R2(b *testing.B) {
	for _, prio := range []float64{0.1, 0.5} {
		g, err := workload.Generate(workload.Config{
			Seed: 5, Rules: 64, Tables: 8, Acyclic: true,
			UpdateFrac: 0.3, PriorityDensity: prio,
		})
		if err != nil {
			b.Fatal(err)
		}
		a := New(g.Set, nil)
		pairs := g.Set.UnorderedPairs()
		if len(pairs) == 0 {
			continue
		}
		b.Run(fmt.Sprintf("prio=%.1f", prio), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				r1, r2 := a.BuildR1R2(p[0], p[1])
				_ = len(r1) + len(r2)
			}
		})
	}
}

func BenchmarkSig(b *testing.B) {
	g := benchWorkload(b, 128)
	a := New(g.Set, nil)
	tables := g.Schema.TableNames()[:2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Sig(tables)
	}
}

// BenchmarkIncremental measures the §9 incremental-analysis payoff: the
// steady-state cost of re-analyzing after a one-partition edit, with and
// without the cache. The workload is many independent partitions.
func BenchmarkIncremental(b *testing.B) {
	const groups = 24
	schemaSrc := ""
	rulesA, rulesB := "", ""
	for i := 0; i < groups; i++ {
		schemaSrc += fmt.Sprintf("table s%d (v int)\ntable t%d (v int)\n", i, i)
		rulesA += fmt.Sprintf("create rule r%da on s%d when inserted then update t%d set v = 1\n\n", i, i, i)
		rulesA += fmt.Sprintf("create rule r%db on s%d when inserted then update t%d set v = 2\nprecedes r%da\n\n", i, i, i, i)
	}
	// Version B edits only group 0's action constant.
	rulesB = "create rule r0a on s0 when inserted then update t0 set v = 9\n\n" +
		rulesA[len("create rule r0a on s0 when inserted then update t0 set v = 1\n\n"):]
	setA := compile(b, schemaSrc, rulesA, nil).set
	setB := compile(b, schemaSrc, rulesB, nil).set

	b.Run("incremental", func(b *testing.B) {
		inc := NewIncremental(nil)
		inc.Analyze(setA)
		sets := []*rules.Set{setB, setA}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := inc.Analyze(sets[i%2])
			if res.Analyzed != 1 || res.Reused != groups-1 {
				b.Fatalf("cache ineffective: analyzed=%d reused=%d", res.Analyzed, res.Reused)
			}
		}
	})
	b.Run("from-scratch", func(b *testing.B) {
		sets := []*rules.Set{setB, setA}
		for i := 0; i < b.N; i++ {
			v := New(sets[i%2], nil).Confluence()
			_ = v.Guaranteed
		}
	})
}

func BenchmarkAutoRepair(b *testing.B) {
	g, err := workload.Generate(workload.Config{
		Seed: 7, Rules: 12, Tables: 6, Acyclic: true,
		UpdateFrac: 0.4, DeleteFrac: 0.1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := New(g.Set, nil)
		if _, err := a.AutoRepair(0); err != nil {
			b.Fatal(err)
		}
	}
}

// verdictWorkload is the benchmark's generated rule system (the config
// of bench/analyze.go's generate): acyclic random rules plus the three
// cyclic-but-terminating shapes.
func verdictWorkload(tb testing.TB, seed int64, n int) *workload.Generated {
	tb.Helper()
	g, err := workload.Generate(verdictConfig(seed, n))
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func verdictConfig(seed int64, n int) workload.Config {
	return workload.Config{
		Seed:            seed,
		Rules:           n,
		Acyclic:         true,
		WriteFanout:     2,
		UpdateFrac:      0.3,
		DeleteFrac:      0.2,
		ConditionFrac:   0.5,
		PriorityDensity: 0.3,
		ObservableFrac:  0.1,
		TransRefFrac:    0.3,
		CyclicShapes:    []string{"countdown", "drain", "converge"},
	}
}

// BenchmarkShardPlan is the planner from a cold analyzer: one union-find
// over the rules, which examines only the pairs whose rules are still in
// different may-not-commute components when the scan reaches them and
// whose footprints meet, then the termination and Confluence Requirement
// checks of each shard's Sig. plan+String also renders the plan, a line
// per priority-ordered pair of rules, as the analyze workload does.
func BenchmarkShardPlan(b *testing.B) {
	for _, n := range []int{128, 256} {
		g := verdictWorkload(b, 1000003+int64(n), n)
		b.Run(fmt.Sprintf("rules=%d/plan", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if New(g.Set, nil).SetRefinement(true).ShardPlan().NumShards() == 0 {
					b.Fatal("empty plan")
				}
			}
		})
		b.Run(fmt.Sprintf("rules=%d/plan+String", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if New(g.Set, nil).SetRefinement(true).ShardPlan().String() == "" {
					b.Fatal("empty plan")
				}
			}
		})
	}
}

// BenchmarkLint is the lint report from a cold analyzer: every detector,
// the merge of their runs, and the text rendering, thousands of RL003
// findings at 256 rules.
func BenchmarkLint(b *testing.B) {
	for _, n := range []int{128, 256} {
		g := verdictWorkload(b, 1000003+int64(n), n)
		b.Run(fmt.Sprintf("rules=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if RenderLintText(New(g.Set, nil).SetRefinement(true).Lint(), "gen") == "" {
					b.Fatal("empty report")
				}
			}
		})
	}
}

// BenchmarkSigClosure is one Sig({t}) per table over a warm verdict
// table: the Commute hit path and nothing else. The warm-up is the timed
// loop's own body, so every pair a closure examines has its verdict
// before the timer starts.
func BenchmarkSigClosure(b *testing.B) {
	g := verdictWorkload(b, 1000003+256, 256)
	a := New(g.Set, nil).SetRefinement(true)
	tables := g.Schema.TableNames()
	for _, t := range tables {
		a.Sig([]string{t})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range tables {
			a.Sig([]string{t})
		}
	}
}

// BenchmarkObservableDeterminism is the Theorem 8.1 analysis at 256
// rules where an analyze request runs it: after a Confluence pass on a
// fresh table, which is not timed. The Obs view reads and fills that
// table for every pair with at most one observable rule.
func BenchmarkObservableDeterminism(b *testing.B) {
	g := verdictWorkload(b, 1000003+256, 256)
	a := New(g.Set, nil).SetRefinement(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := a.derive(a.view, a.ref)
		d.Confluence()
		b.StartTimer()
		if d.ObservableDeterminism().ObsTable == "" {
			b.Fatal("no Obs table")
		}
	}
}

// BenchmarkTerminationOf is every termination verdict an analyze request
// asks for at 256 rules, from a fresh analyzer: the full set's, each
// shard Sig's, a partial-confluence Sig's and Sig(Obs)'s.
func BenchmarkTerminationOf(b *testing.B) {
	g := verdictWorkload(b, 1000003+256, 256)
	a := New(g.Set, nil).SetRefinement(true)
	var subsets [][]*rules.Rule
	for _, sh := range a.ShardPlan().Shards {
		var sig []*rules.Rule
		for _, name := range sh.Sig {
			sig = append(sig, g.Set.Rule(name))
		}
		subsets = append(subsets, sig)
	}
	subsets = append(subsets, a.PartialConfluence(g.Schema.TableNames()[:4]).Sig,
		a.ObservableDeterminism().Partial.Sig)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := a.derive(a.view, a.ref)
		d.Termination()
		for _, s := range subsets {
			d.TerminationOf(s)
		}
	}
}
