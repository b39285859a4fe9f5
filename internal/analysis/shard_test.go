package analysis

import (
	"strings"
	"testing"

	"activerules/internal/rules"
	"activerules/internal/workload"
)

func shardWorkloads(t *testing.T) []*workload.Generated {
	t.Helper()
	var out []*workload.Generated
	for seed := int64(1); seed <= 8; seed++ {
		g, err := workload.Generate(workload.Config{
			Seed: seed, Rules: 8, Tables: 6, Acyclic: seed%2 == 0,
			UpdateFrac: 0.3, DeleteFrac: 0.15, ConditionFrac: 0.4,
			PriorityDensity: 0.1, WriteFanout: 2,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		out = append(out, g)
	}
	return out
}

// TestShardPlanCoversEverything: every table and every rule appears in
// exactly one shard.
func TestShardPlanCoversEverything(t *testing.T) {
	for _, g := range shardWorkloads(t) {
		plan := New(g.Set, nil).ShardPlan()
		tables := map[string]int{}
		ruleCount := map[string]int{}
		for _, sh := range plan.Shards {
			for _, tb := range sh.Tables {
				tables[tb]++
			}
			for _, rn := range sh.Rules {
				ruleCount[rn]++
			}
		}
		for _, name := range g.Schema.TableNames() {
			if tables[strings.ToLower(name)] != 1 {
				t.Fatalf("table %s in %d shards", name, tables[name])
			}
		}
		for _, r := range g.Set.Rules() {
			if ruleCount[r.Name] != 1 {
				t.Fatalf("rule %s in %d shards", r.Name, ruleCount[r.Name])
			}
		}
	}
}

// TestShardPlanSigDisjoint: the Sig sets of distinct shards are
// pairwise disjoint, and each shard's Sig is a subset of its rules —
// the Theorem 7.2 commutation precondition.
func TestShardPlanSigDisjoint(t *testing.T) {
	for _, g := range shardWorkloads(t) {
		plan := New(g.Set, nil).ShardPlan()
		seen := map[string]int{}
		for i, sh := range plan.Shards {
			local := map[string]bool{}
			for _, rn := range sh.Rules {
				local[rn] = true
			}
			for _, rn := range sh.Sig {
				if j, dup := seen[rn]; dup {
					t.Fatalf("rule %s significant for shard %d and %d", rn, j, i)
				}
				seen[rn] = i
				if !local[rn] {
					t.Fatalf("shard %d: significant rule %s not assigned to the shard", i, rn)
				}
			}
		}
	}
}

// TestShardPlanDeterministic: the rendered plan is byte-stable across
// fresh analyzers, a second run on one, and one whose verdict table the
// Confluence Requirement sweep filled first.
func TestShardPlanDeterministic(t *testing.T) {
	for _, g := range shardWorkloads(t) {
		a := New(g.Set, nil)
		first := a.ShardPlan().String()
		warm := New(g.Set, nil)
		warm.Confluence()
		for i, b := range []*Analyzer{New(g.Set, nil), a, warm} {
			if got := b.ShardPlan().String(); got != first {
				t.Fatalf("analyzer %d changed the plan:\n--- first\n%s\n--- got\n%s", i, first, got)
			}
		}
	}
}

// TestShardVerdictsMatchUnsharded is the planner soundness differential:
// for every shard, an analyzer over ONLY that shard's rules reaches a
// verdict for the shard's tables that is identical — same significant
// set, same guarantee — to the unsharded analyzer's verdict for those
// tables. This is exactly what lets each shard run its own engine
// without changing any certified property.
func TestShardVerdictsMatchUnsharded(t *testing.T) {
	for wi, g := range shardWorkloads(t) {
		full := New(g.Set, nil)
		plan := full.ShardPlan()
		for si, sh := range plan.Shards {
			keep := map[string]bool{}
			for _, rn := range sh.Rules {
				keep[rn] = true
			}
			var defs []rules.Definition
			for _, d := range g.Defs {
				if keep[d.Name] {
					defs = append(defs, d)
				}
			}
			sub, err := rules.NewSet(g.Schema, defs)
			if err != nil {
				t.Fatalf("workload %d shard %d: shard rule set does not compile: %v", wi, si, err)
			}
			want := full.PartialConfluence(sh.Tables)
			got := New(sub, nil).PartialConfluence(sh.Tables)
			if gotSig, wantSig := strings.Join(got.SigNames(), ","), strings.Join(want.SigNames(), ","); gotSig != wantSig {
				t.Fatalf("workload %d shard %d: sig mismatch: sharded [%s] unsharded [%s]", wi, si, gotSig, wantSig)
			}
			if got.Guaranteed() != want.Guaranteed() {
				t.Fatalf("workload %d shard %d: confluence verdict mismatch: sharded %v unsharded %v",
					wi, si, got.Guaranteed(), want.Guaranteed())
			}
			if want.Guaranteed() != sh.Confluent {
				t.Fatalf("workload %d shard %d: plan recorded confluent=%v, analyzer says %v",
					wi, si, sh.Confluent, want.Guaranteed())
			}
		}
	}
}

// TestShardPlanExaminesFewPairs: a cold plan of the benchmark's 256-rule
// set partitions the rules once, putting a pair to Lemma 6.1 only while
// its rules are in different may-not-commute components and their
// footprints meet. The components need 455 of the set's 33 670 pairs;
// one Sig fixpoint per table would evaluate 32 366.
func TestShardPlanExaminesFewPairs(t *testing.T) {
	g := verdictWorkload(t, 1000003+256, 256)
	a := New(g.Set, nil).SetRefinement(true)
	evaluated := 0
	a.computeHook = func(*Analyzer, *rules.Rule, *rules.Rule) { evaluated++ }
	if a.ShardPlan().NumShards() == 0 {
		t.Fatal("empty plan")
	}
	t.Logf("%d of %d pairs evaluated", evaluated, g.Set.Len()*(g.Set.Len()-1)/2)
	if evaluated == 0 || evaluated > 1000 {
		t.Errorf("a cold ShardPlan evaluated Lemma 6.1 %d times, want 1..1000", evaluated)
	}
}

// TestShardPlanBlockersExplainMerges: any shard with more than one
// table is justified by at least one blocker naming two of its tables.
func TestShardPlanBlockersExplainMerges(t *testing.T) {
	for _, g := range shardWorkloads(t) {
		plan := New(g.Set, nil).ShardPlan()
		for i, sh := range plan.Shards {
			if len(sh.Tables) < 2 {
				continue
			}
			member := map[string]bool{}
			for _, tb := range sh.Tables {
				member[tb] = true
			}
			found := false
			scratch := make([]int, 0, len(plan.tables))
			for _, bl := range plan.blockers {
				inside := 0
				for _, slot := range plan.slots(bl, scratch) {
					if member[plan.tables[slot]] {
						inside++
					}
				}
				if inside >= 2 {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("shard %d has %d tables but no blocker explains the merge:\n%s",
					i, len(sh.Tables), plan.String())
			}
		}
	}
}
