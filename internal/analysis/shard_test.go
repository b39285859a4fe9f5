package analysis

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
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

// TestShardBlockerListsAreDisjoint: the table lists of one Blockers()
// result share an array, yet each is its own, and the result is the
// caller's. On gen256, every element of every list is overwritten with its
// blocker's own marker, and then every list is appended to; a list that
// overlapped another, or whose capacity ran into the next, shows a marker
// or an append not its own. Nothing is undone, yet the plan renders, marshals
// and lists its blockers as before.
func TestShardBlockerListsAreDisjoint(t *testing.T) {
	g := verdictWorkload(t, 1000003+256, 256)
	plan := New(g.Set, nil).SetRefinement(true).ShardPlan()
	bs := plan.Blockers()
	if len(bs) < 30000 {
		t.Fatalf("%d blockers: the set is supposed to be densely ordered", len(bs))
	}
	text := plan.String()
	js, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]ShardBlocker, len(bs))
	for i, bl := range bs {
		want[i] = bl
		want[i].Tables = slices.Clone(bl.Tables)
	}

	marker := func(i int) string { return fmt.Sprintf("#%d", i) }
	for i := range bs {
		for k := range bs[i].Tables {
			bs[i].Tables[k] = marker(i)
		}
	}
	for i := range bs {
		grown := append(bs[i].Tables, "appended")
		if grown[len(grown)-1] != "appended" {
			t.Fatalf("blocker %d (%s): the append was lost", i, bs[i].Rule)
		}
	}
	for i := range bs {
		if len(bs[i].Tables) != len(want[i].Tables) {
			t.Fatalf("blocker %d (%s) lists %d tables, want %d", i, bs[i].Rule, len(bs[i].Tables), len(want[i].Tables))
		}
		for _, got := range bs[i].Tables {
			if got != marker(i) {
				t.Fatalf("blocker %d (%s) was written through another's list: %v", i, bs[i].Rule, bs[i].Tables)
			}
		}
	}

	if plan.String() != text {
		t.Fatal("the plan renders differently")
	}
	if got, err := json.Marshal(plan); err != nil || string(got) != string(js) {
		t.Fatalf("the plan's JSON differs (%v)", err)
	}
	if !reflect.DeepEqual(plan.Blockers(), want) {
		t.Fatal("a second Blockers() differs from the first as it was returned")
	}
}

// TestShardPlanAllocs: rendering a plan takes the buffer and a scratch
// list, whatever the number of blockers; building one has no per-blocker
// term at all, at most one allocation per hundred priority blockers; and
// listing its blockers takes at most a quarter of an allocation per
// priority blocker (the edges' names are one string, the table lists one
// array). The per-blocker costs are the slopes between two totally
// ordered chains, where every pair of rules is a blocker and nothing else
// grows with the pairs.
func TestShardPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	g := verdictWorkload(t, 1000003+256, 256)
	plan := New(g.Set, nil).SetRefinement(true).ShardPlan()
	if len(plan.blockers) < 30000 {
		t.Fatalf("%d blockers: the set is supposed to be densely ordered", len(plan.blockers))
	}
	if got := testing.AllocsPerRun(5, func() { _ = plan.String() }); got > 2 {
		t.Errorf("String() of a %d-blocker plan: %.0f allocations, want at most 2", len(plan.blockers), got)
	}

	type cost struct{ plan, list float64 }
	chain := func(n int) (allocs cost, blockers int) {
		var src strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&src, "create rule r%d on a when inserted then insert into b values (1)\n", i)
			if i+1 < n {
				fmt.Fprintf(&src, "precedes r%d\n", i+1)
			}
			src.WriteString("\n")
		}
		a := compile(t, "table a (v int)\ntable b (v int)\n", src.String(), nil)
		p := a.ShardPlan()
		for _, bl := range p.Blockers() {
			if bl.Kind == BlockPriority {
				blockers++
			}
		}
		allocs.plan = testing.AllocsPerRun(3, func() { a.ShardPlan() })
		allocs.list = testing.AllocsPerRun(3, func() { p.Blockers() })
		return allocs, blockers
	}
	a32, b32 := chain(32)
	a96, b96 := chain(96)
	if b32 != 32*31/2 || b96 != 96*95/2 {
		t.Fatalf("chains of 32 and 96 rules have %d and %d priority blockers", b32, b96)
	}
	slope := func(what string, x32, x96, bound float64) {
		per := (x96 - x32) / float64(b96-b32)
		t.Logf("%s: %.0f allocations for %d priority blockers, %.0f for %d: %.3f per blocker", what, x96, b96, x32, b32, per)
		if per > bound {
			t.Errorf("%s: %.3f allocations per priority blocker, want at most %g", what, per, bound)
		}
	}
	slope("ShardPlan()", a32.plan, a96.plan, 0.01)
	slope("Blockers()", a32.list, a96.list, 0.25)
}
