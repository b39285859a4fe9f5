package activerules_test

// Property-based invariants (testing/quick) over randomized rule sets:
// the algebraic laws the paper's constructions rely on, checked across
// the whole stack.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"activerules/internal/analysis"
	"activerules/internal/engine"
	"activerules/internal/execgraph"
	"activerules/internal/rules"
	"activerules/internal/workload"
)

// rulesRuleAlias keeps the quick property signatures readable.
type rulesRuleAlias = rules.Rule

func quickCfg(max int) *quick.Config { return &quick.Config{MaxCount: max} }

// randomSet generates a compiled rule set from quick-supplied knobs.
func randomSet(seed int64, nRules, nTables uint8, prio float64) *workload.Generated {
	g, err := workload.Generate(workload.Config{
		Seed:  seed,
		Rules: int(nRules%8) + 2, Tables: int(nTables%4) + 2,
		UpdateFrac: 0.35, DeleteFrac: 0.15, ConditionFrac: 0.3,
		PriorityDensity: prio - float64(int(prio)), ObservableFrac: 0.2,
	})
	if err != nil {
		panic(err)
	}
	return g
}

// Property: Commute is reflexive and symmetric (Lemma 6.1's conditions
// include the symmetric closure, so the verdict cannot depend on
// argument order).
func TestPropCommuteSymmetric(t *testing.T) {
	f := func(seed int64, nRules, nTables uint8, prio float64) bool {
		g := randomSet(seed, nRules, nTables, prio)
		a := analysis.New(g.Set, nil)
		rs := g.Set.Rules()
		for _, ri := range rs {
			if ok, _ := a.Commute(ri, ri); !ok {
				return false
			}
			for _, rj := range rs {
				ab, _ := a.Commute(ri, rj)
				ba, _ := a.Commute(rj, ri)
				if ab != ba {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(40)); err != nil {
		t.Error(err)
	}
}

// Property: the priority relation is a strict partial order — transitive
// and irreflexive — and Ordered/Unordered partition distinct pairs.
func TestPropPriorityPartialOrder(t *testing.T) {
	f := func(seed int64, nRules uint8, prio float64) bool {
		g := randomSet(seed, nRules, 3, prio)
		set := g.Set
		rs := set.Rules()
		for _, a := range rs {
			if set.Higher(a, a) {
				return false
			}
			for _, b := range rs {
				if a != b && set.Ordered(a, b) == set.Unordered(a, b) {
					return false
				}
				for _, c := range rs {
					if set.Higher(a, b) && set.Higher(b, c) && !set.Higher(a, c) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(30)); err != nil {
		t.Error(err)
	}
}

// Property: Choose returns exactly the triggered rules with no
// higher-priority triggered rule (the Section 3 definition).
func TestPropChooseDefinition(t *testing.T) {
	f := func(seed int64, nRules uint8, prio float64, mask uint16) bool {
		g := randomSet(seed, nRules, 3, prio)
		set := g.Set
		var triggered []*analysisRule
		for i, r := range set.Rules() {
			if mask&(1<<uint(i%16)) != 0 {
				triggered = append(triggered, r)
			}
		}
		chosen := set.Choose(nil, triggered, nil)
		inChosen := map[string]bool{}
		for _, r := range chosen {
			inChosen[r.Name] = true
		}
		for _, ri := range triggered {
			blocked := false
			for _, rj := range triggered {
				if rj != ri && set.Higher(rj, ri) {
					blocked = true
				}
			}
			if blocked == inChosen[ri.Name] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(40)); err != nil {
		t.Error(err)
	}
}

type analysisRule = rulesRuleAlias

// Property: Sig is monotone in T' — adding tables never shrinks the
// significant set (Definition 7.1's seed grows, and the closure is
// monotone in its seed).
func TestPropSigMonotone(t *testing.T) {
	f := func(seed int64, nRules, nTables uint8) bool {
		g := randomSet(seed, nRules, nTables, 0.3)
		a := analysis.New(g.Set, nil)
		tables := g.Schema.TableNames()
		small := a.Sig(tables[:1])
		large := a.Sig(tables)
		inLarge := map[string]bool{}
		for _, r := range large {
			inLarge[r.Name] = true
		}
		for _, r := range small {
			if !inLarge[r.Name] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(40)); err != nil {
		t.Error(err)
	}
}

// Property: any single engine run's final database is among the final
// states found by exhaustive exploration, for every strategy.
func TestPropRunWithinExploration(t *testing.T) {
	f := func(seed int64, nRules uint8, stratSeed int64) bool {
		g, err := workload.Generate(workload.Config{
			Seed: seed, Rules: int(nRules%4) + 2, Tables: 3, Acyclic: true,
			UpdateFrac: 0.3, DeleteFrac: 0.15, ConditionFrac: 0.3,
		})
		if err != nil {
			return false
		}
		db := workload.SeedDatabase(g.Schema, 2)
		e := engine.New(g.Set, db, engine.Options{})
		rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
		if _, err := e.ExecUser(workload.UserScript(g.Schema, rng, 2)); err != nil {
			return false
		}
		res, err := execgraph.Explore(e, execgraph.Options{MaxStates: 20000, MaxDepth: 300})
		if err != nil || !res.Terminates() {
			return true // inconclusive instance; property vacuous
		}
		for _, strat := range []engine.Strategy{
			engine.FirstByName{}, engine.LastByName{}, engine.NewSeeded(stratSeed),
		} {
			run := e.Clone()
			run.SetStrategy(strat)
			if _, err := run.Assert(); err != nil {
				return false
			}
			if _, ok := res.FinalDBs[run.DB().Fingerprint()]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(25)); err != nil {
		t.Error(err)
	}
}

// Property: FirstByName runs are exactly reproducible.
func TestPropDeterministicReplay(t *testing.T) {
	f := func(seed int64, nRules uint8) bool {
		g, err := workload.Generate(workload.Config{
			Seed: seed, Rules: int(nRules%5) + 2, Tables: 3, Acyclic: true,
			UpdateFrac: 0.3, ConditionFrac: 0.3,
		})
		if err != nil {
			return false
		}
		run := func() string {
			db := workload.SeedDatabase(g.Schema, 2)
			e := engine.New(g.Set, db, engine.Options{})
			rng := rand.New(rand.NewSource(seed))
			if _, err := e.ExecUser(workload.UserScript(g.Schema, rng, 2)); err != nil {
				return "err"
			}
			if _, err := e.Assert(); err != nil {
				return "err"
			}
			return e.StateFingerprint()
		}
		return run() == run()
	}
	if err := quick.Check(f, quickCfg(25)); err != nil {
		t.Error(err)
	}
}
