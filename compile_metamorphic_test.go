package activerules_test

// Metamorphic properties of the compiled hot path: observable behavior
// must be invariant under transformations that cannot matter — the
// order rules were loaded in, the explorer's worker count, and whether
// the delta-driven trigger index is maintained incrementally or rebuilt
// from scratch between steps. Each invariance is checked in both modes
// and cross-checked compiled-vs-interpreted.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"activerules"
	"activerules/internal/rules"
	"activerules/internal/workload"
)

// metamorphicWorkload is the shared branching workload: cyclic enough
// to cascade, conditioned enough to skip, observable enough to compare
// streams.
func metamorphicWorkload(t *testing.T) *workload.Generated {
	t.Helper()
	g, err := workload.Generate(workload.Config{
		Seed: 21, Rules: 10, Tables: 4, Acyclic: true, WriteFanout: 2,
		UpdateFrac: 0.3, DeleteFrac: 0.1, ConditionFrac: 0.4,
		TransRefFrac: 0.5, ObservableFrac: 0.4, PriorityDensity: 0.15,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func metamorphicScript(sch *activerules.Schema) (seed string, segs []string) {
	for _, tbl := range sch.TableNames() {
		seed += fmt.Sprintf("insert into %s values (0, 20), (1, 55), (2, 80);\n", tbl)
	}
	rng := rand.New(rand.NewSource(210))
	return seed, []string{workload.UserScript(sch, rng, 4), workload.UserScript(sch, rng, 3)}
}

// invariantView strips a modeRun down to what load-order permutation
// must preserve. Trace streams legitimately differ (the "choose" events
// list triggered rules in definition order), and StateHash covers
// engine bookkeeping indexed by definition order (per-rule marks), so
// neither is included; the database content, every count, and the
// observable stream may not differ.
type invariantView struct {
	considered  []int
	fired       []int
	rolledBack  []bool
	firedByRule []map[string]int
	observables []string
	assertErrs  []string
	finalDB     string
}

func view(r modeRun) invariantView {
	return invariantView{
		considered: r.considered, fired: r.fired, rolledBack: r.rolledBack,
		firedByRule: r.firedByRule, observables: r.observables,
		assertErrs: r.assertErrs, finalDB: r.finalDB,
	}
}

// TestCompileMetamorphicLoadOrder permutes the order rule definitions
// are loaded in. Under the deterministic FirstByName strategy the whole
// run — counts, observables, state hash — must be permutation-invariant
// in both modes (the strategy picks by name; candidate scanning and
// TriggeredRules only affect order within the eligible set).
func TestCompileMetamorphicLoadOrder(t *testing.T) {
	g := metamorphicWorkload(t)
	seed, segs := metamorphicScript(g.Schema)

	perms := map[string]func([]rules.Definition) []rules.Definition{
		"identity": func(d []rules.Definition) []rules.Definition { return d },
		"reversed": func(d []rules.Definition) []rules.Definition {
			out := append([]rules.Definition(nil), d...)
			for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
				out[i], out[j] = out[j], out[i]
			}
			return out
		},
		"name-desc": func(d []rules.Definition) []rules.Definition {
			out := append([]rules.Definition(nil), d...)
			sort.Slice(out, func(i, j int) bool { return out[i].Name > out[j].Name })
			return out
		},
		"shuffled": func(d []rules.Definition) []rules.Definition {
			out := append([]rules.Definition(nil), d...)
			rng := rand.New(rand.NewSource(5))
			rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
			return out
		},
	}

	var baseline *invariantView
	for name, perm := range perms {
		sys, err := activerules.FromDefinitions(g.Schema, perm(g.Defs))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		interp := runMode(t, sys, false, seed, segs, twinOptions{maxSteps: 500})
		comp := runMode(t, sys, true, seed, segs, twinOptions{maxSteps: 500})
		// Within one permutation the two modes must agree exactly,
		// including the state hash and the trace stream.
		if interp.stateHash != comp.stateHash {
			t.Errorf("%s: compiled state hash diverged from interpreted", name)
		}
		if !reflect.DeepEqual(interp.trace, comp.trace) {
			t.Errorf("%s: compiled trace diverged from interpreted", name)
		}
		for _, m := range []struct {
			label string
			run   modeRun
		}{{"interpreted", interp}, {"compiled", comp}} {
			v := view(m.run)
			if baseline == nil {
				baseline = &v
				continue
			}
			if !reflect.DeepEqual(*baseline, v) {
				t.Errorf("%s/%s: run diverged across load orders:\n baseline: %+v\n got:      %+v",
					name, m.label, *baseline, v)
			}
		}
	}
	if baseline != nil && len(baseline.observables) == 0 {
		t.Error("workload produced no observables; the invariance check is vacuous")
	}
}

// TestCompileMetamorphicExploreParallel model-checks one branching
// workload in both modes and requires identical verdicts, final states,
// and observable streams. The interpreted exploration is the oracle.
func TestCompileMetamorphicExploreParallel(t *testing.T) {
	g, err := workload.Generate(workload.Config{
		Seed: 4, Rules: 7, Tables: 3, Acyclic: true, WriteFanout: 2,
		UpdateFrac: 0.4, DeleteFrac: 0.1, ConditionFrac: 0.2, TransRefFrac: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := activerules.FromDefinitions(g.Schema, g.Defs)
	if err != nil {
		t.Fatal(err)
	}
	seed, _ := metamorphicScript(g.Schema)
	rng := rand.New(rand.NewSource(5))
	script := workload.UserScript(g.Schema, rng, 5)

	mkEngine := func(compiled bool) *activerules.Engine {
		eng := sys.NewEngine(sys.NewDB(), activerules.EngineOptions{MaxSteps: 500, Interpret: !compiled})
		if _, err := eng.ExecUser(seed); err != nil {
			t.Fatal(err)
		}
		if err := eng.Commit(); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.ExecUser(script); err != nil {
			t.Fatal(err)
		}
		return eng
	}

	type verdict struct {
		terminates   bool
		fingerprints [][32]byte
		streams      []string
	}
	render := func(res *activerules.ExploreResult) verdict {
		return verdict{
			terminates:   res.Terminates(),
			fingerprints: res.FinalFingerprints(),
			streams:      res.StreamRenderings(),
		}
	}

	opts := activerules.ExploreOptions{TrackObservables: true, MaxStates: 50000}
	oracleRes, err := activerules.Explore(mkEngine(false), opts)
	if err != nil {
		t.Fatal(err)
	}
	oracle := render(oracleRes)
	if len(oracle.fingerprints) == 0 {
		t.Fatal("oracle exploration found no final states")
	}

	res, err := activerules.Explore(mkEngine(true), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(res); !reflect.DeepEqual(got, oracle) {
		t.Errorf("compiled exploration diverged from the interpreted oracle\n got:    %+v\n oracle: %+v", got, oracle)
	}
}

// TestCompileMetamorphicRebuildIndex drives rule processing step by
// step and rebuilds the candidate index from scratch before every
// step. The incremental index is a lazy superset of the rebuilt
// fixpoint, and candidacy is filtered through the exact transition
// predicate, so the chosen rules — and therefore every observable —
// must be identical. The interpreted stepper is run too, as the oracle.
func TestCompileMetamorphicRebuildIndex(t *testing.T) {
	g := metamorphicWorkload(t)
	seed, segs := metamorphicScript(g.Schema)
	sys, err := activerules.FromDefinitions(g.Schema, g.Defs)
	if err != nil {
		t.Fatal(err)
	}

	// step mirrors one Assert iteration under FirstByName: consider the
	// eligible rule with the smallest name until quiescence.
	type stepRun struct {
		chosen []string
		fired  []bool
		finals []string // StateFingerprint after each segment's quiescence
	}
	drive := func(compiled, rebuild bool) stepRun {
		t.Helper()
		eng := sys.NewEngine(sys.NewDB(), activerules.EngineOptions{MaxSteps: 500, Interpret: !compiled})
		if _, err := eng.ExecUser(seed); err != nil {
			t.Fatal(err)
		}
		if err := eng.Commit(); err != nil {
			t.Fatal(err)
		}
		var run stepRun
		for _, seg := range segs {
			if _, err := eng.ExecUser(seg); err != nil {
				t.Fatal(err)
			}
			eng.BeginAssert()
			for steps := 0; ; steps++ {
				if steps > 500 {
					t.Fatal("stepper exceeded budget; workload is supposed to terminate")
				}
				if rebuild {
					eng.RebuildTriggerIndex()
				}
				eligible := eng.EligibleRules()
				if len(eligible) == 0 {
					break
				}
				r := eligible[0]
				for _, cand := range eligible[1:] {
					if cand.Name < r.Name {
						r = cand
					}
				}
				fired, _, rolled, err := eng.Consider(r)
				if err != nil {
					t.Fatalf("consider %s: %v", r.Name, err)
				}
				if rolled {
					t.Fatalf("unexpected rollback from %s", r.Name)
				}
				run.chosen = append(run.chosen, r.Name)
				run.fired = append(run.fired, fired)
			}
			run.finals = append(run.finals, eng.StateFingerprint())
			if err := eng.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		return run
	}

	oracle := drive(false, false)
	if len(oracle.chosen) == 0 {
		t.Fatal("oracle stepper considered no rules; workload is inert")
	}
	for _, tc := range []struct {
		label             string
		compiled, rebuild bool
	}{
		{"compiled-incremental", true, false},
		{"compiled-rebuilt", true, true},
		{"interpreted-rebuild-noop", false, true},
	} {
		got := drive(tc.compiled, tc.rebuild)
		if !reflect.DeepEqual(got, oracle) {
			t.Errorf("%s diverged from interpreted stepper:\n got:    %+v\n oracle: %+v", tc.label, got, oracle)
		}
	}
}
