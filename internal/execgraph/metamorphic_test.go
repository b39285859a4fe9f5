package execgraph

import (
	"fmt"
	"math/rand"
	"testing"

	"activerules/internal/engine"
	"activerules/internal/rules"
	"activerules/internal/schema"
	"activerules/internal/workload"
)

// verdict is the declaration-order-independent summary of an
// exploration: everything the explorer promises to hold invariant under
// rule permutation.
type verdict struct {
	states      int
	finals      map[[32]byte]bool
	streams     map[string]bool
	branching   bool
	cycle       bool
	bound       bool
	anyRollback bool
	maxEligible int
}

func summarize(r *Result) verdict {
	v := verdict{
		states:      r.StatesExplored,
		finals:      make(map[[32]byte]bool),
		streams:     make(map[string]bool),
		branching:   r.Branching,
		cycle:       r.CycleDetected,
		bound:       r.BoundExceeded,
		anyRollback: r.AnyRollback,
		maxEligible: r.MaxEligible,
	}
	for fp := range r.FinalDBs {
		v.finals[fp] = true
	}
	for s := range r.Streams {
		v.streams[s] = true
	}
	return v
}

func compareVerdicts(t *testing.T, label string, want, got verdict) {
	t.Helper()
	if want.bound || got.bound {
		if want.bound != got.bound {
			t.Errorf("%s: BoundExceeded: want %v, got %v", label, want.bound, got.bound)
		}
		return
	}
	if got.states != want.states {
		t.Errorf("%s: StatesExplored: want %d, got %d", label, want.states, got.states)
	}
	if got.branching != want.branching {
		t.Errorf("%s: Branching: want %v, got %v", label, want.branching, got.branching)
	}
	if got.cycle != want.cycle {
		t.Errorf("%s: CycleDetected: want %v, got %v", label, want.cycle, got.cycle)
	}
	if got.anyRollback != want.anyRollback {
		t.Errorf("%s: AnyRollback: want %v, got %v", label, want.anyRollback, got.anyRollback)
	}
	if got.maxEligible != want.maxEligible {
		t.Errorf("%s: MaxEligible: want %d, got %d", label, want.maxEligible, got.maxEligible)
	}
	if len(got.finals) != len(want.finals) {
		t.Errorf("%s: final states: want %d, got %d", label, len(want.finals), len(got.finals))
	} else {
		for fp := range want.finals {
			if !got.finals[fp] {
				t.Errorf("%s: a final fingerprint is missing", label)
				break
			}
		}
	}
	if len(got.streams) != len(want.streams) {
		t.Errorf("%s: streams: want %d, got %d", label, len(want.streams), len(got.streams))
	} else {
		for s := range want.streams {
			if !got.streams[s] {
				t.Errorf("%s: a stream is missing", label)
				break
			}
		}
	}
}

// engineFromSet builds an explorable engine from an already-compiled
// rule set, reusing the deterministic workload seed and user script.
func engineFromSet(t *testing.T, sch *schema.Schema, set *rules.Set, seed int64, rows, ops int) *engine.Engine {
	t.Helper()
	db := workload.SeedDatabase(sch, rows)
	e := engine.New(set, db, engine.Options{})
	script := workload.UserScript(sch, rand.New(rand.NewSource(seed+1)), ops)
	if _, err := e.ExecUser(script); err != nil {
		t.Fatalf("user script: %v", err)
	}
	return e
}

// TestMetamorphicRuleOrderPermutation pins the explorer's metamorphic
// relation: permuting the rule declaration order must not change any
// verdict. Rule order affects only internal iteration (state hashing,
// eligible-rule ordering), never the explored state space — final
// database fingerprints and stream renderings are order-free, so they
// compare across permutations directly.
func TestMetamorphicRuleOrderPermutation(t *testing.T) {
	for _, cfg := range []workload.Config{diffConfigs()[1], diffConfigs()[5], diffConfigs()[21]} {
		g, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{TrackObservables: true, MaxStates: 1500}
		base := verdict{}
		for perm := 0; perm < 4; perm++ {
			defs := append([]rules.Definition(nil), g.Defs...)
			if perm > 0 {
				rand.New(rand.NewSource(int64(perm))).Shuffle(len(defs), func(i, j int) {
					defs[i], defs[j] = defs[j], defs[i]
				})
			}
			set, err := rules.NewSet(g.Schema, defs)
			if err != nil {
				t.Fatalf("seed %d perm %d: %v", cfg.Seed, perm, err)
			}
			e := engineFromSet(t, g.Schema, set, cfg.Seed, 3, 6)
			res, err := Explore(e, opts)
			if err != nil {
				t.Fatal(err)
			}
			if perm == 0 {
				base = summarize(res)
				continue
			}
			compareVerdicts(t, fmt.Sprintf("seed %d perm %d", cfg.Seed, perm), base, summarize(res))
		}
	}
}
