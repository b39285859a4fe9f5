package execgraph

import (
	"fmt"
	"math/rand"
	"testing"

	"activerules/internal/engine"
	"activerules/internal/rules"
	"activerules/internal/storage"
	"activerules/internal/workload"
)

// workloadEngine builds a ready-to-explore engine from a generated
// workload: seeded database, user transition executed, assertion point
// not yet begun (the explorer does that on its internal clone).
func workloadEngine(t *testing.T, cfg workload.Config, rows, ops int) (*engine.Engine, *rules.Set) {
	t.Helper()
	g, err := workload.Generate(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, err)
	}
	db := workload.SeedDatabase(g.Schema, rows)
	e := engine.New(g.Set, db, engine.Options{})
	script := workload.UserScript(g.Schema, rand.New(rand.NewSource(cfg.Seed+1)), ops)
	if _, err := e.ExecUser(script); err != nil {
		t.Fatalf("seed %d: user script: %v", cfg.Seed, err)
	}
	return e, g.Set
}

// replayWitnesses checks every witness of a completed exploration
// against the engine itself: replaying the schedule from the initial
// state must reach the final database the witness is filed under.
func replayWitnesses(t *testing.T, label string, e *engine.Engine, set *rules.Set, res *Result) {
	t.Helper()
	for fp, path := range res.Witnesses {
		if replayWitness(t, e, set, path) != fp {
			t.Errorf("%s: witness %v replays to a different final state", label, path)
		}
	}
}

// replayWitness re-executes a witness schedule from the engine's initial
// state and returns the final database fingerprint it reaches.
func replayWitness(t *testing.T, e *engine.Engine, set *rules.Set, path []string) [32]byte {
	t.Helper()
	run := e.Clone()
	run.BeginAssert()
	for _, name := range path {
		r := set.Rule(name)
		if r == nil {
			t.Fatalf("witness names unknown rule %q", name)
		}
		if _, _, rolled, err := run.Consider(r); err != nil {
			t.Fatalf("witness replay: considering %q: %v", name, err)
		} else if rolled {
			break
		}
	}
	return run.DB().Fingerprint()
}

// diffConfigs are the generated workloads the differential and
// metamorphic suites run on: a spread over triggering topology (acyclic
// and cyclic), fanout, conditions, priorities, observables, and
// transition-table references. Seeds vary within each shape.
func diffConfigs() []workload.Config {
	var cfgs []workload.Config
	// Acyclic topologies, unordered rules: guaranteed-finite graphs with
	// heavy branching (every eligible set is explored in full).
	for seed := int64(1); seed <= 8; seed++ {
		cfgs = append(cfgs, workload.Config{
			Seed: seed, Rules: 7, Tables: 3, Acyclic: true,
			WriteFanout: 2, UpdateFrac: 0.4, DeleteFrac: 0.1,
			ConditionFrac: 0.2, TransRefFrac: 0.4,
		})
	}
	// Acyclic with observables: state identity folds in the stream.
	for seed := int64(20); seed <= 27; seed++ {
		cfgs = append(cfgs, workload.Config{
			Seed: seed, Rules: 6, Tables: 3, Acyclic: true,
			WriteFanout: 2, UpdateFrac: 0.5, ConditionFrac: 0.2,
			PriorityDensity: 0.1, ObservableFrac: 0.6, TransRefFrac: 0.3,
		})
	}
	// Cyclic topologies: triggering cycles appear, exercising cycle
	// detection (path-local and cross-path).
	for seed := int64(40); seed <= 47; seed++ {
		cfgs = append(cfgs, workload.Config{
			Seed: seed, Rules: 5, Tables: 2,
			WriteFanout: 1, UpdateFrac: 0.6, DeleteFrac: 0.2,
			ConditionFrac: 0.3, PriorityDensity: 0.1, TransRefFrac: 0.3,
		})
	}
	return cfgs
}

// TestDifferentialHandwritten pins Explore's outcome on handcrafted
// scenarios covering the shapes random generation rarely hits: genuine
// state-space cycles, rollback races, untriggering, and unbounded
// growth. The literals were recorded from Explore while a second,
// independently written explorer still agreed with it on every field.
func TestDifferentialHandwritten(t *testing.T) {
	type outcome struct {
		states, maxEligible, finals, streams int
		cycle, bound, rollback               bool
	}
	cases := []struct {
		name    string
		schema  string
		rules   string
		userOps string
		seed    func(*storage.DB)
		opts    Options
		want    outcome
	}{
		{
			name:   "confluent-diamond",
			schema: "table t (v int)\ntable a (v int)\ntable b (v int)",
			rules: `
create rule ra on t when inserted then insert into a select v from inserted
create rule rb on t when inserted then insert into b select v from inserted
`,
			userOps: "insert into t values (1)",
			want:    outcome{states: 4, maxEligible: 2, finals: 1},
		},
		{
			name:   "nonconfluent-race",
			schema: "table t (v int)\ntable trig (x int)",
			rules: `
create rule ra on trig when inserted then update t set v = 1
create rule rb on trig when inserted then update t set v = 2
`,
			userOps: "insert into trig values (0)",
			seed:    func(db *storage.DB) { db.MustInsert("t", storage.IntV(0)) },
			want:    outcome{states: 5, maxEligible: 2, finals: 2},
		},
		{
			name:   "flip-cycle",
			schema: "table t (v int)",
			rules: `
create rule flip on t when updated(v) then update t set v = 1 - v
`,
			userOps: "update t set v = 1",
			seed:    func(db *storage.DB) { db.MustInsert("t", storage.IntV(0)) },
			opts:    Options{MaxStates: 5000, MaxDepth: 500},
			want:    outcome{states: 2, maxEligible: 1, cycle: true},
		},
		{
			name:   "rollback-race",
			schema: "table t (v int)\ntable u (v int)",
			rules: `
create rule guard on t when inserted then rollback
create rule work on t when inserted then delete from t; insert into u values (1)
`,
			userOps: "insert into t values (1)",
			opts:    Options{TrackObservables: true},
			want:    outcome{states: 2, maxEligible: 2, finals: 2, streams: 2, rollback: true},
		},
		{
			name:   "untriggering",
			schema: "table t (v int)\ntable log (v int)",
			rules: `
create rule sweep on t when inserted then delete from t precedes keep
create rule keep on t when inserted then insert into log select v from inserted
`,
			userOps: "insert into t values (1)",
			want:    outcome{states: 2, maxEligible: 1, finals: 1},
		},
		{
			name:   "observable-race",
			schema: "table t (v int)",
			rules: `
create rule ra on t when inserted then select v from t where v >= 0
create rule rb on t when inserted then update t set v = v + 10
`,
			userOps: "insert into t values (1)",
			opts:    Options{TrackObservables: true},
			want:    outcome{states: 5, maxEligible: 2, finals: 1, streams: 2},
		},
		{
			name:   "growing-bound",
			schema: "table t (v int)",
			rules: `
create rule r on t when inserted then insert into t values (1)
`,
			userOps: "insert into t values (0)",
			opts:    Options{MaxStates: 200, MaxDepth: 100},
			want:    outcome{states: 101, maxEligible: 1, bound: true},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			e := prep(t, tc.schema, tc.rules, tc.userOps, tc.seed)
			res, err := Explore(e, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			got := outcome{
				states: res.StatesExplored, maxEligible: res.MaxEligible,
				finals: len(res.FinalDBs), streams: len(res.Streams),
				cycle: res.CycleDetected, bound: res.BoundExceeded, rollback: res.AnyRollback,
			}
			if got != tc.want {
				t.Errorf("got %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestDifferentialGeneratedWorkloads replays every witness Explore
// reports on the generated workloads, and requires enough of them to
// complete within the bound for that to mean something.
func TestDifferentialGeneratedWorkloads(t *testing.T) {
	completed := 0
	for _, cfg := range diffConfigs() {
		cfg := cfg
		t.Run(fmt.Sprintf("seed%d", cfg.Seed), func(t *testing.T) {
			e, set := workloadEngine(t, cfg, 3, 6)
			res, err := Explore(e, Options{TrackObservables: true, MaxStates: 1500})
			if err != nil {
				t.Fatal(err)
			}
			if res.BoundExceeded {
				return
			}
			completed++
			replayWitnesses(t, fmt.Sprintf("seed %d", cfg.Seed), e, set, res)
		})
	}
	if completed < 12 {
		t.Errorf("only %d workloads completed in-bounds; the differential corpus is too thin", completed)
	}
}

// TestDifferentialNoObservables covers the untracked-stream mode, where
// state identity is the bare (D, TR) fingerprint: folding the observable
// history into the identity may only split states, never change which
// final databases are reachable.
func TestDifferentialNoObservables(t *testing.T) {
	for _, cfg := range diffConfigs()[:8] {
		e, set := workloadEngine(t, cfg, 3, 6)
		bare, err := Explore(e, Options{MaxStates: 1500})
		if err != nil {
			t.Fatal(err)
		}
		tracked, err := Explore(e, Options{MaxStates: 1500, TrackObservables: true})
		if err != nil {
			t.Fatal(err)
		}
		if bare.BoundExceeded || tracked.BoundExceeded {
			continue
		}
		if len(bare.Streams) != 0 {
			t.Errorf("seed %d: %d streams recorded without TrackObservables", cfg.Seed, len(bare.Streams))
		}
		if bare.StatesExplored > tracked.StatesExplored {
			t.Errorf("seed %d: %d bare states, %d tracked", cfg.Seed, bare.StatesExplored, tracked.StatesExplored)
		}
		label := fmt.Sprintf("seed %d", cfg.Seed)
		want, got := summarize(tracked), summarize(bare)
		want.states, want.streams = got.states, got.streams
		compareVerdicts(t, label, want, got)
		replayWitnesses(t, label, e, set, bare)
	}
}
