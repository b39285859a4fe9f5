// Package crashtest is the proof harness for the durability subsystem
// (internal/wal): it enumerates every injectable crash point of seeded
// workloads and asserts two invariants after each simulated crash:
//
//   - prefix consistency: the recovered state is content-identical
//     (fresh-engine StateHash) to some durable point of the crash-free
//     reference run — never a torn mixture, never a state the reference
//     run didn't pass through;
//   - idempotent recovery: recovering twice (including the first
//     recovery's log truncation) lands on the same state, and the
//     second recovery has nothing left to truncate.
//
// The crash points come from the filesystem fault layer of
// internal/faultinject over wal.MemFS: every state-changing filesystem
// operation of a run — each write, fsync, create, rename, remove,
// truncate — can be the moment the process dies, with the unsynced tail
// of every file torn at a seeded random point.
//
// The replication soak in internal/replica extends the same oracle
// across processes: a follower's StateHash must always be one of the
// leader's durable points, under network faults injected by the net
// fault domain of internal/faultinject.
package crashtest

import (
	"fmt"
	"math/rand"

	"activerules/internal/engine"
	"activerules/internal/faultinject"
	"activerules/internal/ruledef"
	"activerules/internal/rules"
	"activerules/internal/schema"
	"activerules/internal/storage"
	"activerules/internal/wal"
	"activerules/internal/workload"
)

// Dir is the WAL directory name used by all harness runs.
const Dir = "wal"

// Scenario is one deterministic durable workload: a compiled rule set
// plus a fixed schedule of user scripts, engine commits, and
// checkpoints. The same scenario replays identically on every
// filesystem, which is what makes crash-point enumeration meaningful.
type Scenario struct {
	G           *workload.Generated
	Scripts     []string
	Commits     []bool // Engine.Commit after this round
	Checkpoints []bool // log rotation after this round
}

// Build derives a scenario from a seed: an acyclic (terminating)
// generated rule set, a seeding script, and six rounds of user scripts
// with a commit every third round and one checkpoint in the middle.
func Build(seed int64) (*Scenario, error) {
	g, err := workload.Generate(workload.Config{
		Seed: seed, Rules: 5, Tables: 4, Acyclic: true,
		UpdateFrac: 0.35, DeleteFrac: 0.2, ConditionFrac: 0.3,
		WriteFanout: 2,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed * 31))
	sc := &Scenario{G: g}
	sc.addRound(seedScript(g.Schema, 3), true, false)
	for round := 0; round < 6; round++ {
		sc.addRound(workload.UserScript(g.Schema, rng, 1+rng.Intn(2)),
			round%3 == 2, round == 3)
	}
	return sc, nil
}

// BuildRollback returns a handwritten scenario whose rule set fires a
// ROLLBACK action whenever table b gains a row: every second round
// aborts its transaction, exercising abort records and the
// rolls-back-to-begin recovery rule under crash enumeration.
func BuildRollback() (*Scenario, error) {
	sch, err := schema.Parse("table a (id int, v int)\ntable b (id int, v int)")
	if err != nil {
		return nil, err
	}
	defs, err := ruledef.Parse(`
create rule mirror on a when inserted
then update a set v = v + 1 where id = 0

create rule nuke on b when inserted
then rollback
`)
	if err != nil {
		return nil, err
	}
	set, err := rules.NewSet(sch, defs)
	if err != nil {
		return nil, err
	}
	sc := &Scenario{G: &workload.Generated{Schema: sch, Defs: defs, Set: set}}
	sc.addRound("insert into a values (0, 0); insert into a values (1, 10)", true, false)
	sc.addRound("insert into b values (1, 1)", false, false) // aborts
	sc.addRound("insert into a values (2, 20)", true, false)
	sc.addRound("insert into b values (2, 2)", false, true) // aborts, then checkpoint
	sc.addRound("insert into a values (3, 30)", true, false)
	return sc, nil
}

func (sc *Scenario) addRound(script string, commit, checkpoint bool) {
	sc.Scripts = append(sc.Scripts, script)
	sc.Commits = append(sc.Commits, commit)
	sc.Checkpoints = append(sc.Checkpoints, checkpoint)
}

// seedScript populates every table like workload.SeedDatabase, but
// through the engine so the rows flow into the log.
func seedScript(sch *schema.Schema, n int) string {
	script := ""
	for _, t := range sch.TableNames() {
		for i := 0; i < n; i++ {
			if script != "" {
				script += "; "
			}
			script += fmt.Sprintf("insert into %s values (%d, %d)", t, i, i)
		}
	}
	return script
}

// FreshHash is the harness's state oracle: the StateHash of a fresh
// engine over a clone of db. A fresh engine has no pending transitions,
// so the hash is a pure function of database content — recovered states
// and reference states compare on equal terms.
func FreshHash(set *rules.Set, db *storage.DB) [32]byte {
	return engine.New(set, db.Clone(), engine.Options{}).StateHash()
}

// RunDurable executes the scenario against a WAL on fsys. When collect
// is non-nil it receives the FreshHash of every durable point, in
// order: session open, each quiescent assertion point (including the
// post-abort state when a rollback action fired), each engine commit,
// each checkpoint. It returns the first error the durable machinery
// surfaced — for a fault-injected filesystem that is the expected
// outcome, and the caller then recovers from the underlying filesystem.
func RunDurable(sc *Scenario, fsys wal.FS, opts wal.Options, collect func([32]byte)) error {
	opts.FS = fsys
	d, err := wal.Open(Dir, sc.G.Schema, opts)
	if err != nil {
		return err
	}
	db := d.State()
	db.SetObserver(d)
	eng := engine.New(sc.G.Set, db, engine.Options{MaxSteps: 5000, Journal: d})
	note := func() {
		if collect != nil {
			collect(FreshHash(sc.G.Set, eng.DB()))
		}
	}
	note()
	for round, script := range sc.Scripts {
		if _, err := eng.ExecUser(script); err != nil {
			d.Close()
			return fmt.Errorf("round %d script: %w", round, err)
		}
		if _, err := eng.Assert(); err != nil {
			d.Close()
			return fmt.Errorf("round %d assert: %w", round, err)
		}
		note()
		if sc.Commits[round] {
			if err := eng.Commit(); err != nil {
				d.Close()
				return fmt.Errorf("round %d commit: %w", round, err)
			}
			note()
		}
		if sc.Checkpoints[round] {
			if err := eng.Commit(); err != nil {
				d.Close()
				return fmt.Errorf("round %d pre-checkpoint commit: %w", round, err)
			}
			if err := d.Checkpoint(eng.DB()); err != nil {
				d.Close()
				return fmt.Errorf("round %d checkpoint: %w", round, err)
			}
			note()
		}
	}
	return d.Close()
}

// Probe runs the scenario crash-free under opts on a MemFS behind a
// disarmed injector, returning the reference durable-point hashes and
// the number of filesystem injection points the scenario has.
func Probe(sc *Scenario, opts wal.Options) (hashes [][32]byte, fsOps int, err error) {
	inj := faultinject.New(faultinject.Config{})
	inj.Disarm()
	err = RunDurable(sc, inj.WrapFS(wal.NewMemFS()), opts, func(h [32]byte) {
		hashes = append(hashes, h)
	})
	return hashes, inj.FSCalls(), err
}
