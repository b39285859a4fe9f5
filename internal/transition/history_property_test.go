package transition_test

import (
	"fmt"
	"math/rand"
	"testing"

	"activerules/internal/engine"
	"activerules/internal/faultinject"
	"activerules/internal/ruledef"
	"activerules/internal/rules"
	"activerules/internal/schema"
	"activerules/internal/sqlmini"
	"activerules/internal/storage"
	"activerules/internal/transition"
	"activerules/internal/workload"
)

// recordedEngine opens an engine over db whose every primitive passes the
// reference's recorder and then an injector failing each with probability
// p, before it reaches the engine's own mutator.
func recordedEngine(set *rules.Set, db *storage.DB, opts engine.Options, p float64, seed int64) (*engine.Engine, *recorder, *faultinject.Injector) {
	rec := &recorder{db: db}
	inj := faultinject.New(faultinject.Config{P: p, Seed: seed})
	opts.WrapMutator = func(m engine.Mutator) engine.Mutator {
		rec.next = inj.Wrap(m)
		return rec
	}
	return engine.New(set, db, opts), rec, inj
}

// TestComputeTableMatchesRecordedReference: the history an engine's
// transaction leaves in storage yields, at every mark and on every
// table, the net the reference derives from its own recording of full
// old rows — taken outside the product, through Options.WrapMutator, the
// seam fault injection uses. Every run opens with the shapes a per-column
// history has to get right (one tuple updated on two columns and twice on
// one; update then delete, which every mark between the two sees as the
// delete of a tuple updated before the mark; insert, update, delete) and
// goes on with generated scripts and rule cascades in which injected
// faults roll scripts and considerations back midway, commits and
// rollbacks end the transaction, and forks taken mid-transaction are
// checked, written to and rolled back on their own.
func TestComputeTableMatchesRecordedReference(t *testing.T) {
	sch := schema.MustParse("table t (a int, b int, c int)\ntable u (a int, b int, c int)")
	defs, err := ruledef.Parse(`
create rule copy on t when inserted then insert into u select a, b, c from inserted
create rule wipe on t when deleted then delete from u where a in (select a from deleted)
create rule bump on u when updated(a) then update u set b = b + 1, c = c + 1 where a = 0
`)
	if err != nil {
		t.Fatal(err)
	}
	set, err := rules.NewSet(sch, defs)
	if err != nil {
		t.Fatal(err)
	}
	const prologue = `
update t set a = a + 1, b = b + 1 where c = 0; update t set b = b + 1 where c = 0;
update u set b = 5 where a = 1; delete from u where a = 1;
insert into t values (7, 7, 7); update t set c = 8 where a = 7; delete from t where a = 7`

	faults, forks := 0, 0
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := storage.NewDB(sch)
		for i := int64(0); i < 3; i++ {
			db.MustInsert("t", storage.IntV(i), storage.IntV(i), storage.IntV(0))
			db.MustInsert("u", storage.IntV(i), storage.IntV(0), storage.IntV(i))
		}
		e, rec, inj := recordedEngine(set, db, engine.Options{}, 0.15, seed)
		inj.Disarm()
		sc := &transition.Scratch{}
		check := func(db *storage.DB, rec *recorder, what string) {
			t.Helper()
			if err := checkAgainstReference(db, rec, sc); err != nil {
				t.Fatalf("seed %d, after %s: %v", seed, what, err)
			}
		}
		assert := func() {
			for try := 0; ; try++ {
				_, err := e.Assert()
				check(db, rec, "assert")
				if err == nil {
					return
				}
				if try == 50 {
					t.Fatalf("seed %d: assert keeps failing: %v", seed, err)
				}
			}
		}
		if _, err := e.ExecUser(prologue); err != nil {
			t.Fatal(err)
		}
		check(db, rec, "the prologue")
		assert()

		inj.Arm()
		for step := 0; step < 25; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				script := randomScript(rng)
				_, err := e.ExecUser(script)
				check(db, rec, fmt.Sprintf("script %q (err %v)", script, err))
			case op < 8:
				assert()
			case op == 8:
				var err error
				if rng.Intn(2) == 0 {
					err = e.Commit()
				} else {
					err = e.Rollback()
				}
				if err != nil {
					t.Fatal(err)
				}
				check(db, rec, "the end of the transaction")
			default:
				forks++
				fork := db.Fork()
				frec := &recorder{db: fork, next: sqlmini.DirectMutator(fork), entries: append([]refEntry(nil), rec.entries[:rec.Mark()]...)}
				check(fork, frec, "the fork")
				sp := fork.Savepoint()
				if ids := fork.Table("t").IDs(); len(ids) > 0 {
					doUpdate(frec, "t", ids[0], "a", storage.IntV(5))
					doUpdate(frec, "t", ids[0], "b", storage.IntV(5))
					doDelete(frec, "t", ids[0])
				}
				doInsert(frec, "u", storage.IntV(1), storage.IntV(1), storage.IntV(1))
				check(fork, frec, "writing to the fork")
				check(db, rec, "writing to the fork (the original)")
				if rng.Intn(2) == 0 {
					fork.RollbackTo(sp)
				} else {
					fork.Release(sp)
				}
				check(fork, frec, "the fork's savepoint ended")
			}
		}
		faults += inj.Faults()
	}
	if faults == 0 || forks == 0 {
		t.Errorf("%d injected faults and %d forks: the runs must include both", faults, forks)
	}
}

// TestComputeTableMatchesRecordedReferenceGenerated is the same check
// over generated rule sets (the compile differential's shape: updates,
// deletes, conditions, transition-table references, cycles cut short by
// the step budget), three assertion points and a commit each, with faults
// injected throughout.
func TestComputeTableMatchesRecordedReferenceGenerated(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		g, err := workload.Generate(workload.Config{
			Seed: seed, Rules: 12, Tables: 4, Acyclic: seed%2 == 0,
			WriteFanout: 2, UpdateFrac: 0.35, DeleteFrac: 0.2,
			ConditionFrac: 0.3, TransRefFrac: 0.5, PriorityDensity: 0.2,
		})
		if err != nil {
			t.Fatal(err)
		}
		db := workload.SeedDatabase(g.Schema, 3)
		e, rec, _ := recordedEngine(g.Set, db, engine.Options{MaxSteps: 60}, 0.05, seed)
		sc := &transition.Scratch{}
		rng := rand.New(rand.NewSource(seed * 31))
		for seg := 0; seg < 3; seg++ {
			_, err := e.ExecUser(workload.UserScript(g.Schema, rng, 3))
			for try := 0; try < 3; try++ {
				if cerr := checkAgainstReference(db, rec, sc); cerr != nil {
					t.Fatalf("seed %d, segment %d (err %v): %v", seed, seg, err, cerr)
				}
				_, err = e.Assert() // a fault suspends it; the next call resumes
			}
			if seg == 1 {
				if err := e.Commit(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// randomScript is one to three statements over t and u with values small
// enough to collide.
func randomScript(rng *rand.Rand) string {
	v := func() int64 { return rng.Int63n(3) }
	col := func() string { return []string{"a", "b", "c"}[rng.Intn(3)] }
	script := ""
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		tbl := []string{"t", "u"}[rng.Intn(2)]
		switch rng.Intn(5) {
		case 0:
			script += fmt.Sprintf("insert into %s values (%d, %d, %d); ", tbl, v(), v(), v())
		case 1:
			script += fmt.Sprintf("delete from %s where %s = %d; ", tbl, col(), v())
		case 2:
			script += fmt.Sprintf("update %s set %s = %d, b = b + 1 where %s = %d; ", tbl, []string{"a", "c"}[rng.Intn(2)], v(), col(), v())
		default:
			script += fmt.Sprintf("update %s set %s = %d where %s = %d; ", tbl, col(), v(), col(), v())
		}
	}
	return script
}
