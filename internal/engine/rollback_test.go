package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"activerules/internal/storage"
)

// journalRecorder records the transaction-boundary calls it receives.
type journalRecorder struct {
	ops []string
	err error // returned by every call when non-nil
}

func (j *journalRecorder) Begin() error  { j.ops = append(j.ops, "begin"); return j.err }
func (j *journalRecorder) Commit() error { j.ops = append(j.ops, "commit"); return j.err }
func (j *journalRecorder) Abort() error  { j.ops = append(j.ops, "abort"); return j.err }

// TestRollbackRestoresTransactionStart pins the caller-driven Rollback:
// everything since the last Commit — committed assertion points
// included — is undone, exactly like a rule ROLLBACK action.
func TestRollbackRestoresTransactionStart(t *testing.T) {
	set, db := mkSet(t, `
table account (id int, owner string)
table audit (id int, owner string)
`, `
create rule r_audit on account
when inserted
then insert into audit select id, owner from inserted
`)
	e := New(set, db, Options{})
	if _, err := e.ExecUser("insert into account values (1, 'ann')"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Assert(); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(); err != nil {
		t.Fatal(err)
	}
	committed := e.DB().Clone()

	if _, err := e.ExecUser("insert into account values (2, 'bob')"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Assert(); err != nil {
		t.Fatal(err)
	}
	if e.DB().Equal(committed) {
		t.Fatal("second transaction had no visible effect; test is vacuous")
	}
	if err := e.Rollback(); err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	sameState(t, "after Rollback", e.DB(), committed)
	if e.InFlight() {
		t.Error("Rollback left processing suspended")
	}
	// The engine must be fully usable afterwards.
	if _, err := e.ExecUser("insert into account values (3, 'cyd')"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Assert(); err != nil {
		t.Fatal(err)
	}
	if got := e.DB().Table("audit").Len(); got != 2 {
		t.Errorf("audit rows after rollback+new transaction = %d, want 2", got)
	}
}

// TestRollbackClearsSuspendedAssert drives processing into the
// suspended (InFlight) state via cancellation, then checks Rollback
// clears the suspension and discards the unconsumed transition — the
// serving layer's failed-request path.
func TestRollbackClearsSuspendedAssert(t *testing.T) {
	set, db := mkSet(t, "table t (v int)\ntable u (v int)", `
create rule r on t
when inserted
then insert into u select v from inserted
`)
	e := New(set, db, Options{})
	if _, err := e.ExecUser("insert into t values (1)"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.AssertContext(ctx)
	var ce *CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("AssertContext = %v, want *CancelledError", err)
	}
	if !e.InFlight() {
		t.Fatal("expected suspended processing")
	}
	if err := e.Rollback(); err != nil {
		t.Fatal(err)
	}
	if e.InFlight() {
		t.Error("Rollback left processing suspended")
	}
	// The transition was discarded with the transaction: a fresh assert
	// has nothing to do.
	res, err := e.Assert()
	if err != nil {
		t.Fatal(err)
	}
	if res.Considered != 0 {
		t.Errorf("post-rollback assert considered %d rules, want 0 (transition discarded)", res.Considered)
	}
	if db := e.DB(); db.Table("t").Len() != 0 || db.Table("u").Len() != 0 {
		t.Error("rollback did not empty the database")
	}
}

// TestRollbackJournalsAbort checks the durable side: Rollback writes an
// abort record, and a journal failure surfaces as a *DurabilityError
// while the in-memory rollback still happened.
func TestRollbackJournalsAbort(t *testing.T) {
	set, db := mkSet(t, "table t (v int)\ntable u (v int)", `
create rule r on t
when inserted
then insert into u select v from inserted
`)
	j := &journalRecorder{}
	e := New(set, db, Options{Journal: j})
	if _, err := e.ExecUser("insert into t values (1)"); err != nil {
		t.Fatal(err)
	}
	if err := e.Rollback(); err != nil {
		t.Fatal(err)
	}
	if len(j.ops) != 1 || j.ops[0] != "abort" {
		t.Errorf("journal ops = %v, want [abort]", j.ops)
	}

	j.err = errors.New("disk gone")
	if _, err := e.ExecUser("insert into t values (2)"); err != nil {
		t.Fatal(err)
	}
	err := e.Rollback()
	var de *DurabilityError
	if !errors.As(err, &de) || de.Op != "abort" {
		t.Fatalf("Rollback with failing journal = %v, want *DurabilityError{Op: abort}", err)
	}
	if e.DB().Table("t").Len() != 0 {
		t.Error("in-memory rollback must happen even when the journal fails")
	}
}

// sameState fails the test unless got matches want in everything a
// rollback must restore: contents, per-table iteration order, and the
// identity allocator.
func sameState(t *testing.T, when string, got, want *storage.DB) {
	t.Helper()
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("%s: contents differ:\n got %s\nwant %s", when, got, want)
	}
	if got.NextID() != want.NextID() {
		t.Fatalf("%s: NextID = %d, want %d", when, got.NextID(), want.NextID())
	}
	for _, name := range want.Schema().TableNames() {
		if g, w := got.Table(name).IDs(), want.Table(name).IDs(); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: table %s iterates %v, want %v", when, name, g, w)
		}
	}
}

// fuse is a WrapMutator seam that fails or panics on the in-th
// primitive mutation after it is armed, once: the statement holding it
// applies its earlier primitives and fails there.
type fuse struct {
	in    int
	panic bool
}

type fusedMutator struct {
	Mutator
	f *fuse
}

func (f *fuse) wrap(m Mutator) Mutator { return fusedMutator{m, f} }

// pass takes a statement of n primitives off the fuse and returns how
// many of them run before it blows: n when it does not.
func (f *fuse) pass(n int) int {
	if f.in == 0 || f.in > n {
		if f.in > 0 {
			f.in -= n
		}
		return n
	}
	k := f.in - 1
	f.in = 0
	return k
}

// blown fails, or panics, as the blown fuse.
func (f *fuse) blown() error {
	if f.panic {
		panic("fuse blown")
	}
	return errors.New("fuse blown")
}

func (m fusedMutator) Insert(table string, rows [][]storage.Value) (int, error) {
	k := m.f.pass(len(rows))
	if n, err := m.Mutator.Insert(table, rows[:k]); err != nil || k == len(rows) {
		return n, err
	}
	return k, m.f.blown()
}

func (m fusedMutator) Delete(table string, ids []storage.TupleID) error {
	k := m.f.pass(len(ids))
	if err := m.Mutator.Delete(table, ids[:k]); err != nil || k == len(ids) {
		return err
	}
	return m.f.blown()
}

func (m fusedMutator) Update(table string, cols []string, ids []storage.TupleID, vals []storage.Value) error {
	nc := len(cols)
	k := m.f.pass(len(ids) * nc)
	r, c := k/nc, k%nc // whole rows, then the columns of the next
	if err := m.Mutator.Update(table, cols, ids[:r], vals[:r*nc]); err != nil || k == len(ids)*nc {
		return err
	}
	if err := m.Mutator.Update(table, cols[:c], ids[r:r+1], vals[r*nc:r*nc+c]); err != nil {
		return err
	}
	return m.f.blown()
}

// TestRollbackMatchesCloneOracle is the differential oracle for the
// engine's one rollback mechanism. storage.Clone is the reference: a
// copy taken at every transaction start is what any rollback — a rule's
// ROLLBACK action or the caller's Rollback, after any mix of scripts,
// failed scripts, failed, panicked, cancelled and resumed assertions —
// must reproduce exactly (contents, iteration order, identity
// allocator), in place. Forks taken mid-transaction must roll back to
// the same state without touching their parent, and vice versa.
func TestRollbackMatchesCloneOracle(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		t.Run(fmt.Sprintf("compiled=true/seed=%d", seed), func(t *testing.T) {
			rollbackScenario(t, seed, nil)
		})
	}
}

// rollbackScenario runs one seeded scenario of the clone oracle. each,
// when non-nil, is called with the engine before every step and once
// after the last; it must not draw from the scenario's own randomness
// (the memo oracle in memo_test.go rides along this way).
func rollbackScenario(t *testing.T, seed int64, each func(step int, e *Engine)) {
	const steps = 60
	const schemaSrc = "table t (v int)\ntable u (v int)\ntable w (v int)"
	const rulesSrc = `
create rule r_bad on t when inserted
if exists (select 1 from inserted where v = 13)
then update w set v = v / 0

create rule r_copy on t when inserted
then insert into u select v from inserted

create rule r_guard on t when inserted
if exists (select 1 from inserted where v < 0)
then rollback

create rule r_trim on u when inserted
if exists (select 1 from inserted where v > 80)
then delete from t where v > 80; update w set v = v + 1
`
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(seed))
	set, db := mkSet(t, schemaSrc, rulesSrc)
	db.MustInsert("w", storage.IntV(0))
	f := &fuse{}
	e := New(set, db, Options{WrapMutator: f.wrap})
	oracle := db.Clone()
	value := func() int {
		v := rng.Intn(100)
		if v == 13 {
			v = 14
		}
		return v
	}
	script := func() string {
		src := ""
		for n := 1 + rng.Intn(3); n > 0; n-- {
			switch rng.Intn(6) {
			case 0, 1:
				src += fmt.Sprintf("insert into t values (%d); ", value())
			case 2:
				src += fmt.Sprintf("update t set v = v + 100 where v < %d; ", value())
			case 3:
				src += fmt.Sprintf("delete from t where v < %d; ", value())
			case 4:
				src += "delete from u; " // mass delete: the compaction shape
			case 5:
				src += fmt.Sprintf("insert into w values (%d); ", value())
			}
		}
		return src
	}
	// settle runs rule processing to quiescence, resuming past
	// a blown fuse (a failed or panicked consideration).
	settle := func(e *Engine) Result {
		t.Helper()
		res, err := e.Assert()
		f.in = 0
		if err != nil {
			if res, err = e.Assert(); err != nil {
				t.Fatalf("resumed assert: %v", err)
			}
		}
		return res
	}
	rolledBack := func(when string) {
		t.Helper()
		if e.DB() != db {
			t.Fatalf("%s: rollback replaced the engine's database", when)
		}
		sameState(t, when, db, oracle)
	}
	for step := 0; step < steps; step++ {
		if each != nil {
			each(step, e)
		}
		when := fmt.Sprintf("step %d", step)
		switch op := rng.Intn(10); op {
		case 0, 1: // script, possibly failing or panicking midway
			f.in, f.panic = rng.Intn(4), rng.Intn(2) == 0
			before := db.Clone()
			if _, err := e.ExecUser(script()); err != nil {
				sameState(t, when+": failed script", db, before)
			}
			f.in = 0
		case 2: // script whose last statement fails
			before := db.Clone()
			if _, err := e.ExecUser(script() + "insert into t values (1/0)"); err == nil {
				t.Fatalf("%s: division by zero did not fail the script", when)
			}
			sameState(t, when+": failed script", db, before)
		case 3: // assertion, with a consideration failing or panicking
			f.in, f.panic = rng.Intn(3), rng.Intn(2) == 0
			settle(e)
		case 4: // cancelled assertion, left suspended for a later resume
			if _, err := e.AssertContext(cancelled); err == nil {
				t.Fatalf("%s: cancelled assert succeeded", when)
			}
		case 5: // rule-directed rollback
			if _, err := e.ExecUser(script() + "insert into t values (-1)"); err != nil {
				t.Fatal(err)
			}
			if res := settle(e); !res.RolledBack {
				t.Fatalf("%s: r_guard did not roll back", when)
			}
			rolledBack(when + ": rule rollback")
		case 6: // a consideration that fails every time: only Rollback clears it
			if _, err := e.ExecUser("insert into t values (13)"); err != nil {
				t.Fatal(err)
			}
			var xe *ExecError
			if _, err := e.Assert(); !errors.As(err, &xe) || xe.Rule != "r_bad" {
				t.Fatalf("%s: assert = %v, want r_bad's *ExecError", when, err)
			}
			if err := e.Rollback(); err != nil {
				t.Fatal(err)
			}
			rolledBack(when + ": Rollback after failed consideration")
		case 7: // caller rollback, wherever processing stands
			if err := e.Rollback(); err != nil {
				t.Fatal(err)
			}
			rolledBack(when + ": Rollback")
		case 8:
			if err := e.Commit(); err != nil {
				t.Fatal(err)
			}
			oracle = db.Clone()
		case 9: // fork mid-transaction; roll each side back under the other
			mid := db.Clone()
			fork := e.Clone()
			if err := fork.Rollback(); err != nil {
				t.Fatal(err)
			}
			sameState(t, when+": fork rollback", fork.DB(), oracle)
			sameState(t, when+": parent under fork rollback", db, mid)
			fork = e.Clone()
			if err := e.Rollback(); err != nil {
				t.Fatal(err)
			}
			rolledBack(when + ": parent rollback")
			sameState(t, when+": fork under parent rollback", fork.DB(), mid)
			// The fork is a working engine in the same transaction.
			if res := settle(fork); !res.RolledBack {
				if err := fork.Rollback(); err != nil {
					t.Fatal(err)
				}
			}
			sameState(t, when+": fork rollback after parent's", fork.DB(), oracle)
		}
	}
	if each != nil {
		each(steps, e)
	}
}

// countingObserver counts the physical mutations reported to it.
type countingObserver struct{ n int }

func (o *countingObserver) ObserveInsert(string, storage.TupleID, []storage.Value) { o.n++ }
func (o *countingObserver) ObserveDelete(string, storage.TupleID)                  { o.n++ }
func (o *countingObserver) ObserveUpdate(string, storage.TupleID, string, storage.Value) {
	o.n++
}

// TestRollbackKeepsDatabaseAndObserver pins that rollback happens in
// place: Engine.DB() is one pointer for the engine's life, with the
// same observer attached, across a rule ROLLBACK and a caller Rollback —
// and that the observer hears nothing of either (the journal's abort
// record is what neutralizes the transaction in a redo log).
func TestRollbackKeepsDatabaseAndObserver(t *testing.T) {
	set, db := mkSet(t, "table t (v int)", `
create rule r on t
when inserted
if exists (select 1 from inserted where v < 0)
then rollback
`)
	obs := &countingObserver{}
	db.SetObserver(obs)
	e := New(set, db, Options{})
	check := func(when string, wantSeen int) {
		t.Helper()
		if e.DB() != db {
			t.Fatalf("%s: Engine.DB() changed", when)
		}
		if db.Observer() != storage.Observer(obs) {
			t.Fatalf("%s: observer detached", when)
		}
		if obs.n != wantSeen {
			t.Fatalf("%s: observer saw %d mutations, want %d", when, obs.n, wantSeen)
		}
		if db.Table("t").Len() != 0 {
			t.Fatalf("%s: rollback left %d rows", when, db.Table("t").Len())
		}
	}
	if _, err := e.ExecUser("insert into t values (1); insert into t values (-5)"); err != nil {
		t.Fatal(err)
	}
	if res, err := e.Assert(); err != nil || !res.RolledBack {
		t.Fatalf("assert = %+v, %v; want a rule rollback", res, err)
	}
	check("after rule rollback", 2)
	if _, err := e.ExecUser("insert into t values (2)"); err != nil {
		t.Fatal(err)
	}
	if err := e.Rollback(); err != nil {
		t.Fatal(err)
	}
	check("after Rollback", 3)
}

// TestCommitDoesNotCopyDatabase pins the cost model: a transaction's
// allocations depend on what it touches, not on the size of the
// database. (A per-commit copy of an untouched 10 000-row table costs
// two allocations per row.)
func TestCommitDoesNotCopyDatabase(t *testing.T) {
	allocs := func(untouched int) float64 {
		set, db := mkSet(t, "table t (v int)\ntable u (v int)\ntable big (v int)", `
create rule r on t when inserted then insert into u select v from inserted`)
		for i := 0; i < untouched; i++ {
			db.MustInsert("big", storage.IntV(int64(i)))
		}
		e := New(set, db, Options{})
		return testing.AllocsPerRun(20, func() {
			if _, err := e.ExecUser("insert into t values (1)"); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Assert(); err != nil {
				t.Fatal(err)
			}
			if err := e.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(10000)
	if large > 2*small {
		t.Errorf("one-row transaction allocates %.0f times over a 10 000-row table, %.0f over a 100-row one: Commit scales with the database",
			large, small)
	}
}
