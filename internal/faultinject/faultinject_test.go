package faultinject

import (
	"errors"
	"testing"

	"activerules/internal/schema"
	"activerules/internal/sqlmini"
	"activerules/internal/storage"
)

func testDB(t *testing.T) *storage.DB {
	t.Helper()
	sch, err := schema.Parse("table t (v int)")
	if err != nil {
		t.Fatal(err)
	}
	return storage.NewDB(sch)
}

func TestFailAtNthCall(t *testing.T) {
	db := testDB(t)
	in := New(Config{FailAt: 3})
	m := in.Wrap(sqlmini.DirectMutator(db))
	for i := 1; i <= 5; i++ {
		_, err := m.Insert("t", [][]storage.Value{{storage.IntV(int64(i))}})
		if i == 3 {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("call 3: want injected fault, got %v", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("call %d: unexpected error %v", i, err)
		}
	}
	if in.Calls() != 5 || in.Faults() != 1 {
		t.Errorf("calls=%d faults=%d, want 5/1", in.Calls(), in.Faults())
	}
	if db.Table("t").Len() != 4 {
		t.Errorf("failed call must not mutate: %d rows", db.Table("t").Len())
	}
}

func TestCounterSharedAcrossWraps(t *testing.T) {
	db := testDB(t)
	in := New(Config{FailAt: 2})
	m1 := in.Wrap(sqlmini.DirectMutator(db))
	m2 := in.Wrap(sqlmini.DirectMutator(db))
	if _, err := m1.Insert("t", [][]storage.Value{{storage.IntV(1)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Insert("t", [][]storage.Value{{storage.IntV(2)}}); !errors.Is(err, ErrInjected) {
		t.Fatal("counter must be shared across Wrap calls")
	}
}

func TestDisarmKeepsCounting(t *testing.T) {
	db := testDB(t)
	in := New(Config{FailAt: 1})
	in.Disarm()
	m := in.Wrap(sqlmini.DirectMutator(db))
	if _, err := m.Insert("t", [][]storage.Value{{storage.IntV(1)}}); err != nil {
		t.Fatal("disarmed injector must not fault")
	}
	if in.Calls() != 1 {
		t.Errorf("calls=%d, want 1", in.Calls())
	}
	in.Arm()
	// FailAt=1 already passed while disarmed; no fault anymore.
	if _, err := m.Insert("t", [][]storage.Value{{storage.IntV(2)}}); err != nil {
		t.Fatal("missed FailAt point must not fire later")
	}
}

func TestProbabilisticDeterminism(t *testing.T) {
	run := func() []int {
		db := testDB(t)
		in := New(Config{P: 0.3, Seed: 42})
		m := in.Wrap(sqlmini.DirectMutator(db))
		var failed []int
		for i := 0; i < 50; i++ {
			if _, err := m.Insert("t", [][]storage.Value{{storage.IntV(int64(i))}}); err != nil {
				failed = append(failed, i)
			}
		}
		return failed
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) == 50 {
		t.Fatalf("p=0.3 over 50 calls should fail some but not all: %d", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed must fail the same calls: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed must fail the same calls: %v vs %v", a, b)
		}
	}
}

func TestPanicAt(t *testing.T) {
	db := testDB(t)
	in := New(Config{PanicAt: 1})
	m := in.Wrap(sqlmini.DirectMutator(db))
	defer func() {
		if recover() == nil {
			t.Error("PanicAt must panic")
		}
	}()
	m.Delete("t", []storage.TupleID{1})
}

func TestUpdateAndDeletePaths(t *testing.T) {
	db := testDB(t)
	id := db.MustInsert("t", storage.IntV(1))
	in := New(Config{FailAt: 1})
	m := in.Wrap(sqlmini.DirectMutator(db))
	if err := m.Update("t", []string{"v"}, []storage.TupleID{id}, []storage.Value{storage.IntV(2)}); !errors.Is(err, ErrInjected) {
		t.Error("update path must inject")
	}
	in2 := New(Config{FailAt: 1})
	m2 := in2.Wrap(sqlmini.DirectMutator(db))
	if err := m2.Delete("t", []storage.TupleID{id}); !errors.Is(err, ErrInjected) {
		t.Error("delete path must inject")
	}
	if got := db.Table("t").Get(id); got == nil || got.Vals[0] != storage.IntV(1) {
		t.Error("injected faults must not mutate")
	}
}
