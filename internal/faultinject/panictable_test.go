package faultinject

import (
	"testing"

	"activerules/internal/storage"
)

// nullMutator applies nothing; the injector decides fate before
// delegation, which is all these tests observe.
type nullMutator struct{}

func (nullMutator) Insert(_ string, rows [][]storage.Value) (int, error) { return len(rows), nil }
func (nullMutator) Delete(string, []storage.TupleID) error               { return nil }
func (nullMutator) Update(string, []string, []storage.TupleID, []storage.Value) error {
	return nil
}

// oneRow is a one-row statement's rows.
var oneRow = [][]storage.Value{nil}

// TestPanicTablePanicsEveryTouch pins the hostile-rule knob: every
// mutation on the configured table panics, on every call, while other
// tables pass through untouched.
func TestPanicTablePanicsEveryTouch(t *testing.T) {
	in := New(Config{PanicTable: "poison"})
	m := in.Wrap(nullMutator{})

	mustPanic := func(f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("expected injected panic")
			}
		}()
		f()
	}
	for i := 0; i < 3; i++ {
		mustPanic(func() { m.Insert("poison", oneRow) })
		mustPanic(func() { m.Update("poison", []string{"v"}, []storage.TupleID{1}, []storage.Value{storage.IntV(0)}) })
		mustPanic(func() { m.Delete("poison", []storage.TupleID{1}) })
	}
	if _, err := m.Insert("fine", oneRow); err != nil {
		t.Fatalf("untargeted table failed: %v", err)
	}
	if got := in.Faults(); got != 9 {
		t.Errorf("Faults = %d, want 9", got)
	}
}

// TestPanicTableRespectsDisarm checks a disarmed injector lets the
// poisoned table through (resume paths disarm to make progress).
func TestPanicTableRespectsDisarm(t *testing.T) {
	in := New(Config{PanicTable: "poison"})
	in.Disarm()
	m := in.Wrap(nullMutator{})
	if _, err := m.Insert("poison", oneRow); err != nil {
		t.Fatalf("disarmed injector injected: %v", err)
	}
	if in.Faults() != 0 {
		t.Errorf("Faults = %d, want 0", in.Faults())
	}
}
