// Package faultinject provides deterministic fault injection for the
// engine's storage mutation path. An Injector wraps the engine's
// recording mutator (via engine Options.WrapMutator) and makes chosen
// primitive mutations fail — the Nth call, or each call with a seeded
// probability — without applying them, so the partial-state scenarios a
// real storage backend can produce (a multi-row statement failing
// halfway) are reproducible in tests.
//
// The injector is deliberately single-threaded, like the engine it
// instruments. A failed call performs no mutation at all: the fault
// model is "the statement's Nth primitive operation was rejected",
// leaving every earlier operation of the same statement applied — which
// is exactly the mess the engine's action atomicity must clean up.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"activerules/internal/sqlmini"
	"activerules/internal/storage"
)

// ErrInjected is the sentinel all injected failures wrap; test code
// checks errors.Is(err, ErrInjected) to distinguish injected faults from
// genuine ones.
var ErrInjected = errors.New("faultinject: injected fault")

// Config selects which mutations fail.
type Config struct {
	// FailAt makes the Nth primitive mutation (1-based, counted across
	// the injector's whole lifetime: a row of an inserting or deleting
	// statement, a column of an updated row) return an error; 0
	// disables.
	FailAt int
	// PanicAt makes the Nth primitive mutation panic instead of
	// returning an error, exercising panic containment; 0 disables.
	PanicAt int
	// PanicTable makes EVERY mutation touching the named table panic —
	// a deterministically hostile rule: any rule whose action writes the
	// table fails on every consideration, which is the repeated-fault
	// shape the serving layer's quarantine breaker must trip on. Empty
	// disables.
	PanicTable string
	// P makes each mutation fail independently with this probability,
	// drawn from a deterministic generator seeded with Seed.
	P    float64
	Seed int64

	// Filesystem fault knobs, honored by WrapFS (see fs.go). The fs call
	// counter is independent of the mutation counter; the random stream
	// is shared.

	// FSFailAt makes the Nth state-changing filesystem operation
	// (1-based) fail without performing it; 0 disables.
	FSFailAt int
	// FSShortWriteAt makes the Nth filesystem operation, which must be a
	// write, transfer only a random prefix of its buffer before failing;
	// 0 disables.
	FSShortWriteAt int
	// FSCrashAt simulates a process crash at the Nth filesystem
	// operation: the operation does not happen, the wrapped filesystem
	// suffers power-loss semantics (unsynced tails torn), and every
	// later operation fails with ErrCrashed; 0 disables.
	FSCrashAt int
}

// Injector decides, deterministically, which primitive mutations fail.
// One injector may wrap any number of mutators (the engine builds a
// fresh recording mutator per script and per rule action); the call
// counter and random stream are shared across all of them.
type Injector struct {
	cfg    Config
	rng    *rand.Rand
	calls  int
	faults int
	armed  bool

	// filesystem fault state (fs.go)
	fsCalls int
	crashed bool
	fs      any // the FS most recently passed to WrapFS

	// network fault state (net.go); guarded by netMu because
	// connection writes run on per-connection goroutines.
	netMu sync.Mutex
	net   *netState
}

// New returns an armed injector for the configuration.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), armed: true}
}

// Wrap returns a Mutator that delegates to m, injecting faults according
// to the injector's configuration. Pass the method value in.Wrap as
// engine Options.WrapMutator.
func (in *Injector) Wrap(m sqlmini.Mutator) sqlmini.Mutator {
	return wrapped{in: in, m: m}
}

// Calls returns the number of primitive mutations observed so far,
// including those made while disarmed. A fault-free probe run with a
// disarmed injector measures how many injection points a scenario has.
func (in *Injector) Calls() int { return in.calls }

// Faults returns the number of faults injected so far.
func (in *Injector) Faults() int { return in.faults }

// Arm (re-)enables fault injection; counting continues either way.
func (in *Injector) Arm() { in.armed = true }

// Disarm stops injecting faults while keeping the call counter running,
// so a suspended engine can be resumed fault-free.
func (in *Injector) Disarm() { in.armed = false }

// check counts one primitive mutation and decides whether it fails.
func (in *Injector) check(op, table string) error {
	in.calls++
	// The probabilistic draw happens even when disarmed or when FailAt
	// decides first, so the random stream consumed per call is stable
	// and runs with different FailAt values stay comparable.
	probabilistic := in.cfg.P > 0 && in.rng.Float64() < in.cfg.P
	if !in.armed {
		return nil
	}
	if in.cfg.PanicTable != "" && table == in.cfg.PanicTable {
		in.faults++
		panic(fmt.Sprintf("faultinject: injected panic on table %s (%s, call %d)", table, op, in.calls))
	}
	if in.cfg.PanicAt > 0 && in.calls == in.cfg.PanicAt {
		in.faults++
		panic(fmt.Sprintf("faultinject: injected panic at %s %s (call %d)", op, table, in.calls))
	}
	if (in.cfg.FailAt > 0 && in.calls == in.cfg.FailAt) || probabilistic {
		in.faults++
		return fmt.Errorf("%w: %s %s (call %d)", ErrInjected, op, table, in.calls)
	}
	return nil
}

// wrapped is the fault-injecting mutator view. It counts, and fails,
// one primitive at a time — a row of an insert or a delete, a column of
// an updated row — passing each that survives its check to the inner
// mutator as a statement of its own, so a fault leaves exactly the
// statement's earlier primitives applied.
type wrapped struct {
	in *Injector
	m  sqlmini.Mutator
}

func (w wrapped) Insert(table string, rows [][]storage.Value) (int, error) {
	for i := range rows {
		if err := w.in.check("insert", table); err != nil {
			return i, err
		}
		if _, err := w.m.Insert(table, rows[i:i+1]); err != nil {
			return i, err
		}
	}
	return len(rows), nil
}

func (w wrapped) Delete(table string, ids []storage.TupleID) error {
	for i := range ids {
		if err := w.in.check("delete", table); err != nil {
			return err
		}
		if err := w.m.Delete(table, ids[i:i+1]); err != nil {
			return err
		}
	}
	return nil
}

func (w wrapped) Update(table string, cols []string, ids []storage.TupleID, vals []storage.Value) error {
	for k := range ids {
		for i := range cols {
			if err := w.in.check("update", table); err != nil {
				return err
			}
			j := k*len(cols) + i
			if err := w.m.Update(table, cols[i:i+1], ids[k:k+1], vals[j:j+1]); err != nil {
				return err
			}
		}
	}
	return nil
}
