package activerules

import (
	"errors"

	"activerules/internal/engine"
	"activerules/internal/faultinject"
	"activerules/internal/wal"
)

// Durable state: a write-ahead-logged session whose committed
// transactions survive process crashes. See internal/wal for the log
// format and recovery rules, and DESIGN.md §8 for the invariants.

// Re-exported durability types.
type (
	// WALFS is the injectable filesystem surface of the write-ahead log.
	WALFS = wal.FS
	// MemFS is an in-memory WALFS with simulated power-loss semantics,
	// for tests and crash harnesses.
	MemFS = wal.MemFS
	// WALOptions configure the write-ahead log (filesystem, fsync
	// policy, leadership epoch).
	WALOptions = wal.Options
	// RecoveryInfo summarizes what opening a WAL directory found and
	// replayed.
	RecoveryInfo = wal.RecoveryInfo
	// SyncPolicy selects when the log fsyncs.
	SyncPolicy = wal.SyncPolicy
	// DurabilityError is returned by engine operations when the
	// write-ahead log fails at a transaction boundary.
	DurabilityError = engine.DurabilityError
)

// Fsync policies, re-exported.
const (
	// SyncCommit fsyncs at every durable point (the default).
	SyncCommit = wal.SyncCommit
	// SyncNever leaves fsync timing to the OS.
	SyncNever = wal.SyncNever
)

var (
	// ErrUnrecoverableLog marks a WAL directory whose durable state
	// cannot be reconstructed (corrupt snapshot, mismatched
	// snapshot/log pair). ruleexec exits with code 7 on it.
	ErrUnrecoverableLog = wal.ErrUnrecoverable
	// ErrCrashed is the sentinel of the fault injector's simulated
	// process crash (FaultConfig.FSCrashAt).
	ErrCrashed = faultinject.ErrCrashed
	// ErrWALClosed marks journal writes that reached a closed durable
	// session: Close is terminal, and later engine commits fail with a
	// *DurabilityError wrapping this sentinel instead of panicking.
	ErrWALClosed = wal.ErrClosed
)

// ParseSyncPolicy reads a policy name: commit | never.
func ParseSyncPolicy(s string) (SyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// NewMemFS returns an empty in-memory filesystem for durable sessions
// in tests.
func NewMemFS() *MemFS { return wal.NewMemFS() }

// DurableOptions configure OpenDurable.
type DurableOptions struct {
	// Engine options; the Journal field is overwritten by the session.
	Engine EngineOptions
	// WAL options (filesystem, sync policy, epoch).
	WAL WALOptions
}

// DurableSession is an engine bound to a write-ahead log: every
// mutation the engine applies is logged, every quiescent assertion
// point and Engine.Commit is a durable point, and a crash at any moment
// loses at most the uncommitted tail. Reopen the directory with
// OpenDurable (or inspect it with System.Recover) to resume from the
// recovered state.
type DurableSession struct {
	// Engine processes rules against the recovered state. Use it as
	// usual; Engine.Commit also writes the durable commit record.
	Engine *Engine

	d *wal.DurableDB
}

// OpenDurable recovers the WAL directory dir (creating it if needed)
// and returns a session whose engine starts from the recovered state.
// Committed transactions from earlier sessions are replayed; an
// uncommitted tail is discarded; a torn or corrupt log tail is
// truncated. ErrUnrecoverableLog means the directory's foundation (its
// snapshot) is damaged beyond replay.
func (s *System) OpenDurable(dir string, opts DurableOptions) (*DurableSession, error) {
	d, err := wal.Open(dir, s.schema, opts.WAL)
	if err != nil {
		return nil, err
	}
	db := d.State()
	db.SetObserver(d)
	eopts := opts.Engine
	eopts.Journal = d
	return &DurableSession{Engine: engine.New(s.rules, db, eopts), d: d}, nil
}

// Recovery reports what opening the directory found and replayed.
func (ds *DurableSession) Recovery() RecoveryInfo { return ds.d.Info() }

// Gen returns the active log generation (advanced by Checkpoint).
func (ds *DurableSession) Gen() uint64 { return ds.d.Gen() }

// Checkpoint commits the current transaction and rotates the log: the
// full state is written as an atomic snapshot, a fresh log generation
// begins, and the old log is retired. Recovery cost then restarts from
// the snapshot instead of replaying history. Checkpointing while rule
// processing is suspended mid-assertion is an error — resume or roll
// back first.
func (ds *DurableSession) Checkpoint() error {
	if ds.Engine.InFlight() {
		return errors.New("activerules: checkpoint while rule processing is suspended mid-assertion")
	}
	if err := ds.Engine.Commit(); err != nil {
		return err
	}
	return ds.d.Checkpoint(ds.Engine.DB())
}

// Close flushes and syncs the log and releases the session's file
// handle. The engine remains usable in memory but no longer durable:
// its next journaled transaction boundary fails with a
// *DurabilityError wrapping ErrWALClosed. Close is idempotent — a
// second Close is a no-op returning nil — so drain paths can close
// defensively without tracking who closed first.
func (ds *DurableSession) Close() error { return ds.d.Close() }

// Recover reconstructs the durable state in dir without modifying
// anything — no truncation, no log writes — and reports what a full
// open would do. fsys may be nil for the real filesystem.
func (s *System) Recover(dir string, fsys WALFS) (*DB, RecoveryInfo, error) {
	return wal.Recover(dir, s.schema, fsys)
}
