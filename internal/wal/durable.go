package wal

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"activerules/internal/schema"
	"activerules/internal/storage"
)

// ErrUnrecoverable marks a WAL directory whose durable state cannot be
// reconstructed: a corrupt snapshot file, a log whose opening snapshot
// marker does not match the snapshot it sits next to, or a committed
// record that fails to replay. Mid-log corruption is NOT unrecoverable
// — the torn-tail rule truncates it away — this error means the trusted
// foundation itself is bad. ruleexec maps it to exit code 7.
var ErrUnrecoverable = errors.New("wal: unrecoverable log")

// ErrClosed is the sticky error of every journal or observer write that
// reaches a closed log: Close is a durability boundary, and anything
// after it must fail loudly (as a typed error, never a panic) instead
// of silently dropping records.
var ErrClosed = errors.New("wal: log is closed")

func logName(gen uint64) string { return fmt.Sprintf("wal-%06d.log", gen) }

// LogPath and SnapshotPath name generation gen's log file and the
// snapshot file in dir.
func LogPath(dir string, gen uint64) string { return join(dir, logName(gen)) }
func SnapshotPath(dir string) string        { return join(dir, "snapshot.db") }

// RecoveryInfo summarizes what Open (or Recover) found and did.
type RecoveryInfo struct {
	// Gen is the active generation after recovery.
	Gen uint64
	// SnapshotLoaded reports whether a snapshot file was restored (false
	// means the directory was fresh or pre-first-checkpoint).
	SnapshotLoaded bool
	// Fresh reports that the directory held no durable state at all.
	Fresh bool
	// RecordsScanned counts well-formed log records read: an insert or
	// delete record counts once however many rows it holds.
	RecordsScanned int
	// TxCommitted counts commit records honored.
	TxCommitted int
	// MutationsReplayed counts the primitive mutations applied to the
	// state: the rows of insert and delete records, and updates.
	MutationsReplayed int
	// Aborts counts abort records honored (each rolled the replay back
	// to its transaction's begin record).
	Aborts int
	// TailDiscarded counts the primitive mutations (rows and updates, as
	// MutationsReplayed) of well-formed records discarded because no
	// commit record followed them (the uncommitted tail).
	TailDiscarded int
	// TruncatedBytes is how many trailing log bytes were cut at the
	// first torn or corrupt record (0 for a clean log).
	TruncatedBytes int64
	// Epoch is the highest leadership epoch recorded in the log (0 when
	// the directory has never seen an epoch record — the single-node
	// case). A promoting follower reads this to claim Epoch+1.
	Epoch uint64
}

// DurableDB binds an in-memory database to a WAL directory. It is both
// the storage.Observer that turns applied mutations into log records
// and the engine Journal that turns transaction boundaries into
// begin/commit/abort records — attach it with SetObserver on the
// recovered database and Options.Journal on the engine. Routing both
// through DurableDB (rather than the underlying *Log) keeps them valid
// across checkpoint rotation, which swaps the log generation.
type DurableDB struct {
	fsys FS
	dir  string
	opts Options
	st   *storage.DB
	info RecoveryInfo

	// snap encodes Checkpoint's snapshots, re-encoding only the tables
	// that changed since the last one.
	snap snapEncoder

	// posMu guards gen and log for the replication read path, which
	// runs off the worker goroutine while Checkpoint rotates them. All
	// mutation of gen/log happens on the worker; posMu makes the
	// (gen, log) pair readable as a consistent snapshot elsewhere.
	posMu sync.Mutex
	gen   uint64
	log   *Log

	// epoch is the highest epoch durably stamped into this directory;
	// pendingFence is the highest epoch observed from outside (a
	// replication handshake or lease carrying a newer leader's claim).
	// Both are atomics because observation arrives on network
	// goroutines while the worker owns all appends: the worker applies
	// a pending fence at the next journal boundary, before any record
	// that boundary would make durable.
	epoch        atomic.Uint64
	pendingFence atomic.Uint64
}

// Open recovers the durable state in dir (creating it if needed) and
// opens the log for appending. The recovered database is available via
// State; the engine takes ownership of it. Mid-log torn or corrupt
// records truncate the log; a corrupt snapshot or mismatched
// marker/snapshot pair returns ErrUnrecoverable.
func Open(dir string, sch *schema.Schema, opts Options) (*DurableDB, error) {
	opts = opts.withDefaults()
	fsys := opts.FS
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, err
	}
	rp, err := recoverState(fsys, dir, sch)
	if err != nil {
		return nil, err
	}
	info, db := rp.Info(), rp.DB()
	if opts.Epoch != 0 && opts.Epoch < info.Epoch {
		// The directory has been claimed by a newer leader; opening at
		// a stale epoch would let a deposed leader extend a forked
		// history. Refuse durably-informed.
		return nil, &FencedError{Epoch: info.Epoch}
	}
	logPath := LogPath(dir, info.Gen)
	if info.TruncatedBytes > 0 {
		if err := fsys.Truncate(logPath, rp.Good()); err != nil {
			return nil, err
		}
		if err := fsys.SyncDir(dir); err != nil {
			return nil, err
		}
	}
	l, err := openLog(fsys, logPath, opts, rp.Good())
	if err != nil {
		return nil, err
	}
	if rp.Good() == 0 {
		// Log absent, empty or cut to zero: (re)write the marker.
		l.append(Record{Kind: RecSnapshot, Gen: info.Gen, FP: db.Fingerprint()})
	}
	// Every open starts a new engine transaction.
	l.append(Record{Kind: RecBegin})
	if opts.Epoch > info.Epoch {
		// Stamp the claimed epoch: from this record on, any observer of
		// the log — recovery, a follower, a rival leader's handshake —
		// knows this epoch exists and anything lower is fenced out.
		info.Epoch = opts.Epoch
		l.append(Record{Kind: RecEpoch, Epoch: opts.Epoch})
	}
	if err := l.durablePoint(); err != nil {
		l.f.Close()
		return nil, err
	}
	// OpenAppend may have just created the log file: its directory entry
	// must be durable before any commit this session reports as durable.
	if err := fsys.SyncDir(dir); err != nil {
		l.f.Close()
		return nil, err
	}
	d := &DurableDB{fsys: fsys, dir: dir, opts: opts, gen: info.Gen, log: l, st: db, info: info}
	d.epoch.Store(info.Epoch)
	d.removeStale()
	return d, nil
}

// Recover reconstructs the durable state in dir without modifying
// anything — no truncation, no log writes. fsys may be nil for the real
// filesystem. The returned RecoveryInfo reports what a subsequent Open
// would do (TruncatedBytes counts bytes Open would cut).
func Recover(dir string, sch *schema.Schema, fsys FS) (*storage.DB, RecoveryInfo, error) {
	if fsys == nil {
		fsys = OS
	}
	rp, err := recoverState(fsys, dir, sch)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	return rp.DB(), rp.Info(), nil
}

// State returns the recovered database. Valid immediately after Open;
// the caller attaches it to an engine (with SetObserver(d)) and owns it
// from then on.
func (d *DurableDB) State() *storage.DB { return d.st }

// Info returns the recovery summary from Open.
func (d *DurableDB) Info() RecoveryInfo { return d.info }

// Gen returns the active log generation.
func (d *DurableDB) Gen() uint64 {
	d.posMu.Lock()
	defer d.posMu.Unlock()
	return d.gen
}

// DurablePos returns the active generation and the byte offset of its
// log that is known durable: the exact prefix a crash preserves and a
// replication source may ship. Safe for concurrent use with the worker.
func (d *DurableDB) DurablePos() (gen uint64, off int64) {
	d.posMu.Lock()
	defer d.posMu.Unlock()
	return d.gen, d.log.DurableOffset()
}

// ErrGenRotated reports a replication read against a generation that is
// no longer active: a checkpoint rotated the log, and the reader must
// restart from the new snapshot.
var ErrGenRotated = errors.New("wal: log generation rotated")

// ReadLog returns up to max bytes of the active log starting at byte
// off, clipped to the durable prefix (never shipping bytes a crash
// could take away). It returns ErrGenRotated when gen is no longer the
// active generation, and an empty slice when off is already at the
// durable frontier. Safe for concurrent use with the worker: the log
// file is append-only within a generation, so a plain ReadFile of the
// directory is consistent for any prefix below the durable offset.
func (d *DurableDB) ReadLog(gen uint64, off int64, max int) ([]byte, error) {
	d.posMu.Lock()
	curGen, l := d.gen, d.log
	d.posMu.Unlock()
	if gen != curGen {
		return nil, ErrGenRotated
	}
	durable := l.DurableOffset()
	if off < 0 || off >= durable {
		return nil, nil
	}
	data, err := d.fsys.ReadFile(LogPath(d.dir, gen))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) < durable {
		// Cannot happen within a generation; guard against a racing
		// rotation that already truncated.
		return nil, ErrGenRotated
	}
	end := durable
	if max > 0 && off+int64(max) < end {
		end = off + int64(max)
	}
	return append([]byte(nil), data[off:end]...), nil
}

// ReadSnapshot returns the current snapshot file's bytes and the
// generation recorded in its header, with ok=false when no snapshot
// exists yet (a pre-first-checkpoint directory). The caller verifies
// integrity by decoding; this method only peeks at the header.
func (d *DurableDB) ReadSnapshot() (data []byte, gen uint64, ok bool, err error) {
	data, err = d.fsys.ReadFile(SnapshotPath(d.dir))
	if err != nil {
		if IsNotExist(err) {
			return nil, 0, false, nil
		}
		return nil, 0, false, err
	}
	gen, err = SnapshotGen(data)
	if err != nil {
		return nil, 0, false, err
	}
	return data, gen, true, nil
}

// Err returns the log's sticky error, if any.
func (d *DurableDB) Err() error { return d.log.Err() }

// Epoch returns the directory's durable leadership epoch: the highest
// epoch stamped into the log (0 when epochs have never been used).
// Safe for concurrent use.
func (d *DurableDB) Epoch() uint64 { return d.epoch.Load() }

// RequestFence records that a higher epoch has been observed (from a
// replication handshake or a peer's lease). Safe to call from any
// goroutine: the worker applies the fence durably at its next journal
// boundary — BEFORE that boundary's record — so no durable point can
// postdate the observation. Requests at or below the current epoch are
// no-ops. Use Fence for the synchronous, worker-context form.
func (d *DurableDB) RequestFence(epoch uint64) {
	for {
		cur := d.pendingFence.Load()
		if epoch <= cur || d.pendingFence.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// Fence durably stamps an observed higher epoch and puts the log into
// the fenced state (sticky ErrFenced on every later append). Worker
// context only — it appends to the log. Returns nil when the fence is
// durably applied (or epoch does not exceed the current one); an I/O
// failure while writing the fence surfaces as the log's sticky error,
// which refuses appends just as hard.
func (d *DurableDB) Fence(epoch uint64) error {
	d.RequestFence(epoch)
	if err := d.applyFence(); err != nil && !errors.Is(err, ErrFenced) {
		return err
	}
	return nil
}

// applyFence applies any pending observed epoch: it durably writes the
// epoch record and fences the log. It returns the *FencedError to
// surface at the journal boundary that applied it (nil when no fence
// is pending).
func (d *DurableDB) applyFence() error {
	p := d.pendingFence.Load()
	if p <= d.epoch.Load() {
		return nil
	}
	if err := d.log.Fence(p); err != nil {
		return err
	}
	d.epoch.Store(p)
	return &FencedError{Epoch: p}
}

// Begin implements the engine Journal interface.
func (d *DurableDB) Begin() error {
	if err := d.applyFence(); err != nil {
		return err
	}
	return d.log.Begin()
}

// Commit implements the engine Journal interface.
func (d *DurableDB) Commit() error {
	if err := d.applyFence(); err != nil {
		return err
	}
	return d.log.Commit()
}

// Abort implements the engine Journal interface.
func (d *DurableDB) Abort() error {
	if err := d.applyFence(); err != nil {
		return err
	}
	return d.log.Abort()
}

// ObserveInsert implements storage.Observer.
func (d *DurableDB) ObserveInsert(table string, id storage.TupleID, vals []storage.Value) {
	d.log.ObserveInsert(table, id, vals)
}

// ObserveDelete implements storage.Observer.
func (d *DurableDB) ObserveDelete(table string, id storage.TupleID) {
	d.log.ObserveDelete(table, id)
}

// ObserveUpdate implements storage.Observer.
func (d *DurableDB) ObserveUpdate(table string, id storage.TupleID, col string, v storage.Value) {
	d.log.ObserveUpdate(table, id, col, v)
}

// Close flushes and syncs the log and releases the file handle. Close
// is idempotent — a second Close returns nil — and terminal: journal
// or observer writes after Close fail with ErrClosed.
func (d *DurableDB) Close() error {
	// A requested-but-unapplied fence must not die with the handle: make
	// it durable now, so a deposed leader that closes without reaching
	// another journal boundary still refuses resurrection at its old
	// epoch. The resulting sticky fence error is orderly (close returns
	// nil for it).
	if err := d.applyFence(); err != nil && !errors.Is(err, ErrFenced) {
		d.log.close()
		return err
	}
	return d.log.close()
}

// Checkpoint rotates to a new generation: it makes the current log
// durable, atomically installs a snapshot of cur (which must be the
// engine's database at a committed, quiescent point — the facade
// commits before calling), starts the next log generation, and retires
// the old log. On a crash at any step, recovery lands on either the old
// chain or the new snapshot, both of which are committed states.
//
// An error after the snapshot rename (the commit point) poisons the
// log: later commits must not report durability that recovery — which
// will prefer the new snapshot and ignore the old log — cannot honor.
func (d *DurableDB) Checkpoint(cur *storage.DB) error {
	if err := d.applyFence(); err != nil {
		return err
	}
	if err := d.log.Err(); err != nil {
		return err
	}
	if err := d.log.durablePoint(); err != nil {
		return err
	}
	newGen := d.gen + 1
	if err := installSnapshot(d.fsys, d.dir, d.snap.parts(cur, newGen)...); err != nil {
		// The rename may or may not have happened; fail-stop either way.
		d.log.err = err
		return err
	}
	// Create (truncating any stale leftover), never append: a dead
	// wal-<newGen>.log from an older crash must not contribute records.
	nf, err := d.fsys.Create(LogPath(d.dir, newGen))
	if err != nil {
		d.log.err = err
		return err
	}
	nl := &Log{fs: d.fsys, path: LogPath(d.dir, newGen), f: nf, opts: d.opts}
	nl.append(Record{Kind: RecSnapshot, Gen: newGen, FP: cur.Fingerprint()})
	nl.append(Record{Kind: RecBegin})
	if e := d.epoch.Load(); e > 0 {
		// The epoch must survive rotation: recovery only reads the
		// active generation's log, so the new log re-stamps it.
		nl.append(Record{Kind: RecEpoch, Epoch: e})
	}
	if err := nl.durablePoint(); err != nil {
		nf.Close()
		d.log.err = err
		return err
	}
	// Make the new log's directory entry durable before retiring the old
	// log: otherwise a power loss could keep the old-log Remove while
	// dropping the wal-<newGen>.log creation, silently discarding every
	// commit this session makes after Checkpoint returns.
	if err := d.fsys.SyncDir(d.dir); err != nil {
		nf.Close()
		d.log.err = err
		return err
	}
	old := d.log
	oldGen := d.gen
	d.posMu.Lock()
	d.log = nl
	d.gen = newGen
	d.posMu.Unlock()
	d.info.Gen = newGen
	old.f.Close()
	// Best effort: a stale log is ignored by recovery and re-deleted by
	// the next successful Open.
	_ = d.fsys.Remove(LogPath(d.dir, oldGen))
	return nil
}

// removeStale deletes leftovers from interrupted checkpoints: the temp
// snapshot and any log file of a non-active generation. Best effort.
func (d *DurableDB) removeStale() {
	names, err := d.fsys.ReadDir(d.dir)
	if err != nil {
		return
	}
	active := logName(d.gen)
	for _, name := range names {
		stale := name == "snapshot.tmp" ||
			(strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log") && name != active)
		if stale {
			_ = d.fsys.Remove(join(d.dir, name))
		}
	}
}

// recoverState reads dir to the end of its log: Load, then the
// end-of-log rule. Read-only.
func recoverState(fsys FS, dir string, sch *schema.Schema) (*Replayer, error) {
	rp, _, err := Load(fsys, dir, sch)
	if err != nil {
		return nil, err
	}
	if err := rp.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnrecoverable, err)
	}
	return rp, nil
}
