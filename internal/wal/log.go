package wal

import (
	"errors"
	"fmt"
	"sync/atomic"

	"activerules/internal/storage"
)

// ErrFenced marks a log that has durably observed a higher leadership
// epoch: a promoted follower owns the history now, and every append
// this log would make could fork it. Fencing is sticky like any other
// log error — journal and observer writes fail with it from the fence
// on — but it is an orderly refusal, not a durability fault: every byte
// the log accepted before the fence is safely on disk.
var ErrFenced = errors.New("wal: fenced by higher epoch")

// FencedError carries the epoch that fenced the log (or refused an
// Open). It unwraps to ErrFenced.
type FencedError struct {
	// Epoch is the higher epoch that was observed.
	Epoch uint64
}

func (e *FencedError) Error() string {
	return fmt.Sprintf("wal: fenced by epoch %d", e.Epoch)
}

func (e *FencedError) Unwrap() error { return ErrFenced }

// SyncPolicy selects when the log calls fsync.
type SyncPolicy int

const (
	// SyncCommit (the default) fsyncs at every durable point — commit,
	// abort, open, checkpoint and close — before the caller proceeds, so
	// a commit that returned nil survives any crash.
	SyncCommit SyncPolicy = iota
	// SyncNever never fsyncs; the OS decides when bytes hit the disk.
	// Fastest, and still crash-consistent (never corrupt) — a crash just
	// loses a longer committed suffix.
	SyncNever
)

// String renders the policy as its ruleexec -fsync spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncCommit:
		return "commit"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy is the inverse of String: it reads a -fsync flag value.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "commit":
		return SyncCommit, nil
	case "never":
		return SyncNever, nil
	default:
		return SyncCommit, fmt.Errorf("unknown -fsync policy %q (want commit or never)", s)
	}
}

// Options configure a durable session.
type Options struct {
	// FS is the filesystem to use; nil means the real one (OS).
	FS FS
	// Sync is the fsync policy; the zero value is SyncCommit.
	Sync SyncPolicy
	// Epoch is the leadership epoch this session claims. 0 (the
	// default) adopts whatever epoch the directory already records —
	// single-node operation never sees epochs at all. A non-zero epoch
	// is stamped into the log at Open when it exceeds the recovered
	// epoch; an epoch BELOW the recovered one means the directory has
	// been fenced by a newer leader, and Open refuses with a
	// *FencedError — the durable half of split-brain safety.
	Epoch uint64
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OS
	}
	return o
}

// bufferBytes is the in-memory append buffer threshold: a pending batch
// larger than this is written out (without fsync) even before the next
// commit point.
const bufferBytes = 256 << 10

// runBytes caps an insert or delete record's payload: the row that
// takes a run to this size seals it, and the next row opens another.
const runBytes = 64 << 10

// Log is the append side of the write-ahead log. It implements
// storage.Observer (mutation records arrive from the database's
// physical-mutation hook) and the engine's Journal interface
// (begin/commit/abort records arrive from transaction boundaries).
//
// Errors are sticky: after any filesystem failure the log stops
// appending and every subsequent durable point returns the original
// error, so a fault can never split a transaction across a gap. The
// bytes already buffered or partially written form an uncommitted tail
// that recovery discards.
type Log struct {
	fs   FS
	path string
	f    File
	opts Options

	buf    []byte
	err    error
	closed bool

	// run is the insert or delete record left open at the end of buf,
	// its frame header not yet written: a further row of its kind on its
	// table extends it. Any other record, a flush and the runBytes cap
	// seal it. kind is 0 when no run is open.
	run struct {
		kind  RecordKind
		table string
		start int             // the frame's offset in buf
		prev  storage.TupleID // the identity of its last row
	}

	// written and durable track the log file's byte positions: written
	// is how many bytes have reached the file (flushed), durable how
	// many an fsync has made stable. Atomics because the replication
	// source reads them from outside the worker goroutine; everything
	// else about the Log stays single-threaded.
	written atomic.Int64
	durable atomic.Int64
}

// openLog opens (creating if needed) the log file for appending. base
// is the file's current length — the recovered consistent prefix — so
// position tracking starts true.
func openLog(fsys FS, path string, opts Options, base int64) (*Log, error) {
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	l := &Log{fs: fsys, path: path, f: f, opts: opts}
	l.written.Store(base)
	l.durable.Store(base)
	return l, nil
}

// DurableOffset returns the byte offset of the log file known to be on
// stable storage: the prefix a crash cannot take away, and therefore
// the prefix the replication source may ship to followers. Under
// SyncNever the caller has opted out of crash durability, so flushed
// bytes count. Safe for concurrent use.
func (l *Log) DurableOffset() int64 {
	if l.opts.Sync == SyncNever {
		return l.written.Load()
	}
	return l.durable.Load()
}

// Err returns the sticky error, if any.
func (l *Log) Err() error { return l.err }

// append frames rec into the buffer after sealing any open run.
func (l *Log) append(rec Record) {
	if !l.writable() {
		return
	}
	l.seal()
	l.buf = AppendRecord(l.buf, rec)
	l.spill()
}

// appendRow logs one inserted or deleted row: it extends the open run
// when the row is of its kind and table, and opens a new run otherwise.
func (l *Log) appendRow(kind RecordKind, table string, row Row) {
	if !l.writable() {
		return
	}
	if l.run.kind == kind && l.run.table == table {
		l.buf = appendNextRow(l.buf, kind, l.run.prev, row)
	} else {
		l.seal()
		l.run.kind, l.run.table, l.run.start = kind, table, len(l.buf)
		l.buf = appendPayload(append(l.buf, 0, 0, 0, 0, 0, 0, 0, 0),
			Record{Kind: kind, Table: table, Rows: []Row{row}})
	}
	l.run.prev = row.ID
	if len(l.buf)-l.run.start-headerSize >= runBytes {
		l.seal()
	}
	l.spill()
}

// writable reports whether the log still accepts records. Appending to
// a closed log is a sticky ErrClosed, never a nil-handle panic: the
// drain path closes the log while an engine may still hold a journal
// reference to it.
func (l *Log) writable() bool {
	if l.closed && l.err == nil {
		l.err = ErrClosed
	}
	return l.err == nil
}

// seal writes the open run's frame header, closing the run.
func (l *Log) seal() {
	if l.run.kind != 0 {
		sealFrame(l.buf[l.run.start:])
		l.run.kind = 0
	}
}

// spill writes the buffer out once it outgrows the threshold (without
// fsync — an uncommitted tail on disk is harmless, recovery discards it).
func (l *Log) spill() {
	if len(l.buf) >= bufferBytes {
		l.flush()
	}
}

// flush seals any open run and writes the buffered bytes to the file.
func (l *Log) flush() {
	if l.err != nil || len(l.buf) == 0 {
		return
	}
	l.seal()
	if _, err := l.f.Write(l.buf); err != nil {
		l.err = fmt.Errorf("wal: append: %w", err)
		return
	}
	l.written.Add(int64(len(l.buf)))
	l.buf = l.buf[:0]
}

func (l *Log) sync() {
	if !l.writable() {
		return
	}
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("wal: fsync: %w", err)
		return
	}
	l.durable.Store(l.written.Load())
}

// durablePoint writes out the buffer and, unless the policy is
// SyncNever, fsyncs it, returning the sticky error. It is the one place
// the sync policy is applied: commit, abort, open, checkpoint and close
// all end here. Fence does not: it fsyncs whatever the policy.
func (l *Log) durablePoint() error {
	l.flush()
	if l.opts.Sync != SyncNever {
		l.sync()
	}
	return l.err
}

// Begin writes a begin record: the point a later abort rolls back to.
// Part of the engine Journal interface.
func (l *Log) Begin() error {
	l.append(Record{Kind: RecBegin})
	l.flush()
	return l.err
}

// Commit writes a commit record and makes it durable per the sync
// policy. Part of the engine Journal interface.
func (l *Log) Commit() error {
	l.append(Record{Kind: RecCommit})
	return l.durablePoint()
}

// Abort writes an abort record (a rule-level ROLLBACK fired) and makes
// it durable like a commit: the rollback's observable "nothing
// happened" promise must survive a crash. Part of the engine Journal
// interface.
func (l *Log) Abort() error {
	l.append(Record{Kind: RecAbort})
	return l.durablePoint()
}

// Fence durably records that epoch has been observed and refuses every
// later append: the epoch record is written and fsynced (regardless of
// the sync policy — a fence that is not on disk fences nothing), then
// ErrFenced becomes the log's sticky error. Begin/Commit/Abort and the
// observer hooks all fail with it afterwards, so a deposed leader
// cannot extend its history even if its process keeps running. Fencing
// an already-failed or closed log returns that error unchanged.
func (l *Log) Fence(epoch uint64) error {
	if !l.writable() {
		return l.err
	}
	l.append(Record{Kind: RecEpoch, Epoch: epoch})
	l.flush()
	l.sync()
	if l.err != nil {
		return l.err
	}
	l.err = &FencedError{Epoch: epoch}
	return nil
}

// ObserveInsert implements storage.Observer.
func (l *Log) ObserveInsert(table string, id storage.TupleID, vals []storage.Value) {
	l.appendRow(RecInsert, table, Row{ID: id, Vals: vals})
}

// ObserveDelete implements storage.Observer.
func (l *Log) ObserveDelete(table string, id storage.TupleID) {
	l.appendRow(RecDelete, table, Row{ID: id})
}

// ObserveUpdate implements storage.Observer.
func (l *Log) ObserveUpdate(table string, id storage.TupleID, col string, v storage.Value) {
	l.append(Record{Kind: RecUpdate, Table: table, ID: id, Col: col, Val: v})
}

// close flushes, syncs, and closes the file. The first error wins.
// Closing twice is a no-op returning nil: the drain path may race a
// deferred cleanup close, and the second caller has nothing left to
// lose durability over.
func (l *Log) close() error {
	if l.closed {
		return nil
	}
	l.durablePoint()
	l.closed = true
	if cerr := l.f.Close(); cerr != nil && l.err == nil {
		l.err = fmt.Errorf("wal: close: %w", cerr)
	}
	if errors.Is(l.err, ErrFenced) {
		// A fence is an orderly refusal, not a durability fault: the
		// fenced log's bytes — epoch record included — are all on disk.
		return nil
	}
	return l.err
}
