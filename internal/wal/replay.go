package wal

import (
	"errors"
	"fmt"

	"activerules/internal/schema"
	"activerules/internal/storage"
)

// ErrStop marks the byte no reader of a log goes past (Good): a record
// present but unreadable (the error also wraps ErrCorrupt), or a
// snapshot marker anywhere but at the start (interleaved generations:
// only the prefix before it is trusted). The caller decides what that
// means: recovery and a bootstrapping follower cut the log there; a
// streaming follower fails, because the bytes are the leader's file.
var ErrStop = errors.New("wal: log unreadable")

// Replayer is the one reader of the log: recovery, follower bootstrap,
// follower apply and (through Open) promotion all read a generation's
// bytes with it. Feed takes the log in pieces of any size and applies
// to the database what the bytes so far prove final; Finish is the
// end-of-log rule.
//
// Range bookkeeping: the first record must be the snapshot marker for
// the reader's generation and database. Mutations accumulate as a
// pending run; a commit promotes the run to a committed range; an abort
// discards every range since the last begin (a rule-level ROLLBACK
// undoes even the assertion-point commits inside its engine
// transaction, matching Engine semantics). A begin is the fence: no
// later abort can reach behind it, so the committed ranges before it
// are applied — and a pending run there is dropped: a begin is only
// written at a durable point, so the run is the well-formed uncommitted
// tail of an earlier session (Open truncates only torn bytes), and
// keeping it would let the next session's first commit adopt mutations
// every earlier recovery discarded. An epoch record raises Info().Epoch
// and neither joins nor disturbs a range (a fence may land
// mid-transaction; the run around it simply never commits).
//
// An incomplete trailing record (ErrTorn) is not an error while
// feeding: the bytes wait for the rest. Every error Feed returns is
// sticky; ErrStop is the only one a caller may cut at and carry on from
// (Rewind).
type Replayer struct {
	db   *storage.DB
	info RecoveryInfo // TruncatedBytes: bytes fed past good; Load sets SnapshotLoaded, Fresh

	buf  []byte // the incomplete record at the end of what was fed
	good int64  // bytes read as whole records
	err  error

	muts   []Record // mutation records not yet applied or dropped
	ranges []int    // end (in muts) of each committed range, ascending
}

// NewReplayer returns a reader for generation gen's log over db, which
// must hold the state that generation starts from (its snapshot, or a
// fresh database for generation 1). The reader owns db from here on.
func NewReplayer(db *storage.DB, gen uint64) *Replayer {
	return &Replayer{db: db, info: RecoveryInfo{Gen: gen}}
}

// Load reads a WAL directory: the snapshot (absent: a fresh database at
// generation 1), then the whole active log through Feed; no end rule
// has run. It returns the reader and the log bytes it fed; an ErrStop
// stays in the reader's Err for the caller to cut at. Filesystem errors
// are returned as they are; a snapshot that does not decode, a log that
// opens with another marker and a range that does not replay wrap
// ErrUnrecoverable.
func Load(fsys FS, dir string, sch *schema.Schema) (*Replayer, []byte, error) {
	r := NewReplayer(storage.NewDB(sch), 1)
	snap, err := fsys.ReadFile(SnapshotPath(dir))
	if err == nil {
		if r.db, r.info.Gen, err = decodeSnapshot(snap, sch); err != nil {
			return nil, nil, fmt.Errorf("%w: snapshot: %v", ErrUnrecoverable, err)
		}
		r.info.SnapshotLoaded = true
	} else if !IsNotExist(err) {
		return nil, nil, err
	}
	data, err := fsys.ReadFile(LogPath(dir, r.info.Gen))
	switch {
	case IsNotExist(err):
		r.info.Fresh = !r.info.SnapshotLoaded
	case err != nil:
		return nil, nil, err
	default:
		if err := r.Feed(data); err != nil && !errors.Is(err, ErrStop) {
			return nil, nil, fmt.Errorf("%w: %v", ErrUnrecoverable, err)
		}
	}
	return r, data, nil
}

// Feed reads the next bytes of the log.
func (r *Replayer) Feed(data []byte) error {
	r.info.TruncatedBytes += int64(len(data))
	if r.err != nil {
		return r.err
	}
	if len(r.buf) > 0 {
		r.buf = append(r.buf, data...)
		data = r.buf
	}
	for len(data) > 0 {
		rec, n, err := ReadRecord(data)
		if errors.Is(err, ErrTorn) {
			break
		}
		if err != nil {
			err = fmt.Errorf("%w past byte %d: %w", ErrStop, r.good, err)
		} else {
			err = r.step(rec)
		}
		if err != nil {
			r.buf, r.err = nil, err
			return err
		}
		data = data[n:]
		r.good += int64(n)
		r.info.TruncatedBytes -= int64(n)
		r.info.RecordsScanned++
	}
	r.buf = append(r.buf[:0], data...)
	return nil
}

// step accounts for one whole record.
func (r *Replayer) step(rec Record) error {
	if r.info.RecordsScanned == 0 { // the opening marker
		// Logs written before checkpoints read the memoized digest carry
		// the canonical one; it is computed only for those.
		if rec.Kind != RecSnapshot || rec.Gen != r.info.Gen ||
			(rec.FP != r.db.Fingerprint() && rec.FP != r.db.CanonicalFingerprint()) {
			return fmt.Errorf("log opens with %s, want snapshot marker for gen %d", rec, r.info.Gen)
		}
		return nil
	}
	switch rec.Kind {
	case RecSnapshot:
		return fmt.Errorf("%w past byte %d: snapshot marker inside the log", ErrStop, r.good)
	case RecInsert, RecDelete, RecUpdate:
		r.muts = append(r.muts, rec)
	case RecCommit:
		r.ranges = append(r.ranges, len(r.muts))
		r.info.TxCommitted++
	case RecBegin:
		return r.settle()
	case RecAbort:
		r.muts, r.ranges = r.muts[:0], r.ranges[:0]
		r.info.Aborts++
	case RecEpoch:
		r.info.Epoch = max(r.info.Epoch, rec.Epoch)
	}
	return nil
}

// settle applies the committed ranges and drops the pending run: what a
// begin record proves, and what the end of the log leaves.
func (r *Replayer) settle() error {
	start := 0
	for _, end := range r.ranges {
		if err := ApplyRange(r.db, r.muts[start:end]); err != nil {
			return fmt.Errorf("replay: %v", err)
		}
		start = end
	}
	for i, rec := range r.muts {
		if i < start {
			r.info.MutationsReplayed += rec.mutations()
		} else {
			r.info.TailDiscarded += rec.mutations()
		}
	}
	r.muts, r.ranges = r.muts[:0], r.ranges[:0]
	return nil
}

// Finish is the end-of-log rule: nothing follows the bytes fed so far,
// so the committed tail no abort cancelled is adopted and the
// uncommitted run is dropped. What sits past Good — an incomplete
// record, or everything from an ErrStop on — is the caller's to cut.
func (r *Replayer) Finish() error {
	if r.err != nil && !errors.Is(r.err, ErrStop) {
		return r.err
	}
	return r.settle()
}

// Rewind tells the reader its caller has cut the log back to Good, as
// only an Err of nil or ErrStop allows: the buffered partial record and
// the stop are forgotten, and the next Feed continues at byte Good.
func (r *Replayer) Rewind() { r.buf, r.err, r.info.TruncatedBytes = r.buf[:0], nil, 0 }

// DB is the database the reader applies to; Good the length of the log
// prefix read as whole records; Err the sticky error, if any; Info what
// the reader has found so far (TruncatedBytes: bytes fed past Good).
func (r *Replayer) DB() *storage.DB    { return r.db }
func (r *Replayer) Good() int64        { return r.good }
func (r *Replayer) Err() error         { return r.err }
func (r *Replayer) Info() RecoveryInfo { return r.info }

// ApplyRange redoes one committed range of mutation records against db,
// under one savepoint, so that the tombstone a delete leaves survives to
// the end of the range: a compensation record (the re-insert a savepoint
// rollback logged) then always revives its original's slot, and replay
// reproduces the writer's iteration order. No writer puts a range
// boundary between a mutation and its compensation.
func ApplyRange(db *storage.DB, recs []Record) error {
	sp := db.Savepoint()
	defer db.Release(sp)
	for _, rec := range recs {
		if err := Apply(db, rec); err != nil {
			return err
		}
	}
	return nil
}

// Apply redoes one committed mutation record against db, an insert or
// delete record's rows in order. Replay proper goes through ApplyRange;
// replay oracles apply record by record.
func Apply(db *storage.DB, rec Record) error {
	switch rec.Kind {
	case RecInsert:
		for _, row := range rec.Rows {
			if err := db.InsertWithID(rec.Table, row.ID, row.Vals); err != nil {
				return err
			}
		}
		return nil
	case RecDelete:
		for _, row := range rec.Rows {
			if db.Delete(rec.Table, row.ID) == nil {
				return fmt.Errorf("delete %s #%d: no such tuple", rec.Table, row.ID)
			}
		}
		return nil
	case RecUpdate:
		_, err := db.Update(rec.Table, rec.ID, rec.Col, rec.Val)
		return err
	default:
		return fmt.Errorf("unexpected %s record in committed range", rec)
	}
}
