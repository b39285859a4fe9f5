package wal

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

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
// are applied, record by record through Apply with no savepoint — and
// a pending run there is dropped: a begin is only
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

	muts      []Record // mutation records not yet applied or dropped
	committed int      // end (in muts) of the last committed range
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
// ErrUnrecoverable. So do bytes past the snapshot's last index beside
// the log of a later generation: that log is only created once the
// later index is synced, so those bytes held it, and they are damaged,
// not a torn append.
func Load(fsys FS, dir string, sch *schema.Schema) (*Replayer, []byte, error) {
	r := NewReplayer(storage.NewDB(sch), 1)
	snap, err := fsys.ReadFile(SnapshotPath(dir))
	if err == nil {
		var tail int
		if r.db, r.info.Gen, tail, err = decodeSnapshot(snap, sch); err != nil {
			return nil, nil, fmt.Errorf("%w: snapshot: %v", ErrUnrecoverable, err)
		}
		r.info.SnapshotLoaded = true
		if tail > 0 {
			later, err := laterLog(fsys, dir, r.info.Gen)
			if err != nil {
				return nil, nil, err
			}
			if later != "" {
				return nil, nil, fmt.Errorf("%w: snapshot: %d bytes past the index of generation %d, beside %s",
					ErrUnrecoverable, tail, r.info.Gen, later)
			}
		}
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

// laterLog returns the name of a log in dir of a generation after gen,
// or "" when there is none.
func laterLog(fsys FS, dir string, gen uint64) (string, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return "", err
	}
	for _, name := range names {
		num, ok := strings.CutPrefix(name, "wal-")
		if num, ok2 := strings.CutSuffix(num, ".log"); ok && ok2 {
			if g, err := strconv.ParseUint(num, 10, 64); err == nil && g > gen {
				return name, nil
			}
		}
	}
	return "", nil
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
		r.committed = len(r.muts)
		r.info.TxCommitted++
	case RecBegin:
		return r.settle()
	case RecAbort:
		r.muts, r.committed = r.muts[:0], 0
		r.info.Aborts++
	case RecEpoch:
		r.info.Epoch = max(r.info.Epoch, rec.Epoch)
	}
	return nil
}

// settle applies the committed ranges and drops the pending run: what a
// begin record proves, and what the end of the log leaves.
func (r *Replayer) settle() error {
	for _, rec := range r.muts[:r.committed] {
		if err := Apply(r.db, rec); err != nil {
			return fmt.Errorf("replay: %v", err)
		}
	}
	for i, rec := range r.muts {
		if i < r.committed {
			r.info.MutationsReplayed += rec.mutations()
		} else {
			r.info.TailDiscarded += rec.mutations()
		}
	}
	r.muts, r.committed = r.muts[:0], 0
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

// Apply redoes one committed mutation record against db in one storage
// call: an insert record's rows through RestoreRows, a delete record's
// through DeleteRows, and an update record as an UpdateRows of one row
// and one column. It is the one apply path: the Replayer applies each
// committed range record by record through it, and so does
// crashtest.FenceReplay, with no savepoint, so replay writes no undo
// history. Iteration order needs no savepoint: a table iterates in
// identity order, so a compensation (the re-insert a savepoint rollback
// logged) lands where the writer's row was whether it revives its
// tombstone or, the tombstone compacted away, takes its sorted slot.
func Apply(db *storage.DB, rec Record) error {
	switch rec.Kind {
	case RecInsert:
		rows := rec.Rows
		return db.RestoreRows(rec.Table, len(rows), func(vals []storage.Value) (storage.TupleID, error) {
			row := rows[0]
			rows = rows[1:]
			if len(row.Vals) != len(vals) { // RestoreRows coerces in place and cannot see it
				return 0, fmt.Errorf("insert into %s #%d: %d values for %d columns", rec.Table, row.ID, len(row.Vals), len(vals))
			}
			copy(vals, row.Vals)
			return row.ID, nil
		})
	case RecDelete:
		var at [8]storage.TupleID
		ids := at[:0]
		for _, row := range rec.Rows {
			ids = append(ids, row.ID)
		}
		return db.DeleteRows(rec.Table, ids)
	case RecUpdate:
		return db.UpdateRows(rec.Table, []string{rec.Col}, []storage.TupleID{rec.ID}, []storage.Value{rec.Val})
	default:
		return fmt.Errorf("unexpected %s record in committed range", rec)
	}
}
