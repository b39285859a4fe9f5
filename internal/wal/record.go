// Package wal gives the in-memory database of internal/storage a
// durable life: a checksummed, length-prefixed write-ahead record log
// fsynced at every durable point (or never, by choice), atomic
// snapshots (write-temp + fsync + rename), and a recovery path that
// replays committed transactions, discards uncommitted tails, and
// truncates the log at the first torn or corrupt record.
//
// The log is a physical redo log fed by storage.Observer: every applied
// primitive mutation — including the compensations a savepoint rollback
// applies — becomes one mutation record, so replay is strictly
// sequential and needs no undo machinery. Transaction boundaries come
// from the engine's Journal hooks (engine.Options.Journal): an
// assertion point that quiesces writes a commit record, a rule-level
// ROLLBACK action writes an abort record, and Engine.Commit writes a
// commit followed by a begin. Recovery replays exactly the mutation
// ranges that a crash-free reader of the commit/abort structure would
// consider durable, which yields the prefix-consistency invariant the
// crash harness (internal/crashtest) enforces: the recovered state is
// byte-identical in content to some committed prefix of the original
// run.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"activerules/internal/storage"
)

// RecordKind identifies one log record type.
type RecordKind byte

// Record kinds. The numeric values are the on-disk encoding and must
// never be reordered.
const (
	// RecBegin marks an engine-transaction start: the point an abort
	// record rolls back to. Written at session open and by
	// Engine.Commit.
	RecBegin RecordKind = 1
	// RecCommit marks a durable point: every mutation record since the
	// previous durable point becomes part of the recovered state.
	// Written at each quiescent assertion point and by Engine.Commit.
	RecCommit RecordKind = 2
	// RecAbort marks a rule-level ROLLBACK action: recovery discards
	// every mutation range back to the last RecBegin.
	RecAbort RecordKind = 3
	// RecInsert is an applied insert with its assigned tuple identity.
	RecInsert RecordKind = 4
	// RecDelete is an applied delete.
	RecDelete RecordKind = 5
	// RecUpdate is an applied single-column update.
	RecUpdate RecordKind = 6
	// RecSnapshot is the snapshot marker opening every log generation:
	// it names the snapshot generation this log continues from and the
	// content fingerprint of that snapshot, cross-checking that log and
	// snapshot belong together.
	RecSnapshot RecordKind = 7
	// RecEpoch stamps a leadership epoch into the log. It is a control
	// record, not a mutation: recovery tracks the highest epoch seen
	// (RecoveryInfo.Epoch) and replay ignores it. A leader writes one at
	// open to claim its epoch; Fence writes one to durably record that a
	// higher epoch exists, after which the log refuses appends — the
	// fencing record that keeps a deposed leader from extending a
	// history a promoted follower has already forked past.
	RecEpoch RecordKind = 8
)

// Record is one decoded log record. Which fields are meaningful depends
// on Kind.
type Record struct {
	Kind  RecordKind
	Table string          // insert/delete/update
	ID    storage.TupleID // insert/delete/update
	Col   string          // update: column name
	Val   storage.Value   // update: new value
	Vals  []storage.Value // insert: row values
	Gen   uint64          // snapshot marker: generation
	FP    [32]byte        // snapshot marker: db content fingerprint
	Epoch uint64          // epoch record: leadership epoch
}

// String renders the record compactly for diagnostics.
func (r Record) String() string {
	switch r.Kind {
	case RecBegin:
		return "begin"
	case RecCommit:
		return "commit"
	case RecAbort:
		return "abort"
	case RecInsert:
		return fmt.Sprintf("insert %s #%d (%d cols)", r.Table, r.ID, len(r.Vals))
	case RecDelete:
		return fmt.Sprintf("delete %s #%d", r.Table, r.ID)
	case RecUpdate:
		return fmt.Sprintf("update %s #%d .%s", r.Table, r.ID, r.Col)
	case RecSnapshot:
		return fmt.Sprintf("snapshot gen=%d", r.Gen)
	case RecEpoch:
		return fmt.Sprintf("epoch %d", r.Epoch)
	default:
		return fmt.Sprintf("record(kind=%d)", byte(r.Kind))
	}
}

// Framing: every record is [len uint32le][crc32c uint32le][payload],
// crc over the payload bytes. A record whose frame extends past the end
// of the log, whose length field is implausible, or whose CRC does not
// match is "bad"; recovery truncates the log at the first bad record
// (the torn-tail rule).
const (
	headerSize = 8
	// maxRecordSize bounds the length field so a torn length prefix
	// cannot make the reader skip gigabytes of garbage.
	maxRecordSize = 1 << 24
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record decoding errors. ErrTorn marks an incomplete frame at the end
// of the byte stream; ErrCorrupt marks a frame that is structurally
// present but unreadable (CRC mismatch, implausible length, or a
// payload that does not decode). Both are truncation points for
// recovery; fuzzing guarantees neither path panics.
var (
	ErrTorn    = errors.New("wal: torn record (incomplete frame)")
	ErrCorrupt = errors.New("wal: corrupt record")
)

// AppendRecord appends the framed encoding of rec to b.
func AppendRecord(b []byte, rec Record) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	b = appendPayload(b, rec)
	payload := b[start+headerSize:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.Checksum(payload, crcTable))
	return b
}

func appendPayload(b []byte, rec Record) []byte {
	b = append(b, byte(rec.Kind))
	switch rec.Kind {
	case RecInsert:
		b = appendString(b, rec.Table)
		b = binary.AppendUvarint(b, uint64(rec.ID))
		b = binary.AppendUvarint(b, uint64(len(rec.Vals)))
		for _, v := range rec.Vals {
			b = appendValue(b, v)
		}
	case RecDelete:
		b = appendString(b, rec.Table)
		b = binary.AppendUvarint(b, uint64(rec.ID))
	case RecUpdate:
		b = appendString(b, rec.Table)
		b = binary.AppendUvarint(b, uint64(rec.ID))
		b = appendString(b, rec.Col)
		b = appendValue(b, rec.Val)
	case RecSnapshot:
		b = binary.AppendUvarint(b, rec.Gen)
		b = append(b, rec.FP[:]...)
	case RecEpoch:
		b = binary.AppendUvarint(b, rec.Epoch)
	}
	return b
}

// ReadRecord decodes the record framed at the start of b. It returns
// the record and the number of bytes consumed. The error is ErrTorn for
// an incomplete trailing frame and wraps ErrCorrupt for a present but
// unreadable one; in both cases a recovering reader stops and truncates
// here. ReadRecord never panics, whatever bytes it is fed.
func ReadRecord(b []byte) (Record, int, error) {
	if len(b) < headerSize {
		return Record{}, 0, ErrTorn
	}
	n := binary.LittleEndian.Uint32(b)
	crc := binary.LittleEndian.Uint32(b[4:])
	if n == 0 || n > maxRecordSize {
		return Record{}, 0, fmt.Errorf("%w: implausible length %d", ErrCorrupt, n)
	}
	if uint64(len(b)-headerSize) < uint64(n) {
		return Record{}, 0, ErrTorn
	}
	payload := b[headerSize : headerSize+int(n)]
	if crc32.Checksum(payload, crcTable) != crc {
		return Record{}, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	rec, err := decodePayload(payload)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, headerSize + int(n), nil
}

func decodePayload(p []byte) (Record, error) {
	var rec Record
	rec.Kind = RecordKind(p[0])
	d := decoder{b: p[1:]}
	switch rec.Kind {
	case RecBegin, RecCommit, RecAbort:
		// no body
	case RecInsert:
		rec.Table = d.str()
		rec.ID = storage.TupleID(d.uvarint())
		ncols := d.uvarint()
		if ncols > uint64(len(d.b)) { // each value takes at least 1 byte
			return rec, fmt.Errorf("%w: implausible column count %d", ErrCorrupt, ncols)
		}
		rec.Vals = make([]storage.Value, 0, ncols)
		for i := uint64(0); i < ncols; i++ {
			rec.Vals = append(rec.Vals, d.value())
		}
	case RecDelete:
		rec.Table = d.str()
		rec.ID = storage.TupleID(d.uvarint())
	case RecUpdate:
		rec.Table = d.str()
		rec.ID = storage.TupleID(d.uvarint())
		rec.Col = d.str()
		rec.Val = d.value()
	case RecSnapshot:
		rec.Gen = d.uvarint()
		copy(rec.FP[:], d.take(32))
	case RecEpoch:
		rec.Epoch = d.uvarint()
	default:
		return rec, fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, byte(rec.Kind))
	}
	if d.err != nil {
		return rec, d.err
	}
	if len(d.b) != 0 {
		return rec, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(d.b))
	}
	return rec, nil
}

// Value encoding: a kind byte, then the kind's payload. Shared by
// mutation records and snapshot rows.

func appendValue(b []byte, v storage.Value) []byte {
	b = append(b, byte(v.Kind))
	switch v.Kind {
	case storage.KindInt:
		b = binary.AppendVarint(b, v.I)
	case storage.KindFloat:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.F))
	case storage.KindString:
		b = appendString(b, v.S)
	case storage.KindBool:
		if v.B {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// decoder is a bounds-checked payload reader with a sticky error, so
// decode paths stay linear instead of threading errors everywhere.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b) < n {
		d.fail("short payload: need %d bytes, have %d", n, len(d.b))
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail("string length %d exceeds payload", n)
		return ""
	}
	return string(d.take(int(n)))
}

func (d *decoder) value() storage.Value {
	kb := d.take(1)
	if d.err != nil {
		return storage.Value{}
	}
	switch storage.ValueKind(kb[0]) {
	case storage.KindNull:
		return storage.Null
	case storage.KindInt:
		return storage.IntV(d.varint())
	case storage.KindFloat:
		bits := d.take(8)
		if d.err != nil {
			return storage.Value{}
		}
		return storage.FloatV(math.Float64frombits(binary.LittleEndian.Uint64(bits)))
	case storage.KindString:
		return storage.StringV(d.str())
	case storage.KindBool:
		vb := d.take(1)
		if d.err != nil {
			return storage.Value{}
		}
		return storage.BoolV(vb[0] != 0)
	default:
		d.fail("unknown value kind %d", kb[0])
		return storage.Value{}
	}
}
