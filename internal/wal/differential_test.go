package wal_test

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"activerules/internal/crashtest"
	"activerules/internal/schema"
	"activerules/internal/storage"
	"activerules/internal/wal"
)

// perRowLog is the oracle TestCoalesceDifferential holds wal.Log to: a
// log written the way every log was before inserts and deletes shared
// records, one frame per row, by an encoder of its own. Updates and
// control records, whose encoding did not change, go through
// wal.AppendRecord. It keeps its active generation in memory beside the
// snapshot that generation continues from.
type perRowLog struct {
	snap []byte // nil before the first checkpoint
	gen  uint64
	log  []byte
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (o *perRowLog) row(kind wal.RecordKind, table string, id storage.TupleID, vals []storage.Value) {
	p := []byte{byte(kind)}
	p = binary.AppendUvarint(p, uint64(len(table)))
	p = append(p, table...)
	p = binary.AppendUvarint(p, uint64(id))
	if kind == wal.RecInsert {
		p = binary.AppendUvarint(p, uint64(len(vals)))
		for _, v := range vals {
			p = append(p, byte(v.Kind))
			switch v.Kind {
			case storage.KindInt:
				p = binary.AppendVarint(p, v.I)
			case storage.KindFloat:
				p = binary.LittleEndian.AppendUint64(p, math.Float64bits(v.F))
			case storage.KindString:
				p = binary.AppendUvarint(p, uint64(len(v.S)))
				p = append(p, v.S...)
			case storage.KindBool:
				b := byte(0)
				if v.B {
					b = 1
				}
				p = append(p, b)
			}
		}
	}
	o.log = binary.LittleEndian.AppendUint32(o.log, uint32(len(p)))
	o.log = binary.LittleEndian.AppendUint32(o.log, crc32.Checksum(p, castagnoli))
	o.log = append(o.log, p...)
}

func (o *perRowLog) ObserveInsert(table string, id storage.TupleID, vals []storage.Value) {
	o.row(wal.RecInsert, table, id, vals)
}

func (o *perRowLog) ObserveDelete(table string, id storage.TupleID) {
	o.row(wal.RecDelete, table, id, nil)
}

func (o *perRowLog) ObserveUpdate(table string, id storage.TupleID, col string, v storage.Value) {
	o.log = wal.AppendRecord(o.log, wal.Record{Kind: wal.RecUpdate, Table: table, ID: id, Col: col, Val: v})
}

func (o *perRowLog) mark(kind wal.RecordKind) {
	o.log = wal.AppendRecord(o.log, wal.Record{Kind: kind})
}

// rotate starts generation gen over snap, a snapshot of a state whose
// fingerprint is fp, as wal.Open and Checkpoint start a log.
func (o *perRowLog) rotate(snap []byte, gen uint64, fp [32]byte) {
	o.snap, o.gen = snap, gen
	o.log = wal.AppendRecord(nil, wal.Record{Kind: wal.RecSnapshot, Gen: gen, FP: fp})
	o.mark(wal.RecBegin)
}

// fs returns a filesystem holding the oracle's directory.
func (o *perRowLog) fs(t *testing.T) wal.FS {
	t.Helper()
	fsys := wal.NewMemFS()
	if err := fsys.MkdirAll(crashtest.Dir); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{wal.LogPath(crashtest.Dir, o.gen): o.log}
	if o.snap != nil {
		files[wal.SnapshotPath(crashtest.Dir)] = o.snap
	}
	for name, data := range files {
		f, err := fsys.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return fsys
}

// tee hands every mutation to each observer in turn.
type tee []storage.Observer

func (t tee) ObserveInsert(table string, id storage.TupleID, vals []storage.Value) {
	for _, o := range t {
		o.ObserveInsert(table, id, vals)
	}
}

func (t tee) ObserveDelete(table string, id storage.TupleID) {
	for _, o := range t {
		o.ObserveDelete(table, id)
	}
}

func (t tee) ObserveUpdate(table string, id storage.TupleID, col string, v storage.Value) {
	for _, o := range t {
		o.ObserveUpdate(table, id, col, v)
	}
}

var diffSchema = schema.MustParse(`
table a (k int, s string)
table b (k int, s string, f float, ok bool)
table c (k int)
`)

// recovered is what a reader can observe of a recovered directory.
type recovered struct {
	Info   wal.RecoveryInfo
	FP     [32]byte
	NextID storage.TupleID
	IDs    [][]storage.TupleID
	Fences []string // crashtest.FenceReplay's state sequence
}

func recoverDir(t *testing.T, fsys wal.FS) recovered {
	t.Helper()
	db, info, err := wal.Recover(crashtest.Dir, diffSchema, fsys)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	out := recovered{Info: info, FP: db.Fingerprint(), NextID: db.NextID()}
	for _, name := range diffSchema.TableNames() {
		out.IDs = append(out.IDs, db.Table(name).IDs())
	}
	seq, final, err := crashtest.FenceReplay(fsys, crashtest.Dir, diffSchema)
	if err != nil {
		t.Fatalf("FenceReplay: %v", err)
	}
	if fp := db.Fingerprint(); final != fmt.Sprintf("%x", fp[:]) {
		t.Fatalf("FenceReplay's final state is not recovery's")
	}
	out.Fences = seq
	return out
}

// diffStream drives one seeded stream of mutations and transaction
// boundaries through a DurableDB and the per-row oracle at once, as an
// engine would: a transaction is the outermost savepoint, an abort
// rolls back to it unobserved, savepoint rollbacks inside it log their
// compensations. Its two directories' recoveries are compared before
// the checkpoint and at the end.
type diffStream struct {
	t     *testing.T
	rng   *rand.Rand
	fsys  *wal.MemFS
	d     *wal.DurableDB
	db    *storage.DB
	o     *perRowLog
	tx    storage.Savepoint
	spill bool // the log file grew between two durable points
}

// coverage is what the coalesced logs' records showed.
type coverage struct {
	multi, down, capped int // runs of 2+ rows, runs whose identities go down, runs at the cap
}

// scan tallies the records of the coalesced log's active generation.
func (s *diffStream) scan(c *coverage) {
	data, err := s.fsys.ReadFile(wal.LogPath(crashtest.Dir, s.d.Gen()))
	if err != nil {
		s.t.Fatal(err)
	}
	for len(data) > 0 {
		rec, n, err := wal.ReadRecord(data)
		if err != nil {
			s.t.Fatal(err)
		}
		data = data[n:]
		if len(rec.Rows) > 1 {
			c.multi++
		}
		for i := 1; i < len(rec.Rows); i++ {
			if rec.Rows[i].ID < rec.Rows[i-1].ID {
				c.down++
				break
			}
		}
		if n-8 >= 64<<10 { // the frame header is 8 bytes, the cap 64 KiB
			c.capped++
		}
	}
}

func (s *diffStream) value(typ schema.Type) storage.Value {
	switch {
	case s.rng.Intn(12) == 0:
		return storage.Null
	case typ == schema.Int:
		return storage.IntV(s.rng.Int63n(1<<40) - 1<<39)
	case typ == schema.Float:
		return storage.FloatV(s.rng.NormFloat64())
	case typ == schema.Bool:
		return storage.BoolV(s.rng.Intn(2) == 0)
	case s.rng.Intn(40) == 0:
		return storage.StringV(strings.Repeat("w", 1000+s.rng.Intn(3000)))
	default:
		return storage.StringV(strings.Repeat("s", s.rng.Intn(12)))
	}
}

func (s *diffStream) row(table string) []storage.Value {
	cols := diffSchema.Table(table).Columns
	vals := make([]storage.Value, len(cols))
	for i, c := range cols {
		vals[i] = s.value(c.Type)
	}
	return vals
}

func (s *diffStream) table() string {
	names := diffSchema.TableNames()
	return names[s.rng.Intn(len(names))]
}

// burst inserts or deletes up to n rows of one table, deletes in random
// order, so that identities go down as well as up within a run.
func (s *diffStream) burst(n int) {
	table := s.table()
	if s.rng.Intn(3) > 0 {
		for i := 0; i < 1+s.rng.Intn(n); i++ {
			s.db.MustInsert(table, s.row(table)...)
		}
		return
	}
	ids := s.db.Table(table).IDs()
	s.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for _, id := range ids[:min(len(ids), 1+s.rng.Intn(n))] {
		s.db.Delete(table, id)
	}
}

func (s *diffStream) update() {
	table := s.table()
	ids := s.db.Table(table).IDs()
	if len(ids) == 0 {
		return
	}
	cols := diffSchema.Table(table).Columns
	c := cols[s.rng.Intn(len(cols))]
	if _, err := s.db.Update(table, ids[s.rng.Intn(len(ids))], c.Name, s.value(c.Type)); err != nil {
		s.t.Fatal(err)
	}
}

func (s *diffStream) journal(kind wal.RecordKind) {
	var err error
	switch kind {
	case wal.RecCommit:
		err = s.d.Commit()
	case wal.RecBegin:
		err = s.d.Begin()
	case wal.RecAbort:
		err = s.d.Abort()
	}
	if err != nil {
		s.t.Fatal(err)
	}
	s.o.mark(kind)
}

// engineCommit is Engine.Commit: the transaction ends, a durable point
// and a new begin are logged.
func (s *diffStream) engineCommit() {
	s.db.Release(s.tx)
	s.tx = s.db.Savepoint()
	s.journal(wal.RecCommit)
	s.journal(wal.RecBegin)
}

// abort is a rule-level ROLLBACK: the transaction is undone with the
// observer detached, then the abort record is logged.
func (s *diffStream) abort() {
	obs := s.db.Observer()
	s.db.SetObserver(nil)
	s.db.RollbackTo(s.tx)
	s.db.SetObserver(obs)
	s.tx = s.db.Savepoint()
	s.journal(wal.RecAbort)
}

// nested runs a few mutations under a savepoint and then rolls them back
// (their compensations are logged) or keeps them.
func (s *diffStream) nested() {
	sp := s.db.Savepoint()
	for i := 0; i < 1+s.rng.Intn(4); i++ {
		if s.rng.Intn(3) == 0 {
			s.update()
		} else {
			s.burst(6)
		}
	}
	if s.rng.Intn(3) > 0 {
		s.db.RollbackTo(sp)
	} else {
		s.db.Release(sp)
	}
}

// bulk inserts rows of 1 KiB strings into one table until well past the
// log's 256 KiB buffer within one transaction, so the buffer spills and
// runs reach their 64 KiB cap; it notes whether the file grew.
func (s *diffStream) bulk() {
	path := wal.LogPath(crashtest.Dir, s.d.Gen())
	before, err := s.fsys.ReadFile(path)
	if err != nil {
		s.t.Fatal(err)
	}
	table := []string{"a", "b"}[s.rng.Intn(2)]
	for i := 0; i < 300; i++ {
		vals := s.row(table)
		vals[1] = storage.StringV(strings.Repeat("k", 1024))
		s.db.MustInsert(table, vals...)
	}
	after, err := s.fsys.ReadFile(path)
	if err != nil {
		s.t.Fatal(err)
	}
	s.spill = s.spill || len(after) > len(before)
}

func (s *diffStream) checkpoint(c *coverage) {
	s.engineCommit()
	s.compare("before checkpoint")
	s.scan(c)
	s.db.Release(s.tx)
	if err := s.d.Checkpoint(s.db); err != nil {
		s.t.Fatal(err)
	}
	snap, err := s.fsys.ReadFile(wal.SnapshotPath(crashtest.Dir))
	if err != nil {
		s.t.Fatal(err)
	}
	s.o.rotate(snap, s.d.Gen(), s.db.Fingerprint())
	s.tx = s.db.Savepoint()
}

// compare recovers both directories and requires the same outcome: the
// same state, iteration order and identity allocator, the same
// FenceReplay sequence, and the same RecoveryInfo save RecordsScanned,
// which only the coalesced log may bring down.
func (s *diffStream) compare(label string) (records, oracleRecords int) {
	s.t.Helper()
	got, want := recoverDir(s.t, s.fsys), recoverDir(s.t, s.o.fs(s.t))
	records, oracleRecords = got.Info.RecordsScanned, want.Info.RecordsScanned
	if records > oracleRecords {
		s.t.Errorf("%s: %d records scanned, the per-row log has %d", label, records, oracleRecords)
	}
	got.Info.RecordsScanned, want.Info.RecordsScanned = 0, 0
	if !reflect.DeepEqual(got, want) {
		s.t.Fatalf("%s: coalesced and per-row logs recover differently:\n coalesced %+v\n per-row   %+v", label, got, want)
	}
	return records, oracleRecords
}

// TestCoalesceDifferential runs seeded mutation streams — several
// tables and kinds, deletes in random order, savepoint compensations,
// aborts, assertion-point and engine commits, a checkpoint mid-stream, a
// transaction that spills the buffer and caps runs, an uncommitted
// tail — through wal.Log and through the per-row oracle, and requires
// both logs to recover alike.
func TestCoalesceDifferential(t *testing.T) {
	seeds := int64(12)
	if testing.Short() {
		seeds = 4
	}
	var records, oracleRecords int
	var cover coverage
	spills := 0
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fsys := wal.NewMemFS()
			d, err := wal.Open(crashtest.Dir, diffSchema, wal.Options{FS: fsys})
			if err != nil {
				t.Fatal(err)
			}
			s := &diffStream{t: t, rng: rand.New(rand.NewSource(seed)), fsys: fsys, d: d, db: d.State(), o: &perRowLog{}}
			s.o.rotate(nil, 1, s.db.Fingerprint())
			s.db.SetObserver(tee{d, s.o})
			s.tx = s.db.Savepoint()
			const ops = 600
			for op := 0; op < ops; op++ {
				switch r := s.rng.Intn(100); {
				case op == ops/2:
					s.checkpoint(&cover)
				case op == ops/3 || op == 2*ops/3:
					s.bulk()
				case r < 45:
					s.burst(30)
				case r < 60:
					s.update()
				case r < 72:
					s.nested()
				case r < 84:
					s.journal(wal.RecCommit)
				case r < 94:
					s.engineCommit()
				default:
					s.abort()
				}
			}
			s.burst(30) // an uncommitted tail
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			r, o := s.compare("end")
			s.scan(&cover)
			records, oracleRecords = records+r, oracleRecords+o
			if s.spill {
				spills++
			}
		})
	}
	if cover.multi == 0 || cover.down == 0 || cover.capped == 0 {
		t.Errorf("the streams logged %+v, want runs of several rows, runs going down, runs at the cap", cover)
	}
	if spills == 0 {
		t.Error("no stream spilled the log buffer between two durable points")
	}
	if records >= oracleRecords {
		t.Errorf("the coalesced logs scanned %d records, the per-row ones %d", records, oracleRecords)
	}
}
