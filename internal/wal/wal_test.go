package wal

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"activerules/internal/schema"
	"activerules/internal/storage"
)

func testSchema(t testing.TB) *schema.Schema {
	t.Helper()
	return schema.MustParse(`
table acct (owner string, balance int)
table audit (what string, ok bool)
`)
}

func allKinds() []Record {
	return []Record{
		{Kind: RecBegin},
		{Kind: RecCommit},
		{Kind: RecAbort},
		{Kind: RecInsert, Table: "acct", Rows: []Row{{ID: 7, Vals: []storage.Value{
			storage.StringV("ann"), storage.IntV(100),
		}}}},
		{Kind: RecInsert, Table: "audit", Rows: []Row{{ID: 8, Vals: []storage.Value{
			storage.StringV(""), storage.BoolV(true),
		}}}},
		{Kind: RecDelete, Table: "acct", Rows: []Row{{ID: 7}}},
		{Kind: RecInsert, Table: "acct", Rows: []Row{
			{ID: 10, Vals: []storage.Value{storage.StringV("cy"), storage.IntV(1)}},
			{ID: 12, Vals: []storage.Value{storage.Null, storage.IntV(-2)}},
			{ID: 11, Vals: []storage.Value{storage.StringV(""), storage.Null}},
		}},
		{Kind: RecDelete, Table: "audit", Rows: []Row{{ID: 40}, {ID: 3}, {ID: 1 << 40}, {ID: 1}}},
		{Kind: RecUpdate, Table: "acct", ID: 9, Col: "balance", Val: storage.IntV(-3)},
		{Kind: RecUpdate, Table: "acct", ID: 9, Col: "owner", Val: storage.Null},
		{Kind: RecUpdate, Table: "x", ID: 1, Col: "f", Val: storage.FloatV(2.5)},
		{Kind: RecSnapshot, Gen: 42, FP: [32]byte{1, 2, 3}},
		{Kind: RecEpoch, Epoch: 12345},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	var buf []byte
	recs := allKinds()
	for _, rec := range recs {
		buf = AppendRecord(buf, rec)
	}
	for i, want := range recs {
		got, n, err := ReadRecord(buf)
		if err != nil {
			t.Fatalf("record %d (%s): %v", i, want, err)
		}
		if got.String() != want.String() {
			t.Errorf("record %d: got %s, want %s", i, got, want)
		}
		// Structural comparison (Value.Equal is SQL equality, where null
		// never equals null).
		if got.Kind == RecUpdate && (got.Val.Kind != want.Val.Kind || got.Val.String() != want.Val.String()) {
			t.Errorf("record %d: value %v, want %v", i, got.Val, want.Val)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Errorf("%d bytes left over", len(buf))
	}
}

func TestReadRecordRejectsDamage(t *testing.T) {
	whole := AppendRecord(nil, Record{Kind: RecInsert, Table: "acct", Rows: []Row{{ID: 3,
		Vals: []storage.Value{storage.StringV("bo"), storage.IntV(1)}}}})

	// Every proper prefix is torn, never corrupt and never a panic.
	for n := 0; n < len(whole); n++ {
		if _, _, err := ReadRecord(whole[:n]); !errors.Is(err, ErrTorn) {
			t.Errorf("prefix %d/%d: got %v, want ErrTorn", n, len(whole), err)
		}
	}
	// Any single flipped byte is detected (header corruption may also
	// read as torn when the length field grows past the buffer).
	for i := range whole {
		bad := append([]byte(nil), whole...)
		bad[i] ^= 0x41
		if _, _, err := ReadRecord(bad); !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTorn) {
			t.Errorf("flip at %d: got %v, want ErrCorrupt or ErrTorn", i, err)
		}
	}
	// A zero length field is implausible, not torn.
	if _, _, err := ReadRecord(make([]byte, headerSize)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("zero length: got %v, want ErrCorrupt", err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	sch := testSchema(t)
	db := storage.NewDB(sch)
	a := db.MustInsert("acct", storage.StringV("ann"), storage.IntV(10))
	db.MustInsert("acct", storage.StringV("bob"), storage.IntV(20))
	db.MustInsert("audit", storage.StringV("hi"), storage.BoolV(false))
	db.Delete("acct", a)

	data := bytes.Join(new(snapEncoder).parts(db, 9), nil)
	got, gen, err := decodeSnapshot(data, sch)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 9 {
		t.Errorf("gen = %d, want 9", gen)
	}
	if got.Fingerprint() != db.Fingerprint() {
		t.Errorf("contents differ:\ngot:\n%s\nwant:\n%s", got, db)
	}
	if got.NextID() != db.NextID() {
		t.Errorf("nextID = %d, want %d", got.NextID(), db.NextID())
	}

	// Every single-byte flip is caught by the digest.
	for _, i := range []int{0, 3, len(data) / 2, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x41
		if _, _, err := decodeSnapshot(bad, sch); !errors.Is(err, ErrCorrupt) {
			t.Errorf("flip at %d: got %v, want ErrCorrupt", i, err)
		}
	}
}

// session opens a DurableDB and returns it with its state, failing the
// test on error.
func session(t *testing.T, fsys FS, dir string) (*DurableDB, *storage.DB) {
	t.Helper()
	d, err := Open(dir, testSchema(t), Options{FS: fsys})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	db := d.State()
	db.SetObserver(d)
	return d, db
}

func TestOpenFreshThenReopen(t *testing.T) {
	fsys := NewMemFS()
	d, db := session(t, fsys, "w")
	if !d.Info().Fresh || d.Info().Gen != 1 {
		t.Fatalf("fresh open: info = %+v", d.Info())
	}
	db.MustInsert("acct", storage.StringV("ann"), storage.IntV(10))
	id := db.MustInsert("acct", storage.StringV("bob"), storage.IntV(20))
	if _, err := db.Update("acct", id, "balance", storage.IntV(25)); err != nil {
		t.Fatal(err)
	}
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	want := db.Fingerprint()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, db2 := session(t, fsys, "w")
	if d2.Info().Fresh {
		t.Error("reopen reported fresh")
	}
	// The two inserts share a record; the mutations count rows.
	if info := d2.Info(); info.TxCommitted != 1 || info.MutationsReplayed != 3 || info.RecordsScanned != 5 {
		t.Errorf("reopen info = %+v, want 1 commit, 3 mutations in 5 records (marker, begin, insert run, update, commit)", info)
	}
	if db2.Fingerprint() != want {
		t.Errorf("recovered contents differ:\n%s", db2)
	}
}

func TestUncommittedTailDiscarded(t *testing.T) {
	fsys := NewMemFS()
	d, db := session(t, fsys, "w")
	db.MustInsert("acct", storage.StringV("ann"), storage.IntV(10))
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	committed := db.Fingerprint()
	db.MustInsert("acct", storage.StringV("eve"), storage.IntV(666))
	// Neither Commit nor Close: the insert is an uncommitted tail. Force
	// the buffered bytes out so they are really in the file.
	d.log.flush()

	_, db2 := session(t, fsys, "w")
	if db2.Fingerprint() != committed {
		t.Errorf("uncommitted insert replayed:\n%s", db2)
	}
}

// A well-formed uncommitted tail survives in the log file across Open
// (only torn bytes are truncated). When the next session commits, its
// begin record must fence that stale tail off: the new commit adopts
// only the new session's mutations, never the discarded ones — and
// replay must not trip over the tuple IDs the new session reuses
// (the discarded inserts never bumped the recovered allocator).
func TestStaleTailNotAdoptedByNextSessionCommit(t *testing.T) {
	fsys := NewMemFS()
	d, db := session(t, fsys, "w")
	db.MustInsert("acct", storage.StringV("ann"), storage.IntV(10))
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	db.MustInsert("acct", storage.StringV("eve"), storage.IntV(666))
	// Spill the uncommitted insert into the file, then end the session
	// uncleanly: no Commit, no Close.
	d.log.flush()

	// Session 2 discards eve on recovery, then commits fresh work whose
	// tuple ID collides with eve's.
	d2, db2 := session(t, fsys, "w")
	db2.MustInsert("acct", storage.StringV("bob"), storage.IntV(20))
	if err := d2.Commit(); err != nil {
		t.Fatal(err)
	}
	want := db2.Fingerprint()
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}

	// Session 3 must see ann+bob — eve's stale record must not have been
	// folded into session 2's commit range.
	_, db3 := session(t, fsys, "w")
	if db3.Fingerprint() != want {
		t.Errorf("stale uncommitted tail folded into the next session's commit:\ngot:\n%s\nwant:\n%s", db3, db2)
	}
	if info := mustRecoverInfo(t, fsys, "w"); info.TailDiscarded != 1 {
		t.Errorf("info = %+v, want TailDiscarded=1", info)
	}
}

// engineCommit models what Engine.Commit does with a journal attached:
// a durable point followed by a new transaction start.
func engineCommit(t *testing.T, d *DurableDB) {
	t.Helper()
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := d.Begin(); err != nil {
		t.Fatal(err)
	}
}

func TestAbortRollsBackToBegin(t *testing.T) {
	fsys := NewMemFS()
	d, db := session(t, fsys, "w")
	db.MustInsert("acct", storage.StringV("ann"), storage.IntV(10))
	engineCommit(t, d)
	floor := db.Fingerprint()
	db.MustInsert("acct", storage.StringV("bob"), storage.IntV(20))
	engineCommit(t, d)
	db.MustInsert("acct", storage.StringV("eve"), storage.IntV(30))
	if err := d.Abort(); err != nil {
		t.Fatal(err)
	}
	// The abort rolls back to the latest begin record — the one after
	// bob's engine commit: bob survives, eve does not.
	_, db2 := session(t, fsys, "w")
	if got := db2.Table("acct").Len(); got != 2 {
		t.Errorf("acct has %d rows after abort recovery, want 2:\n%s", got, db2)
	}
	if db2.Fingerprint() == floor {
		t.Error("abort rolled back past its begin record")
	}
	if info := mustRecoverInfo(t, fsys, "w"); info.Aborts != 1 {
		t.Errorf("info = %+v, want Aborts=1", info)
	}
}

func TestAbortUndoesAssertPointCommitsWithinTransaction(t *testing.T) {
	fsys := NewMemFS()
	d, db := session(t, fsys, "w")
	db.MustInsert("acct", storage.StringV("ann"), storage.IntV(10))
	engineCommit(t, d)
	floor := db.Fingerprint()
	// Two assertion-point commits (durable points) WITHOUT a new begin,
	// then an abort: the rollback action undoes the whole engine
	// transaction, durable points included.
	db.MustInsert("acct", storage.StringV("bob"), storage.IntV(20))
	if err := d.log.Commit(); err != nil {
		t.Fatal(err)
	}
	db.MustInsert("acct", storage.StringV("cyd"), storage.IntV(30))
	if err := d.log.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := d.Abort(); err != nil {
		t.Fatal(err)
	}
	_, db2 := session(t, fsys, "w")
	if db2.Fingerprint() != floor {
		t.Errorf("recovered state is not the transaction floor:\n%s", db2)
	}
}

func mustRecoverInfo(t *testing.T, fsys FS, dir string) RecoveryInfo {
	t.Helper()
	_, info, err := Recover(dir, testSchema(t), fsys)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func TestCheckpointRotation(t *testing.T) {
	fsys := NewMemFS()
	d, db := session(t, fsys, "w")
	for i := 0; i < 5; i++ {
		db.MustInsert("acct", storage.StringV("u"), storage.IntV(int64(i)))
		if err := d.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(db); err != nil {
		t.Fatal(err)
	}
	if d.Gen() != 2 {
		t.Fatalf("gen = %d, want 2", d.Gen())
	}
	db.MustInsert("audit", storage.StringV("post"), storage.BoolV(true))
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	want := db.Fingerprint()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	names, _ := fsys.ReadDir("w")
	if len(names) != 2 || names[0] != "snapshot.db" || names[1] != "wal-000002.log" {
		t.Fatalf("directory after checkpoint: %v", names)
	}
	d2, db2 := session(t, fsys, "w")
	if !d2.Info().SnapshotLoaded || d2.Info().Gen != 2 {
		t.Errorf("info = %+v", d2.Info())
	}
	if d2.Info().MutationsReplayed != 1 {
		t.Errorf("replayed %d mutations from gen-2 log, want 1", d2.Info().MutationsReplayed)
	}
	if db2.Fingerprint() != want {
		t.Errorf("recovered contents differ:\n%s", db2)
	}
}

func TestCorruptTailTruncated(t *testing.T) {
	fsys := NewMemFS()
	d, db := session(t, fsys, "w")
	db.MustInsert("acct", storage.StringV("ann"), storage.IntV(10))
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	goodState := db.Fingerprint()
	goodLen := len(mustRead(t, fsys, "w/wal-000001.log"))
	db.MustInsert("acct", storage.StringV("bob"), storage.IntV(20))
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}

	// Flip one byte inside bob's records: the CRC catches it and the
	// log is cut back to ann's committed prefix, not replayed past it.
	data := mustRead(t, fsys, "w/wal-000001.log")
	data[goodLen+9] ^= 0xFF
	rewrite(t, fsys, "w/wal-000001.log", data)

	d2, db2 := session(t, fsys, "w")
	if db2.Fingerprint() != goodState {
		t.Errorf("corrupt tail was replayed:\n%s", db2)
	}
	if d2.Info().TruncatedBytes == 0 {
		t.Errorf("info = %+v, want TruncatedBytes > 0", d2.Info())
	}
	// The truncation is durable: a second recovery sees a clean log.
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	d3, db3 := session(t, fsys, "w")
	if db3.Fingerprint() != goodState {
		t.Errorf("second recovery diverged:\n%s", db3)
	}
	if d3.Info().TruncatedBytes != 0 {
		t.Errorf("second recovery still truncating: %+v", d3.Info())
	}
}

func TestCorruptSnapshotUnrecoverable(t *testing.T) {
	fsys := NewMemFS()
	d, db := session(t, fsys, "w")
	db.MustInsert("acct", storage.StringV("ann"), storage.IntV(10))
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(db); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	data := mustRead(t, fsys, "w/snapshot.db")
	data[len(data)/2] ^= 0x01
	rewrite(t, fsys, "w/snapshot.db", data)

	if _, err := Open("w", testSchema(t), Options{FS: fsys}); !errors.Is(err, ErrUnrecoverable) {
		t.Errorf("Open on corrupt snapshot: %v, want ErrUnrecoverable", err)
	}
}

// TestMismatchedMarkerUnrecoverable: the log's marker must be a content
// digest of the very state the reader decoded, under its generation.
// Either digest of another state, and either digest of the right state
// under another generation, are refused like garbage is.
func TestMismatchedMarkerUnrecoverable(t *testing.T) {
	fsys := NewMemFS()
	d, db := session(t, fsys, "w")
	db.MustInsert("acct", storage.StringV("ann"), storage.IntV(10))
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(db); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	other := db.Clone()
	other.MustInsert("acct", storage.StringV("ann"), storage.IntV(10)) // the same row once more
	for _, c := range []struct {
		name   string
		marker Record
		ok     bool
	}{
		{"garbage", Record{Kind: RecSnapshot, Gen: 2, FP: [32]byte{0xde, 0xad}}, false},
		{"another state's Fingerprint", Record{Kind: RecSnapshot, Gen: 2, FP: other.Fingerprint()}, false},
		{"another state's CanonicalFingerprint", Record{Kind: RecSnapshot, Gen: 2, FP: other.CanonicalFingerprint()}, false},
		{"Fingerprint under another generation", Record{Kind: RecSnapshot, Gen: 1, FP: db.Fingerprint()}, false},
		{"CanonicalFingerprint under another generation", Record{Kind: RecSnapshot, Gen: 3, FP: db.CanonicalFingerprint()}, false},
		{"Fingerprint", Record{Kind: RecSnapshot, Gen: 2, FP: db.Fingerprint()}, true},
		{"CanonicalFingerprint", Record{Kind: RecSnapshot, Gen: 2, FP: db.CanonicalFingerprint()}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			rewrite(t, fsys, "w/wal-000002.log", AppendRecord(AppendRecord(nil, c.marker), Record{Kind: RecBegin}))
			_, _, err := Recover("w", testSchema(t), fsys)
			if c.ok && err != nil || !c.ok && !errors.Is(err, ErrUnrecoverable) {
				t.Errorf("Recover: %v (want it to open: %v)", err, c.ok)
			}
			d, err := Open("w", testSchema(t), Options{FS: fsys})
			if c.ok && err != nil || !c.ok && !errors.Is(err, ErrUnrecoverable) {
				t.Errorf("Open: %v (want it to open: %v)", err, c.ok)
			}
			if err == nil {
				d.Close()
			}
		})
	}
}

func TestSavepointCompensationsReplay(t *testing.T) {
	fsys := NewMemFS()
	d, db := session(t, fsys, "w")
	a := db.MustInsert("acct", storage.StringV("ann"), storage.IntV(10))
	sp := db.Savepoint()
	db.MustInsert("acct", storage.StringV("tmp"), storage.IntV(1))
	db.Delete("acct", a)
	if _, err := db.Update("acct", db.MustInsert("acct", storage.StringV("t2"), storage.IntV(2)), "balance", storage.IntV(3)); err != nil {
		t.Fatal(err)
	}
	db.RollbackTo(sp)
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	want := db.Fingerprint()
	_, db2 := session(t, fsys, "w")
	if db2.Fingerprint() != want {
		t.Errorf("replay through savepoint compensations diverged:\ngot:\n%s\nwant:\n%s", db2, db)
	}
}

// TestSyncPoliciesAndGroupCommit checks both fsync policies after a
// clean shutdown, and the contract a group commit would break: under
// SyncCommit every Commit that returns nil has made every byte written
// so far durable.
func TestSyncPoliciesAndGroupCommit(t *testing.T) {
	for _, c := range []struct {
		opt  Options
		name string
	}{
		{Options{Sync: SyncCommit}, "u"},
		{Options{Sync: SyncNever}, "u"},
		// Every insert record outgrows the 256 KiB append buffer, so the
		// log spills it before the commit point.
		{Options{}, strings.Repeat("u", 256<<10)},
	} {
		opt := c.opt
		fsys := NewMemFS()
		opt.FS = fsys
		d, err := Open("w", testSchema(t), opt)
		if err != nil {
			t.Fatal(err)
		}
		db := d.State()
		db.SetObserver(d)
		for i := 0; i < 7; i++ {
			db.MustInsert("acct", storage.StringV(c.name), storage.IntV(int64(i)))
			if err := d.Commit(); err != nil {
				t.Fatal(err)
			}
			if opt.Sync != SyncCommit {
				continue
			}
			written := int64(len(mustRead(t, fsys, LogPath("w", d.Gen()))))
			if got := d.log.DurableOffset(); got != written {
				t.Errorf("opts %+v, %d-byte name, commit %d: DurableOffset %d, %d bytes written",
					c.opt, len(c.name), i, got, written)
			}
		}
		want := db.Fingerprint()
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		_, db2 := session(t, fsys, "w")
		if db2.Fingerprint() != want {
			t.Errorf("opts %+v, %d-byte name: clean-shutdown recovery diverged", c.opt, len(c.name))
		}
	}
}

func mustRead(t *testing.T, fsys FS, name string) []byte {
	t.Helper()
	data, err := fsys.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func rewrite(t *testing.T, fsys FS, name string, data []byte) {
	t.Helper()
	f, err := fsys.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWALAppend(b *testing.B) {
	fsys := NewMemFS()
	d, err := Open("w", testSchema(b), Options{FS: fsys, Sync: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	db := d.State()
	db.SetObserver(d)
	vals := []storage.Value{storage.StringV("benchmark-owner"), storage.IntV(42)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Insert("acct", vals); err != nil {
			b.Fatal(err)
		}
		if i%16 == 15 {
			if err := d.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkRecovery(b *testing.B) {
	fsys := NewMemFS()
	d, err := Open("w", testSchema(b), Options{FS: fsys, Sync: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	db := d.State()
	db.SetObserver(d)
	for i := 0; i < 2000; i++ {
		db.MustInsert("acct", storage.StringV("u"), storage.IntV(int64(i)))
		if i%8 == 7 {
			if err := d.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Recover("w", testSchema(b), fsys); err != nil {
			b.Fatal(err)
		}
	}
}

// Guard against accidental format drift: the framed encoding of a fixed
// record sequence is pinned byte-for-byte.
func TestRecordEncodingPinned(t *testing.T) {
	buf := AppendRecord(nil, Record{Kind: RecBegin})
	buf = AppendRecord(buf, Record{Kind: RecInsert, Table: "t", Rows: []Row{{ID: 1,
		Vals: []storage.Value{storage.IntV(5)}}}})
	buf = AppendRecord(buf, Record{Kind: RecCommit})
	// Runs: the second row's identity is the zigzag delta from the
	// first's (+2 → 0x04, −2 → 0x03).
	buf = AppendRecord(buf, Record{Kind: RecInsert, Table: "t", Rows: []Row{
		{ID: 1, Vals: []storage.Value{storage.IntV(5)}},
		{ID: 3, Vals: []storage.Value{storage.IntV(6)}},
	}})
	buf = AppendRecord(buf, Record{Kind: RecDelete, Table: "t", Rows: []Row{{ID: 3}, {ID: 1}}})
	want := []byte{
		0x01, 0x00, 0x00, 0x00, 0x52, 0xd0, 0x16, 0xa0, 0x01,
		0x07, 0x00, 0x00, 0x00, 0xb6, 0x4c, 0x34, 0xb2, 0x04, 0x01, 't', 0x01, 0x01, 0x01, 0x0a,
		0x01, 0x00, 0x00, 0x00, 0xa6, 0x23, 0x46, 0xb3, 0x02,
		0x0b, 0x00, 0x00, 0x00, 0x71, 0xaa, 0x41, 0x5c, 0x04, 0x01, 't', 0x01, 0x01, 0x01, 0x0a, 0x04, 0x01, 0x01, 0x0c,
		0x05, 0x00, 0x00, 0x00, 0xa1, 0xf4, 0x89, 0xaf, 0x05, 0x01, 't', 0x03, 0x03,
	}
	if !bytes.Equal(buf, want) {
		t.Errorf("encoding drifted:\ngot  %#v\nwant %#v", buf, want)
	}
}
