package replica

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"activerules/internal/schema"
	"activerules/internal/storage"
	"activerules/internal/wal"
)

// These tests drive a Follower with no connection: bootstrap over a
// MemFS directory, then chunk frames handed straight to handleFrame —
// the path every streamed byte takes (persist, sync, feed the reader),
// and the call whose error keeps stream from writing the ack.

var stopSchema = schema.MustParse("table t (v int)")

func logOf(recs ...wal.Record) []byte {
	var b []byte
	for _, r := range recs {
		b = wal.AppendRecord(b, r)
	}
	return b
}

// marker opens these tests' logs with the canonical digest on purpose:
// new logs carry DB.Fingerprint, and this is the coverage a follower
// gets of the reader's other arm, the one a leader's older log takes.
func marker() wal.Record {
	return wal.Record{Kind: wal.RecSnapshot, Gen: 1, FP: storage.NewDB(stopSchema).CanonicalFingerprint()}
}

func insert(id int) wal.Record {
	return wal.Record{Kind: wal.RecInsert, Table: "t", ID: storage.TupleID(id), Vals: []storage.Value{storage.IntV(int64(id))}}
}

var (
	begin  = wal.Record{Kind: wal.RecBegin}
	commit = wal.Record{Kind: wal.RecCommit}
)

func offlineFollower(t *testing.T, fsys wal.FS) *Follower {
	t.Helper()
	if err := fsys.MkdirAll(replicaDir); err != nil {
		t.Fatal(err)
	}
	f := &Follower{sch: stopSchema, dir: replicaDir, fs: fsys}
	if err := f.bootstrap(); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *Follower) chunk(payload []byte) error {
	return f.handleFrame(frame{kind: frameChunk, gen: f.gen, off: f.off, payload: payload})
}

// TestReplicaCorruptRecordStopsStream: a record with a bad CRC inside a
// well-formed frame (the source ships whatever the leader's file holds)
// must fail the stream — before the ack — and keep failing it. The
// parent's applier took every decode error for "partial record, wait",
// so it returned nil forever, buffered without bound and let the
// follower keep acknowledging commits its own promotion would drop.
func TestReplicaCorruptRecordStopsStream(t *testing.T) {
	f := offlineFollower(t, wal.NewMemFS())
	if err := f.chunk(logOf(marker(), begin, insert(1), commit, begin)); err != nil {
		t.Fatal(err)
	}
	bad := logOf(insert(2))
	bad[len(bad)-1] ^= 0x01
	goodLen := f.off
	err := f.chunk(bad)
	if !errors.Is(err, wal.ErrStop) || !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("corrupt record: handleFrame returned %v, want wal.ErrStop wrapping ErrCorrupt", err)
	}
	if f.rp.Good() != goodLen {
		t.Errorf("stop at byte %d, want %d", f.rp.Good(), goodLen)
	}
	for i := 3; i < 1003; i++ {
		if err := f.chunk(logOf(insert(i), commit, begin)); !errors.Is(err, wal.ErrStop) {
			t.Fatalf("transaction %d after the corrupt record: handleFrame returned %v, want the sticky stop", i, err)
		}
	}
	// Not even a lease is answered: its ack would carry f.off.
	if err := f.handleFrame(frame{kind: frameLease, epoch: 1}); !errors.Is(err, wal.ErrStop) {
		t.Fatalf("lease after the stop: %v, want the sticky stop", err)
	}
	if f.off != goodLen+int64(len(bad)) {
		t.Errorf("local log grew to %d bytes past the stop; want only the failing chunk (%d)", f.off, goodLen+int64(len(bad)))
	}
	if n := f.rp.Info().TruncatedBytes; n != int64(len(bad)) {
		t.Errorf("reader was fed %d bytes past the stop, want only the failing chunk (%d)", n, len(bad))
	}
	if n := f.rp.DB().Table("t").Len(); n != 1 {
		t.Errorf("visible rows = %d, want 1", n)
	}
	f.setConnected(false, err)
	if h := f.Health(); !strings.Contains(h.LastErr, "log unreadable past byte") {
		t.Errorf("Health().LastErr = %q, want the stop", h.LastErr)
	}
}

// TestReplicaRecoverAgreeOnMidLogMarker: a snapshot marker inside the
// log ends the trusted prefix for every reader. The parent's follower
// returned an error only after consuming the marker, so the reconnect
// resumed past it and showed a state (2 rows) that recovery over the
// same file (1 row, truncating at the marker) — its own promotion —
// could not reach.
func TestReplicaRecoverAgreeOnMidLogMarker(t *testing.T) {
	fsys := wal.NewMemFS()
	f := offlineFollower(t, fsys)
	head := logOf(marker(), begin, insert(1), commit)
	tail := logOf(marker(), begin, insert(2), commit, begin)
	if err := f.chunk(head); err != nil {
		t.Fatal(err)
	}
	if err := f.chunk(tail); !errors.Is(err, wal.ErrStop) || f.rp.Good() != int64(len(head)) {
		t.Fatalf("mid-log marker: %v at byte %d, want a stop at byte %d", err, f.rp.Good(), len(head))
	}
	// The reconnect: the next chunk lands at the follower's offset.
	if err := f.chunk(logOf(insert(3), commit, begin)); !errors.Is(err, wal.ErrStop) {
		t.Fatalf("chunk after the marker: %v, want the sticky stop", err)
	}
	f.logf.Close()

	rec, info, err := wal.Recover(replicaDir, stopSchema, fsys)
	if err != nil {
		t.Fatal(err)
	}
	if info.TruncatedBytes != int64(len(tail)) {
		t.Errorf("recovery would truncate %d bytes, want %d", info.TruncatedBytes, len(tail))
	}
	// The follower withholds the unfenced commit; its promotion adopts
	// it. Every row the follower shows must be one recovery keeps, in
	// recovery's order, and a restart over the same file must agree with
	// the stream.
	if got, want := f.rp.DB().Table("t").IDs(), rec.Table("t").IDs(); len(got) > len(want) || !reflect.DeepEqual(got, want[:len(got)]) {
		t.Errorf("follower shows rows %v, recovery of the same file %v", got, want)
	}
	g := offlineFollower(t, fsys)
	defer g.logf.Close()
	if g.rp.DB().Fingerprint() != f.rp.DB().Fingerprint() {
		t.Error("restarted follower and streaming follower disagree over the same bytes")
	}
	if g.off != int64(len(head)) {
		t.Errorf("restarted follower resumes at %d, want the marker's offset %d", g.off, len(head))
	}
	// Fence the surviving commit the way the leader's next transaction
	// would: follower and recovery now show the same database.
	if err := g.chunk(logOf(begin)); err != nil {
		t.Fatal(err)
	}
	rec, _, err = wal.Recover(replicaDir, stopSchema, fsys)
	if err != nil {
		t.Fatal(err)
	}
	if g.rp.DB().Fingerprint() != rec.Fingerprint() || !reflect.DeepEqual(g.rp.DB().Table("t").IDs(), rec.Table("t").IDs()) {
		t.Errorf("fenced follower rows %v, recovery rows %v", g.rp.DB().Table("t").IDs(), rec.Table("t").IDs())
	}
}

// TestReplicaRefusesAnotherStatesMarker: a log opening with either
// digest of a state the follower does not hold, or with the right digest
// under another generation, is applied by no reader — the stream fails
// for good, a restart over the persisted bytes starts cold (generation
// 0: ask for a snapshot), and promotion over them is unrecoverable.
func TestReplicaRefusesAnotherStatesMarker(t *testing.T) {
	other := storage.NewDB(stopSchema)
	other.MustInsert("t", storage.IntV(1))
	for name, m := range map[string]wal.Record{
		"another state's Fingerprint":          {Kind: wal.RecSnapshot, Gen: 1, FP: other.Fingerprint()},
		"another state's CanonicalFingerprint": {Kind: wal.RecSnapshot, Gen: 1, FP: other.CanonicalFingerprint()},
		"Fingerprint under another generation": {Kind: wal.RecSnapshot, Gen: 2, FP: storage.NewDB(stopSchema).Fingerprint()},
	} {
		fsys := wal.NewMemFS()
		f := offlineFollower(t, fsys)
		if err := f.chunk(logOf(m, begin, insert(2), commit, begin)); err == nil || errors.Is(err, wal.ErrStop) {
			t.Errorf("%s: stream: %v, want a refusal no cut recovers from", name, err)
		}
		if n := f.rp.DB().Table("t").Len(); n != 0 {
			t.Errorf("%s: follower applied %d rows past the marker", name, n)
		}
		f.logf.Close()
		if g := offlineFollower(t, fsys); g.gen != 0 {
			t.Errorf("%s: restart resumes generation %d, want a cold start", name, g.gen)
		}
		if _, err := wal.Open(replicaDir, stopSchema, wal.Options{FS: fsys}); !errors.Is(err, wal.ErrUnrecoverable) {
			t.Errorf("%s: promotion: %v, want ErrUnrecoverable", name, err)
		}
	}
	f := offlineFollower(t, wal.NewMemFS())
	defer f.logf.Close()
	m := wal.Record{Kind: wal.RecSnapshot, Gen: 1, FP: storage.NewDB(stopSchema).Fingerprint()}
	if err := f.chunk(logOf(m, begin, insert(2), commit, begin)); err != nil || f.rp.DB().Table("t").Len() != 1 {
		t.Errorf("the state's own Fingerprint as marker: %v, %d rows applied", err, f.rp.DB().Table("t").Len())
	}
}

// TestReplicaBootstrapRecoversEpochAndPos pins what bootstrap takes
// from the reader: the highest epoch in the local log, its good length
// as the resume position, and the truncation of a torn local tail.
func TestReplicaBootstrapRecoversEpochAndPos(t *testing.T) {
	fsys := wal.NewMemFS()
	log := logOf(marker(), begin, wal.Record{Kind: wal.RecEpoch, Epoch: 7}, insert(1), commit)
	f := offlineFollower(t, fsys)
	if err := f.chunk(log); err != nil {
		t.Fatal(err)
	}
	f.logf.Close()

	check := func(label string) {
		t.Helper()
		g := offlineFollower(t, fsys)
		defer g.logf.Close()
		if e := g.Epoch(); e != 7 {
			t.Errorf("%s: Epoch() = %d, want 7", label, e)
		}
		if gen, off := g.Pos(); gen != 1 || off != int64(len(log)) {
			t.Errorf("%s: Pos() = (%d, %d), want (1, %d)", label, gen, off, len(log))
		}
		if data, err := fsys.ReadFile(wal.LogPath(replicaDir, 1)); err != nil || len(data) != len(log) {
			t.Errorf("%s: local log is %d bytes (err %v), want %d", label, len(data), err, len(log))
		}
		if n := g.rp.Info().TruncatedBytes; n != 0 {
			t.Errorf("%s: reader still holds %d bytes of the cut tail", label, n)
		}
		// The stream resumes at Pos() with the bytes the cut removed.
		if err := g.chunk(logOf(begin)); err != nil {
			t.Errorf("%s: resume: %v", label, err)
		} else if g.rp.DB().Table("t").Len() != 1 {
			t.Errorf("%s: resumed follower shows %d rows, want 1", label, g.rp.DB().Table("t").Len())
		}
		if err := fsys.Truncate(wal.LogPath(replicaDir, 1), int64(len(log))); err != nil {
			t.Fatal(err)
		}
	}
	check("clean log")

	torn := logOf(insert(2))
	h, err := fsys.OpenAppend(wal.LogPath(replicaDir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write(torn[:len(torn)-3]); err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	h.Close()
	check("torn tail")
}

// TestReplicaHealthHashesNoRows: a health probe of an idle follower
// costs the same whatever the replica holds — the state hash answers
// from the table digests the last probe left — where it used to sort and
// hash every row under f.mu, holding Apply off meanwhile.
func TestReplicaHealthHashesNoRows(t *testing.T) {
	probe := func(rows int) float64 {
		f := offlineFollower(t, wal.NewMemFS())
		recs := []wal.Record{marker(), begin}
		for i := 1; i <= rows; i++ {
			recs = append(recs, insert(i))
		}
		if err := f.chunk(logOf(append(recs, commit, begin)...)); err != nil {
			t.Fatal(err)
		}
		if n := f.rp.DB().Table("t").Len(); n != rows {
			t.Fatalf("follower shows %d rows, want %d", n, rows)
		}
		f.Health() // the first probe after an apply reads what was applied
		return testing.AllocsPerRun(100, func() { f.Health() })
	}
	if idle, loaded := probe(0), probe(10000); idle != loaded {
		t.Errorf("Health allocates %v per probe over an empty replica, %v over 10 000 rows", idle, loaded)
	}
}
