package wal

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"activerules/internal/storage"
)

// marker returns the record a generation's log opens with.
func marker(t *testing.T, fsys FS, dir string, gen uint64) Record {
	t.Helper()
	data, err := fsys.ReadFile(LogPath(dir, gen))
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := ReadRecord(data)
	if err != nil || rec.Kind != RecSnapshot || rec.Gen != gen {
		t.Fatalf("gen %d log opens with %s (err %v), want its snapshot marker", gen, rec, err)
	}
	return rec
}

// frozen copies testdata/<name> (a snapshot and its generation-gen log)
// into directory "w" of a fresh MemFS.
func frozen(t *testing.T, name string, gen uint64) *MemFS {
	t.Helper()
	fsys := NewMemFS()
	for _, file := range []string{"snapshot.db", logName(gen)} {
		data, err := os.ReadFile(filepath.Join("testdata", name, file))
		if err != nil {
			t.Fatal(err)
		}
		rewrite(t, fsys, join("w", file), data)
	}
	return fsys
}

// TestSnapshotMarkerDigests pins the on-disk half of the state digest.
// What a snapshot marker stores is storage's DB.Fingerprint — the
// two-level digest over the tables' memoized ones, which a checkpoint
// reads instead of re-encoding and sorting every row — and what the
// reader accepts is that or, for a log written before checkpoints did
// so, the one-level CanonicalFingerprint.
func TestSnapshotMarkerDigests(t *testing.T) {
	fsys := NewMemFS()
	d, db := session(t, fsys, "w")
	empty := storage.NewDB(testSchema(t))
	db.MustInsert("acct", storage.StringV("ann"), storage.IntV(10))
	db.MustInsert("audit", storage.StringV("opened"), storage.BoolV(true))
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := marker(t, fsys, "w", 1).FP; got != empty.Fingerprint() || got == empty.CanonicalFingerprint() {
		t.Errorf("fresh log's marker %x is not the empty state's Fingerprint", got[:4])
	}
	if rec, _, err := Recover("w", testSchema(t), fsys); err != nil || !rec.Equal(db) {
		t.Errorf("recovery past the fresh log's marker: err %v", err)
	}
	if err := d.Checkpoint(db); err != nil {
		t.Fatal(err)
	}
	if got := marker(t, fsys, "w", 2).FP; got != db.Fingerprint() || got == db.CanonicalFingerprint() {
		t.Errorf("checkpointed log's marker %x is not the state's Fingerprint", got[:4])
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if rec, _, err := Recover("w", testSchema(t), fsys); err != nil || !rec.Equal(db) {
		t.Errorf("recovery past the checkpoint's marker: err %v", err)
	}

	// A directory written by the commit before tables memoized their
	// digests (testdata/marker-pr15: two transactions, a checkpoint over a
	// non-empty state, a third transaction holding a duplicate row and a
	// delete, an uncommitted tail) still opens, replays past its marker,
	// and lands on the state that commit recovered it to.
	old := frozen(t, "marker-pr15", 2)
	d2, err := Open("w", testSchema(t), Options{FS: old})
	if err != nil {
		t.Fatalf("open a pre-change directory: %v", err)
	}
	defer d2.Close()
	if info := d2.Info(); !info.SnapshotLoaded || info.Gen != 2 || info.RecordsScanned != 7 ||
		info.TxCommitted != 1 || info.MutationsReplayed != 2 || info.TailDiscarded != 1 {
		t.Errorf("pre-change directory: recovery info %+v", info)
	}
	const want = "52f661d4a15659779dbd76f86d46e8e3fad2cdb638a7c93966bc6cc20df11144" // that commit's Fingerprint of the recovered state
	if got := d2.State().CanonicalFingerprint(); hex.EncodeToString(got[:]) != want {
		t.Errorf("pre-change directory recovers to\n%sCanonicalFingerprint %x, want %s", d2.State(), got, want)
	}

	// That directory's marker is the canonical digest of its snapshot and
	// not the Fingerprint: opening it went through the reader's second
	// arm. Its snapshot file, the format's version 1, also pins that
	// version's decoder: decoded and encoded again by the version 1
	// oracle, it is the same bytes.
	snap := mustRead(t, old, "w/snapshot.db")
	at, gen, _, err := decodeSnapshot(snap, testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := marker(t, old, "w", 2).FP; got != at.CanonicalFingerprint() || got == at.Fingerprint() {
		t.Errorf("pre-change directory's marker %x is not its snapshot's CanonicalFingerprint", got[:4])
	}
	if got := encodeSnapshotV1(at, gen); !bytes.Equal(got, snap) {
		t.Errorf("encodeSnapshotV1:\n%x, want the file's\n%x", got, snap)
	}

	// A directory written by the commit that moved the marker to
	// Fingerprint (testdata/marker-pr21: two transactions, a checkpoint
	// over two non-empty tables one of which holds a duplicate row, a
	// third transaction with an insert into each and a delete, an
	// uncommitted tail). A change to Fingerprint's definition strands
	// this directory, and every one like it, unless the reader learns the
	// old value as another arm.
	cur := frozen(t, "marker-pr21", 2)
	d3, err := Open("w", testSchema(t), Options{FS: cur})
	if err != nil {
		t.Fatalf("open a directory whose marker is a Fingerprint: %v", err)
	}
	defer d3.Close()
	if info := d3.Info(); !info.SnapshotLoaded || info.Gen != 2 || info.RecordsScanned != 8 ||
		info.TxCommitted != 1 || info.MutationsReplayed != 3 || info.TailDiscarded != 1 {
		t.Errorf("Fingerprint-marker directory: recovery info %+v", info)
	}
	const want21 = "ba6447d329247ec5dafec254285a15af6de98cd890fce1ece2265b58094a327e" // the writer's Fingerprint at its last commit
	if got := d3.State().Fingerprint(); hex.EncodeToString(got[:]) != want21 {
		t.Errorf("Fingerprint-marker directory recovers to\n%sFingerprint %x, want %s", d3.State(), got, want21)
	}

	// A directory written by the commit that made the snapshot file
	// append-only (testdata/marker-pr57): a whole file at generation 2
	// over 40 acct rows and an audit row; generations 3 and 4 appended,
	// each an audit section and an index, so generation 2's and 3's
	// audit sections and indexes are dead; a generation 4 log holding a
	// transaction that inserts, deletes and updates audit rows, then an
	// uncommitted update; and behind the last index 20 bytes of a torn
	// append. It opens at generation 4 with no later log beside it and
	// leaves the file as it is. ReadSnapshot ships the live snapshot
	// alone, dead frames and torn bytes left out: the bytes a whole
	// rewrite of generation 4 writes. The session's first checkpoint
	// writes the file whole.
	v2 := frozen(t, "marker-pr57", 4)
	torn := mustRead(t, v2, "w/snapshot.db")
	d4, err := Open("w", testSchema(t), Options{FS: v2})
	if err != nil {
		t.Fatalf("open a directory with an appended snapshot and a torn append: %v", err)
	}
	defer d4.Close()
	if info := d4.Info(); !info.SnapshotLoaded || info.Gen != 4 || info.RecordsScanned != 8 ||
		info.TxCommitted != 1 || info.MutationsReplayed != 3 || info.TailDiscarded != 1 {
		t.Errorf("appended-snapshot directory: recovery info %+v", info)
	}
	const want57 = "1da4645ea9a66410d498a081d0ed392c123396d90261e21b662e93c541968435" // the writer's Fingerprint at its last commit
	if got := d4.State().Fingerprint(); hex.EncodeToString(got[:]) != want57 {
		t.Errorf("appended-snapshot directory recovers to\n%sFingerprint %x, want %s", d4.State(), got, want57)
	}
	const end57 = 1052 // where the generation 4 index ends
	if got := mustRead(t, v2, "w/snapshot.db"); len(torn) != end57+20 || !bytes.Equal(got, torn) {
		t.Fatalf("Open left a %d-byte snapshot.db of the fixture's %d, want it as it was, %d bytes", len(got), len(torn), end57+20)
	}
	at57, _, err := DecodeSnapshot(torn, testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	live, gen, ok, err := d4.ReadSnapshot()
	if want := encodeSnapshot(at57, 4); err != nil || !ok || gen != 4 || !bytes.Equal(live, want) || len(live) >= end57 {
		t.Errorf("ReadSnapshot of the fixture: %d bytes at generation %d (ok %v, err %v), want generation 4's %d live bytes", len(live), gen, ok, err, len(want))
	}
	if err := d4.Checkpoint(d4.State()); err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, v2, "w/snapshot.db"); !bytes.Equal(got, encodeSnapshot(d4.State(), 5)) {
		t.Errorf("the first checkpoint over the fixture did not write the file whole")
	}
}
