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

// frozen copies testdata/<name> (a snapshot and its generation-2 log)
// into directory "w" of a fresh MemFS.
func frozen(t *testing.T, name string) *MemFS {
	t.Helper()
	fsys := NewMemFS()
	for _, file := range []string{"snapshot.db", logName(2)} {
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
	old := frozen(t, "marker-pr15")
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
	// arm. Its snapshot file also pins the encoder across commits:
	// decoded and encoded again — by the oracle, by the product's encoder
	// cold and again with every section memoized — it is the same bytes.
	snap := mustRead(t, old, "w/snapshot.db")
	at, gen, err := decodeSnapshot(snap, testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := marker(t, old, "w", 2).FP; got != at.CanonicalFingerprint() || got == at.Fingerprint() {
		t.Errorf("pre-change directory's marker %x is not its snapshot's CanonicalFingerprint", got[:4])
	}
	if got := encodeSnapshot(at, gen); !bytes.Equal(got, snap) {
		t.Errorf("encodeSnapshot:\n%x, want the file's\n%x", got, snap)
	}
	var enc snapEncoder
	for _, memo := range []string{"cold", "warm"} {
		if got := bytes.Join(enc.parts(at, gen), nil); !bytes.Equal(got, snap) {
			t.Errorf("snapEncoder, %s:\n%x, want the file's\n%x", memo, got, snap)
		}
	}

	// A directory written by the commit that moved the marker to
	// Fingerprint (testdata/marker-pr21: two transactions, a checkpoint
	// over two non-empty tables one of which holds a duplicate row, a
	// third transaction with an insert into each and a delete, an
	// uncommitted tail). A change to Fingerprint's definition strands
	// this directory, and every one like it, unless the reader learns the
	// old value as another arm.
	cur := frozen(t, "marker-pr21")
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
}
