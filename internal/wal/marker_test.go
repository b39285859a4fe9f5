package wal

import (
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

// TestSnapshotMarkerStaysCanonical pins the on-disk half of the state
// digest: what a snapshot marker stores, and recovery verifies, is
// storage's CanonicalFingerprint — the one-level digest every log
// written before tables memoized their digests carries — and never the
// two-level DB.Fingerprint that Response.StateHash moved to.
func TestSnapshotMarkerStaysCanonical(t *testing.T) {
	fsys := NewMemFS()
	d, db := session(t, fsys, "w")
	empty := storage.NewDB(testSchema(t))
	db.MustInsert("acct", storage.StringV("ann"), storage.IntV(10))
	db.MustInsert("audit", storage.StringV("opened"), storage.BoolV(true))
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := marker(t, fsys, "w", 1).FP; got != empty.CanonicalFingerprint() || got == empty.Fingerprint() {
		t.Errorf("fresh log's marker %x is not the empty state's CanonicalFingerprint", got[:4])
	}
	if err := d.Checkpoint(db); err != nil {
		t.Fatal(err)
	}
	if got := marker(t, fsys, "w", 2).FP; got != db.CanonicalFingerprint() || got == db.Fingerprint() {
		t.Errorf("checkpointed log's marker %x is not the state's CanonicalFingerprint", got[:4])
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if rec, _, err := Recover("w", testSchema(t), fsys); err != nil || !rec.Equal(db) {
		t.Errorf("recovery past the checkpoint's marker: err %v", err)
	}

	// A directory written by the commit before this digest changed
	// (testdata/marker-pr15: two transactions, a checkpoint over a
	// non-empty state, a third transaction holding a duplicate row and a
	// delete, an uncommitted tail) still opens, replays past its marker,
	// and lands on the state that commit recovered it to.
	old := NewMemFS()
	for _, name := range []string{"snapshot.db", logName(2)} {
		data, err := os.ReadFile(filepath.Join("testdata", "marker-pr15", name))
		if err != nil {
			t.Fatal(err)
		}
		f, err := old.Create(join("w", name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
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
}
