package wal

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"activerules/internal/storage"
)

// countingFS counts the writes, and their bytes, that reach a snapshot
// file: snapshot.db or snapshot.tmp.
type countingFS struct {
	FS
	writes, bytes int
}

type countingFile struct {
	File
	fs   *countingFS
	snap bool
}

func isSnapshotFile(name string) bool {
	return strings.HasSuffix(name, "/snapshot.db") || strings.HasSuffix(name, "/snapshot.tmp")
}

func (c *countingFS) Create(name string) (File, error) {
	f, err := c.FS.Create(name)
	return countingFile{f, c, isSnapshotFile(name)}, err
}

func (c *countingFS) OpenAppend(name string) (File, error) {
	f, err := c.FS.OpenAppend(name)
	return countingFile{f, c, isSnapshotFile(name)}, err
}

func (f countingFile) Write(p []byte) (int, error) {
	if f.snap {
		f.fs.writes++
		f.fs.bytes += len(p)
	}
	return f.File.Write(p)
}

// TestCheckpointBytesFlatInRows is the checkpoint's cost model as a
// tripwire: after one hot-row update beside 1 000, 10 000 and 100 000
// untouched rows, a checkpoint writes the same bytes — the hot table's
// section and an index, in two writes — whatever the row count. The hot
// row is inserted first, so it has the same identity at every size.
func TestCheckpointBytesFlatInRows(t *testing.T) {
	want := 0
	for _, rows := range []int{1000, 10000, 100000} {
		fsys := &countingFS{FS: NewMemFS()}
		d, err := Open("w", testSchema(t), Options{FS: fsys})
		if err != nil {
			t.Fatal(err)
		}
		db := d.State()
		db.SetObserver(d)
		hot := db.MustInsert("audit", storage.StringV("hot"), storage.BoolV(false))
		archive := make([][]storage.Value, rows)
		for i := range archive {
			archive[i] = []storage.Value{storage.StringV(fmt.Sprintf("archived-row-%08d", i)), storage.IntV(int64(i))}
		}
		if _, err := db.InsertRows("acct", archive); err != nil {
			t.Fatal(err)
		}
		engineCommit(t, d)
		if err := d.Checkpoint(db); err != nil {
			t.Fatal(err)
		}
		if err := db.UpdateRows("audit", []string{"ok"}, []storage.TupleID{hot}, []storage.Value{storage.BoolV(true)}); err != nil {
			t.Fatal(err)
		}
		engineCommit(t, d)
		fsys.writes, fsys.bytes = 0, 0
		if err := d.Checkpoint(db); err != nil {
			t.Fatal(err)
		}
		if want == 0 {
			want = fsys.bytes
		}
		if fsys.writes != 2 || fsys.bytes != want {
			t.Errorf("%d rows: a checkpoint after one hot-row update wrote %d bytes in %d writes, want %d in 2", rows, fsys.bytes, fsys.writes, want)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotReaderRacingAppend: a reader of snapshot.db runs off the
// worker (replication's ReadSnapshot) and can catch an append half
// written. Every prefix of the file an append is extending decodes to
// the previous index's state at its generation, and holds, live, exactly
// the file that generation's checkpoint wrote; and ReadSnapshot, called
// in a loop while the worker checkpoints, only ever returns a snapshot
// the worker took, as the from-scratch encoder writes it whole.
func TestSnapshotReaderRacingAppend(t *testing.T) {
	sch := testSchema(t)
	fsys := NewMemFS()
	d, db := session(t, fsys, "w")
	for i := 0; i < 20; i++ {
		db.MustInsert("acct", storage.StringV(fmt.Sprintf("row-%d", i)), storage.IntV(int64(i)))
	}
	hot := db.MustInsert("audit", storage.StringV("hot"), storage.BoolV(false))
	engineCommit(t, d)
	if err := d.Checkpoint(db); err != nil {
		t.Fatal(err)
	}
	prev, prevGen := mustRead(t, fsys, "w/snapshot.db"), d.Gen()
	prevState := encodeSnapshot(db, prevGen)
	if err := db.UpdateRows("audit", []string{"ok"}, []storage.TupleID{hot}, []storage.Value{storage.BoolV(true)}); err != nil {
		t.Fatal(err)
	}
	engineCommit(t, d)
	if err := d.Checkpoint(db); err != nil {
		t.Fatal(err)
	}
	cur := mustRead(t, fsys, "w/snapshot.db")
	if !bytes.HasPrefix(cur, prev) {
		t.Fatal("the second checkpoint did not append; the case is vacuous")
	}
	for n := len(prev); n < len(cur); n++ {
		at, gen, err := DecodeSnapshot(cur[:n], sch)
		if err != nil || gen != prevGen || !bytes.Equal(encodeSnapshot(at, gen), prevState) {
			t.Fatalf("a read of the first %d of %d bytes decodes to generation %d (err %v), want the previous index's state at %d", n, len(cur), gen, err, prevGen)
		}
		if live, gen, err := liveSnapshot(cur[:n]); err != nil || gen != prevGen || !bytes.Equal(live, prev) {
			t.Fatalf("liveSnapshot of the first %d of %d bytes: %d bytes at generation %d, %v; want the %d of generation %d", n, len(cur), len(live), gen, err, len(prev), prevGen)
		}
	}

	var mu sync.Mutex
	states := map[uint64][]byte{d.Gen(): encodeSnapshot(db, d.Gen())}
	var stop atomic.Bool
	defer stop.Store(true) // a failing worker below must not leave the reader running
	done := make(chan error, 1)
	go func() {
		for {
			data, gen, ok, err := d.ReadSnapshot()
			if err != nil || !ok {
				done <- fmt.Errorf("ReadSnapshot: ok %v, err %v", ok, err)
				return
			}
			mu.Lock()
			want := states[gen]
			mu.Unlock()
			if !bytes.Equal(data, want) {
				done <- fmt.Errorf("a racing read of generation %d returned %d bytes, not the %d the worker's state at it encodes to", gen, len(data), len(want))
				return
			}
			if stop.Load() {
				done <- nil
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if err := db.UpdateRows("audit", []string{"ok"}, []storage.TupleID{hot}, []storage.Value{storage.BoolV(i%2 == 0)}); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			db.MustInsert("acct", storage.StringV("more"), storage.IntV(int64(i)))
		}
		engineCommit(t, d)
		mu.Lock()
		states[d.Gen()+1] = encodeSnapshot(db, d.Gen()+1)
		mu.Unlock()
		if err := d.Checkpoint(db); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	if err := <-done; err != nil {
		t.Error(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotTornTail: bytes past the last index are a torn append
// while no log of a later generation exists — Open recovers the index's
// generation, and its first checkpoint writes the file whole over them —
// and damage once one does, since that log is created only after the
// later index is synced: ErrUnrecoverable, reported before Open's
// clean-up of stale logs could delete the evidence.
func TestSnapshotTornTail(t *testing.T) {
	sch := testSchema(t)
	fsys := NewMemFS()
	d, db := session(t, fsys, "w")
	for i := 0; i < 20; i++ {
		db.MustInsert("acct", storage.StringV(fmt.Sprintf("row-%d", i)), storage.IntV(int64(i)))
	}
	hot := db.MustInsert("audit", storage.StringV("hot"), storage.BoolV(false))
	engineCommit(t, d)
	if err := d.Checkpoint(db); err != nil {
		t.Fatal(err)
	}
	if err := db.UpdateRows("audit", []string{"ok"}, []storage.TupleID{hot}, []storage.Value{storage.BoolV(true)}); err != nil {
		t.Fatal(err)
	}
	engineCommit(t, d)
	prev, log2 := mustRead(t, fsys, "w/snapshot.db"), mustRead(t, fsys, LogPath("w", 2))
	if err := d.Checkpoint(db); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	cur, log3 := mustRead(t, fsys, "w/snapshot.db"), mustRead(t, fsys, LogPath("w", 3))
	if !bytes.HasPrefix(cur, prev) {
		t.Fatal("the second checkpoint did not append; the case is vacuous")
	}
	dir := func(snap []byte, logs map[uint64][]byte) *MemFS {
		m := NewMemFS()
		rewrite(t, m, "w/snapshot.db", snap)
		for gen, data := range logs {
			rewrite(t, m, LogPath("w", gen), data)
		}
		return m
	}
	for n := len(prev) + 1; n < len(cur); n++ {
		m := dir(cur[:n], map[uint64][]byte{2: log2})
		d, rdb := session(t, m, "w")
		if d.Info().Gen != 2 || !rdb.Equal(db) {
			t.Fatalf("a torn append of %d bytes: recovered generation %d, the writer's state: %v", n-len(prev), d.Info().Gen, rdb.Equal(db))
		}
		if err := d.Checkpoint(rdb); err != nil {
			t.Fatal(err)
		}
		if got := mustRead(t, m, "w/snapshot.db"); !bytes.Equal(got, encodeSnapshot(db, 3)) {
			t.Fatalf("a torn append of %d bytes: the first checkpoint after Open left %d bytes, not the file written whole", n-len(prev), len(got))
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if rec, info, err := Recover("w", sch, m); err != nil || info.Gen != 3 || !rec.Equal(db) {
			t.Fatalf("a torn append of %d bytes: after a checkpoint, recovered generation %d (err %v)", n-len(prev), info.Gen, err)
		}

		m = dir(cur[:n], map[uint64][]byte{2: log2, 3: log3})
		if _, err := Open("w", sch, Options{FS: m}); !errors.Is(err, ErrUnrecoverable) {
			t.Fatalf("the same bytes beside generation 3's log: Open returned %v, want ErrUnrecoverable", err)
		}
		if names, _ := m.ReadDir("w"); len(names) != 3 {
			t.Fatalf("the refused Open left %v, want the snapshot and both logs", names)
		}
	}
}
