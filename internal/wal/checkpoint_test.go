package wal

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"activerules/internal/storage"
)

// encodeSnapshot is the snapshot format written from scratch into one
// buffer, the product's encoder until checkpoints memoized their
// sections: the oracle every snapshot file is held to, byte for byte.
func encodeSnapshot(db *storage.DB, gen uint64) []byte {
	b := append([]byte(nil), snapMagic...)
	b = binary.AppendUvarint(b, gen)
	b = binary.AppendUvarint(b, uint64(db.NextID()))
	names := append([]string(nil), db.Schema().TableNames()...)
	sort.Strings(names)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		t := db.Table(name)
		b = appendString(b, name)
		b = binary.AppendUvarint(b, uint64(t.Len()))
		t.Scan(func(tu *storage.Tuple) bool {
			b = binary.AppendUvarint(b, uint64(tu.ID))
			b = binary.AppendUvarint(b, uint64(len(tu.Vals)))
			for _, v := range tu.Vals {
				b = appendValue(b, v)
			}
			return true
		})
	}
	sum := sha256.Sum256(b)
	return append(b, sum[:]...)
}

// checkpointIs checkpoints db through d and holds the installed file to
// the oracle's encoding of db at the new generation.
func checkpointIs(t *testing.T, d *DurableDB, fsys FS, db *storage.DB, label string) {
	t.Helper()
	if err := d.Checkpoint(db); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	got, want := mustRead(t, fsys, SnapshotPath(d.dir)), encodeSnapshot(db, d.Gen())
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: snapshot.db is not the from-scratch encoding of the state (%d bytes, want %d)", label, len(got), len(want))
	}
}

// TestCheckpointMemoDifferential is the memo's oracle at the durable
// boundary. A checkpoint's marker is read from the tables' memoized
// digests, so a digest left stale by some mutation would now also be a
// log recovery refuses. Seeded histories over storage's public mutators
// — inserts, deletes, updates, InsertWithID reviving a tombstoned
// identity, nested savepoints rolled back and released — run with the
// log attached and storage.FingerprintOracle read at random intervals
// (so digests go stale under one mutation and under many), and
// checkpoint at random committed points. Each checkpoint's marker must
// be the Fingerprint of its snapshot file decoded from scratch, a
// database with no memo to inherit, and recovery must land on the
// writer's state.
//
// It is the oracle of the checkpoint's own memo too: a section is reused
// while its table's Version stands, so every installed snapshot.db must
// be encodeSnapshot's bytes — the marker and the recovered Fingerprint
// are content only and cannot see a stale identity or order. Each
// history ends on the three shapes a memo keyed on less than (table
// pointer, Version) gets wrong or a careless one re-encodes for nothing:
// a tombstone compaction between two checkpoints, a second DurableDB
// over the same directory, and a forked database handed to Checkpoint.
func TestCheckpointMemoDifferential(t *testing.T) {
	sch := testSchema(t)
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fsys := NewMemFS()
		d, db := session(t, fsys, "w")
		var oracle storage.FingerprintOracle
		var sps []storage.Savepoint
		var dead []storage.TupleID // acct identities deleted under the open savepoints
		checkpoints := 0
		for n := 0; n < 400; n++ {
			acct := db.Table("acct")
			live := acct.IDs()
			row := []storage.Value{storage.StringV(string(rune('a' + rng.Intn(3)))), storage.IntV(int64(rng.Intn(4)))}
			switch k := rng.Intn(12); {
			case k < 3:
				db.MustInsert("acct", row...)
			case k == 3:
				db.MustInsert("audit", storage.StringV("x"), storage.BoolV(rng.Intn(2) == 0))
			case k < 6 && len(live) > 0:
				if _, err := db.Update("acct", live[rng.Intn(len(live))], "balance", row[1]); err != nil {
					t.Fatal(err)
				}
			case k == 6 && len(live) > 0:
				id := live[rng.Intn(len(live))]
				db.Delete("acct", id)
				if len(sps) > 0 {
					dead = append(dead, id)
				}
			case k == 7 && len(dead) > 0: // the replay shape: a deleted identity comes back in place
				if id := dead[rng.Intn(len(dead))]; acct.Get(id) == nil {
					if err := db.InsertWithID("acct", id, row); err != nil {
						t.Fatal(err)
					}
				}
			case k == 8 && len(sps) < 3:
				sps = append(sps, db.Savepoint())
			case k == 9 && len(sps) > 0:
				db.RollbackTo(sps[len(sps)-1])
				sps = sps[:len(sps)-1]
			case k == 10 && len(sps) > 0:
				db.Release(sps[len(sps)-1])
				sps = sps[:len(sps)-1]
			}
			if rng.Intn(3) == 0 {
				if err := oracle.Check(db); err != nil {
					t.Fatalf("seed %d, step %d: %v", seed, n, err)
				}
			}
			if len(sps) > 0 {
				continue
			}
			dead = dead[:0]
			engineCommit(t, d)
			if rng.Intn(8) > 0 {
				continue
			}
			checkpointIs(t, d, fsys, db, fmt.Sprintf("seed %d, step %d", seed, n))
			checkpoints++
			fresh, gen, err := decodeSnapshot(mustRead(t, fsys, "w/snapshot.db"), sch)
			if err != nil || gen != d.Gen() {
				t.Fatalf("seed %d, step %d: snapshot gen %d, err %v", seed, n, gen, err)
			}
			if got := marker(t, fsys, "w", gen).FP; got != fresh.Fingerprint() {
				t.Fatalf("seed %d, step %d: marker %x is not the from-scratch Fingerprint of the snapshot beside it", seed, n, got[:4])
			}
			if rec, _, err := Recover("w", sch, fsys); err != nil || !rec.Equal(db) {
				t.Fatalf("seed %d, step %d: recovery after the checkpoint: err %v", seed, n, err)
			}
		}
		if checkpoints < 5 {
			t.Errorf("seed %d: %d checkpoints; the history is too thin to mean anything", seed, checkpoints)
		}
		label := func(what string) string { return fmt.Sprintf("seed %d, %s", seed, what) }

		for ; len(sps) > 0; sps = sps[:len(sps)-1] {
			db.Release(sps[len(sps)-1])
		}

		// Compaction drops order slots and leaves Version alone: under a
		// savepoint delete all but 6 of the rows, 32 of them new (6 live
		// in over 24 slots is past compact's threshold), checkpoint over
		// the tombstones, release (which compacts), checkpoint again. The
		// second reuses the first's section and must still be the bytes.
		acct := db.Table("acct")
		for i := 0; i < 32; i++ {
			db.MustInsert("acct", storage.StringV("bulk"), storage.IntV(int64(i)))
		}
		sp := db.Savepoint()
		for _, id := range acct.IDs()[:acct.Len()-6] {
			db.Delete("acct", id)
		}
		engineCommit(t, d)
		checkpointIs(t, d, fsys, db, label("over tombstones"))
		ver, enc := acct.Version(), &d.snap.sections[0]
		db.Release(sp)
		if got := len(acct.IDs()); got != 6 || acct.Version() != ver {
			t.Fatalf("seed %d: compaction left %d rows at version %d, want 6 at %d", seed, got, acct.Version(), ver)
		}
		was := &enc.buf[0]
		checkpointIs(t, d, fsys, db, label("after compaction"))
		if enc.t != acct || enc.ver != ver || &enc.buf[0] != was {
			t.Errorf("seed %d: compaction cost the acct section a re-encode", seed)
		}

		// A forked database is other tables at the same Versions. Move the
		// parent and the fork one step each, apart: a memo keyed on Version
		// alone would hand the fork's checkpoint the parent's section.
		fork := db.Fork()
		db.MustInsert("acct", storage.StringV("parent"), storage.IntV(1))
		engineCommit(t, d)
		checkpointIs(t, d, fsys, db, label("parent of a fork"))
		fork.MustInsert("acct", storage.StringV("fork"), storage.IntV(2))
		if fork.Table("acct").Version() != acct.Version() {
			t.Fatalf("seed %d: the fork's table is not at its parent's Version; the case is vacuous", seed)
		}
		checkpointIs(t, d, fsys, fork, label("fork"))
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}

		// A second DurableDB over the directory (what serve's reopen does)
		// recovers the fork's rows into tables of its own and starts with
		// no sections at all.
		d2, db2 := session(t, fsys, "w")
		if len(d2.snap.sections) != 0 || !db2.Equal(fork) {
			t.Fatalf("seed %d: reopened with %d memoized sections, equal to the last snapshot: %v", seed, len(d2.snap.sections), db2.Equal(fork))
		}
		db2.MustInsert("audit", storage.StringV("reopened"), storage.BoolV(true))
		engineCommit(t, d2)
		checkpointIs(t, d2, fsys, db2, label("reopened"))
		checkpointIs(t, d2, fsys, db2, label("reopened, nothing changed"))
		if err := d2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointSectionCarriesNewIdentity is the trap a memo keyed on the
// table's content digest falls into. Delete a row and insert an equal
// one: the multiset, and so the digest and Fingerprint, are what they
// were, but the row has a new identity, and the log that follows names
// it. A checkpoint that reused the old section would write a snapshot no
// later delete of that row replays over.
func TestCheckpointSectionCarriesNewIdentity(t *testing.T) {
	fsys := NewMemFS()
	d, db := session(t, fsys, "w")
	old := db.MustInsert("acct", storage.StringV("ann"), storage.IntV(10))
	db.MustInsert("acct", storage.StringV("bob"), storage.IntV(20))
	engineCommit(t, d)
	checkpointIs(t, d, fsys, db, "first")
	was := db.Fingerprint()

	db.Delete("acct", old)
	id := db.MustInsert("acct", storage.StringV("ann"), storage.IntV(10))
	if db.Fingerprint() != was {
		t.Fatal("delete + equal insert changed the Fingerprint; the case is vacuous")
	}
	engineCommit(t, d)
	if err := d.Checkpoint(db); err != nil {
		t.Fatal(err)
	}
	snap := mustRead(t, fsys, "w/snapshot.db")
	if !bytes.Equal(snap, encodeSnapshot(db, d.Gen())) {
		t.Error("after delete + equal insert: snapshot.db is not the from-scratch encoding of the state")
	}
	at, _, err := decodeSnapshot(snap, testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if acct := at.Table("acct"); acct.Get(id) == nil || acct.Get(old) != nil {
		t.Errorf("the snapshot's acct rows are %v, want the new identity %d and not %d", acct.IDs(), id, old)
	}

	db.Delete("acct", id)
	engineCommit(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec, _, err := Recover("w", testSchema(t), fsys)
	if err != nil {
		t.Fatalf("replaying a delete of the new identity over the snapshot: %v", err)
	}
	if !rec.Equal(db) || rec.Table("acct").Len() != 1 {
		t.Errorf("recovered\n%swant the writer's\n%s", rec, db)
	}
}

// failingFS fails the write-th Write from now on that reaches a file
// (0: none), once.
type failingFS struct {
	FS
	write int
}

type failingFile struct {
	File
	fs *failingFS
}

var errInjected = errors.New("injected write failure")

func (f *failingFS) Create(name string) (File, error) {
	file, err := f.FS.Create(name)
	return failingFile{file, f}, err
}

func (f failingFile) Write(p []byte) (int, error) {
	if f.fs.write--; f.fs.write == 0 {
		return 0, errInjected
	}
	return f.File.Write(p)
}

// TestFailedCheckpointLeavesNoSection: the snapshot's temp file now takes
// a write per part, and any of them can fail. Whichever does, the log is
// poisoned, the previous generation is what recovery finds, and the
// DurableDB opened next (serve's reopen) owes nothing to the failed one's
// sections: the memo lives and dies with the DurableDB.
func TestFailedCheckpointLeavesNoSection(t *testing.T) {
	for write := 1; write <= 2+testSchema(t).NumTables(); write++ {
		mem := NewMemFS()
		fsys := &failingFS{FS: mem}
		d, db := session(t, fsys, "w")
		id := db.MustInsert("acct", storage.StringV("ann"), storage.IntV(10))
		db.MustInsert("audit", storage.StringV("opened"), storage.BoolV(true))
		engineCommit(t, d)
		checkpointIs(t, d, fsys, db, "before the failure")
		prev := mustRead(t, mem, "w/snapshot.db")
		if _, err := db.Update("acct", id, "balance", storage.IntV(11)); err != nil {
			t.Fatal(err)
		}
		engineCommit(t, d)

		fsys.write = write
		if err := d.Checkpoint(db); !errors.Is(err, errInjected) {
			t.Fatalf("write %d: Checkpoint returned %v, want the injected failure", write, err)
		}
		if err := d.Commit(); !errors.Is(err, errInjected) {
			t.Errorf("write %d: a commit after the failed checkpoint returned %v, want the log poisoned", write, err)
		}
		d.Close()
		if got := mustRead(t, mem, "w/snapshot.db"); !bytes.Equal(got, prev) {
			t.Errorf("write %d: a failure before the rename changed snapshot.db", write)
		}

		d2, db2 := session(t, mem, "w")
		if info := d2.Info(); info.Gen != 2 || !db2.Equal(db) {
			t.Errorf("write %d: reopened at generation %d, equal to the writer's committed state: %v", write, info.Gen, db2.Equal(db))
		}
		if len(d2.snap.sections) != 0 {
			t.Errorf("write %d: the reopened DurableDB starts with %d sections", write, len(d2.snap.sections))
		}
		if names, _ := mem.ReadDir("w"); len(names) != 2 {
			t.Errorf("write %d: reopen left %v, want the snapshot and one log", write, names)
		}
		db2.Delete("acct", id)
		engineCommit(t, d2)
		checkpointIs(t, d2, mem, db2, "after the reopen")
		if err := d2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// loaded opens a log on a MemFS over rows archive rows (acct) beside one
// hot row (audit), commits them and reads the state's Fingerprint, as a
// server does per request: no checkpoint has been taken, and the first
// will not be charged the digest's scratch.
func loaded(tb testing.TB, rows int) (d *DurableDB, db *storage.DB, fsys *MemFS, hot storage.TupleID) {
	tb.Helper()
	fsys = NewMemFS()
	d, err := Open("w", testSchema(tb), Options{FS: fsys, Sync: SyncCommit})
	if err != nil {
		tb.Fatal(err)
	}
	db = d.State()
	db.SetObserver(d)
	for i := 0; i < rows; i++ {
		db.MustInsert("acct", storage.StringV(fmt.Sprintf("archived-row-%08d", i)), storage.IntV(int64(i)))
	}
	hot = db.MustInsert("audit", storage.StringV("hot"), storage.BoolV(false))
	if err := d.Commit(); err != nil {
		tb.Fatal(err)
	}
	db.Fingerprint()
	return d, db, fsys, hot
}

// checkpointed is loaded plus one checkpoint, so the next one finds
// every digest and every snapshot section memoized.
func checkpointed(tb testing.TB, rows int) (d *DurableDB, db *storage.DB, fsys *MemFS, hot storage.TupleID) {
	tb.Helper()
	d, db, fsys, hot = loaded(tb, rows)
	if err := d.Checkpoint(db); err != nil {
		tb.Fatal(err)
	}
	return d, db, fsys, hot
}

// touchAll updates one row of each table, to a value of the same width,
// and commits: the checkpoint that follows re-encodes every section.
func touchAll(tb testing.TB, d *DurableDB, db *storage.DB, hot storage.TupleID, i int) {
	tb.Helper()
	var first storage.TupleID
	db.Table("acct").Scan(func(tu *storage.Tuple) bool { first = tu.ID; return false })
	if _, err := db.Update("acct", first, "balance", storage.IntV(int64(i%2))); err != nil {
		tb.Fatal(err)
	}
	if _, err := db.Update("audit", hot, "ok", storage.BoolV(i%2 == 0)); err != nil {
		tb.Fatal(err)
	}
	if err := d.Commit(); err != nil {
		tb.Fatal(err)
	}
}

// raceEnabled is set by race_test.go, which only a -race build compiles.
var raceEnabled bool

// allocated returns the bytes op allocates, averaged over runs.
func allocated(runs int, op func()) int {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return int(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestCheckpointAllocsFlatInRows is the checkpoint's cost model as a
// tripwire. Over rows no request touched since the last one it encodes
// nothing: a small constant number of allocations whatever the row
// count, and little more memory than the file system's own copy of the
// snapshot it writes (the one-buffer encoder this replaced: 2.17x). The
// first checkpoint of a directory has no section to reuse and sizes each
// by measuring, where the one buffer, with no previous length to size
// from, grew by append to 6.3x the snapshot. And with every table
// changed each section is rewritten in its own buffer, where the one
// buffer cost any checkpoint its 2.17x. Under -race only the
// allocation count is left unchecked: the detector adds allocations of
// its own, and not the same number every run.
func TestCheckpointAllocsFlatInRows(t *testing.T) {
	for _, rows := range []int{1000, 10000} {
		d, db, fsys, hot := loaded(t, rows)
		checkpoint := func() {
			if err := d.Checkpoint(db); err != nil {
				t.Fatal(err)
			}
		}
		first := allocated(1, checkpoint)
		snap := len(mustRead(t, fsys, "w/snapshot.db"))
		if 2*first > 5*snap {
			t.Errorf("%d rows: the first checkpoint allocated %d bytes for a %d-byte snapshot, want at most 2.5x", rows, first, snap)
		}
		if allocs := testing.AllocsPerRun(5, checkpoint); allocs > 32 && !raceEnabled {
			t.Errorf("%d rows: %v allocations per checkpoint over clean rows, want at most 32", rows, allocs)
		}
		if per := allocated(5, checkpoint); 4*per > 5*snap {
			t.Errorf("%d rows: %d bytes allocated per checkpoint of a %d-byte snapshot over clean rows, want at most 1.25x", rows, per, snap)
		}
		n := 0
		dirty := allocated(5, func() { n++; touchAll(t, d, db, hot, n); checkpoint() })
		if 4*dirty > 5*snap {
			t.Errorf("%d rows: %d bytes allocated per checkpoint of a %d-byte snapshot with every table changed, want at most 1.25x", rows, dirty, snap)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkCheckpoint is a checkpoint beside 1k/10k/100k archive rows:
// after one hot-row update, the archive untouched since the last one;
// dirty=all, after an update to each table; first, a directory's first,
// with nothing memoized.
func BenchmarkCheckpoint(b *testing.B) {
	for _, rows := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			d, db, _, hot := checkpointed(b, rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Update("audit", hot, "ok", storage.BoolV(i%2 == 0)); err != nil {
					b.Fatal(err)
				}
				if err := d.Commit(); err != nil {
					b.Fatal(err)
				}
				if err := d.Checkpoint(db); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := d.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
	b.Run("dirty=all/rows=10000", func(b *testing.B) {
		d, db, _, hot := checkpointed(b, 10000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			touchAll(b, d, db, hot, i)
			if err := d.Checkpoint(db); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("first/rows=10000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d, db, _, _ := loaded(b, 10000)
			b.StartTimer()
			if err := d.Checkpoint(db); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := d.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
