package wal

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"activerules/internal/storage"
)

// encodeSnapshot is a snapshot file written whole, from scratch, into
// one buffer: magic, a section frame per table in sorted name order, an
// index. Every whole rewrite is held to it byte for byte, and any file
// is held to the writer's state by re-encoding what it decodes to: the
// bytes carry every row's identity and values, iteration order, nextID
// and the generation.
func encodeSnapshot(db *storage.DB, gen uint64) []byte {
	b := append([]byte(nil), snapMagic...)
	frame := func(kind byte, p []byte) {
		f := append(binary.LittleEndian.AppendUint32(nil, uint32(len(p))), kind)
		f = append(f, p...)
		sum := sha256.Sum256(f)
		b = append(append(b, f...), sum[:]...)
	}
	names := append([]string(nil), db.Schema().TableNames()...)
	sort.Strings(names)
	index := binary.LittleEndian.AppendUint64(nil, gen)
	index = binary.LittleEndian.AppendUint64(index, uint64(db.NextID()))
	for _, name := range names {
		index = binary.LittleEndian.AppendUint64(index, uint64(len(b)))
		frame(frameSection, sectionPayload(db, name))
	}
	frame(frameIndex, index)
	return b
}

// sectionPayload is table name's rows as both versions of the format
// hold them: name, row count, then each row's identity, column count
// and values in iteration order.
func sectionPayload(db *storage.DB, name string) []byte {
	t := db.Table(name)
	b := appendString(nil, name)
	b = binary.AppendUvarint(b, uint64(t.Len()))
	t.Scan(func(tu *storage.Tuple) bool {
		b = binary.AppendUvarint(b, uint64(tu.ID))
		b = binary.AppendUvarint(b, uint64(len(tu.Vals)))
		for _, v := range tu.Vals {
			b = appendValue(b, v)
		}
		return true
	})
	return b
}

// encodeSnapshotV1 is the version 1 file every checkpoint wrote before
// the file became frames: a header, the sections, a SHA-256 trailer.
func encodeSnapshotV1(db *storage.DB, gen uint64) []byte {
	b := append([]byte(nil), snapMagicV1...)
	b = binary.AppendUvarint(b, gen)
	b = binary.AppendUvarint(b, uint64(db.NextID()))
	names := append([]string(nil), db.Schema().TableNames()...)
	sort.Strings(names)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		b = append(b, sectionPayload(db, name)...)
	}
	sum := sha256.Sum256(b)
	return append(b, sum[:]...)
}

// appendedSections returns the table names of the section frames in
// b, bytes a checkpoint appended, which must be whole frames ending in
// their one index.
func appendedSections(t *testing.T, b []byte, label string) []string {
	t.Helper()
	var names []string
	for len(b) > 0 {
		kind, p, n, ok := frameAt(b)
		switch {
		case !ok:
			t.Fatalf("%s: the appended bytes are not whole frames", label)
		case kind == frameSection:
			d := decoder{b: p}
			names = append(names, d.str())
		case n != len(b):
			t.Fatalf("%s: an index %d bytes before the end of the append", label, len(b)-n)
		}
		b = b[n:]
	}
	return names
}

// snapWatch follows the checkpoints of one directory: the snapshot.db
// the last one left, and the tables it wrote from at their Versions.
type snapWatch struct {
	fsys FS
	dir  string
	file []byte
	keys map[*storage.Table]uint64
}

// saw records db's tables at their Versions: the snapshot file holds
// them as they are now.
func (w *snapWatch) saw(db *storage.DB) {
	w.keys = map[*storage.Table]uint64{}
	for _, name := range db.Schema().TableNames() {
		w.keys[db.Table(name)] = db.Table(name).Version()
	}
}

// checkpoint checkpoints db through d and holds the snapshot.db it
// leaves to the writer's state. A whole file must be encodeSnapshot's
// bytes. An appended one must be the file before, then a section for
// exactly the tables whose (pointer, Version) moved since, in name
// order, then an index. Either must decode, with no tail, to db's rows,
// identities, iteration order and nextID at d's new generation. It
// reports whether the checkpoint appended.
func (w *snapWatch) checkpoint(t *testing.T, d *DurableDB, db *storage.DB, label string) (appended bool) {
	t.Helper()
	if err := d.Checkpoint(db); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	got, gen := mustRead(t, w.fsys, SnapshotPath(w.dir)), d.Gen()
	want := encodeSnapshot(db, gen)
	if appended = len(w.file) > 0 && bytes.HasPrefix(got, w.file); appended {
		var moved []string
		names := append([]string(nil), db.Schema().TableNames()...)
		sort.Strings(names)
		for _, name := range names {
			if v, ok := w.keys[db.Table(name)]; !ok || v != db.Table(name).Version() {
				moved = append(moved, name)
			}
		}
		if names := appendedSections(t, got[len(w.file):], label); !slices.Equal(names, moved) {
			t.Fatalf("%s: the checkpoint appended sections %v, want those of the tables that moved, %v", label, names, moved)
		}
	} else if !bytes.Equal(got, want) {
		t.Fatalf("%s: snapshot.db, written whole, is not the from-scratch encoding of the state (%d bytes, want %d)", label, len(got), len(want))
	}
	at, fgen, tail, err := decodeSnapshot(got, db.Schema())
	if err != nil || fgen != gen || tail != 0 || !bytes.Equal(encodeSnapshot(at, gen), want) {
		t.Fatalf("%s: snapshot.db decodes to another state (gen %d, want %d; tail %d; err %v)", label, fgen, gen, tail, err)
	}
	w.file = got
	w.saw(db)
	return appended
}

// TestCheckpointMemoDifferential is the memo's oracle at the durable
// boundary. A checkpoint's marker is read from the tables' memoized
// digests, so a digest left stale by some mutation would now also be a
// log recovery refuses. Seeded histories over storage's public mutators
// — inserts, deletes, updates, a restore (Apply) reviving a tombstoned
// identity, nested savepoints rolled back and released — run with the
// log attached and storage.FingerprintOracle read at random intervals
// (so digests go stale under one mutation and under many), and
// checkpoint at random committed points. Each checkpoint's marker must
// be the Fingerprint of its snapshot file decoded from scratch, a
// database with no memo to inherit, and recovery must land on the
// writer's state.
//
// It is the oracle of the checkpoint's own memo too: a section is kept
// while its table's (pointer, Version) stands, so every installed
// snapshot.db must decode to the writer's state, every whole rewrite
// must be encodeSnapshot's bytes, and every append must hold exactly
// the sections of the tables that moved (snapWatch) — the marker and
// the recovered Fingerprint are content only and cannot see a stale
// identity or order. Each history ends on the shapes a memo keyed on
// less than (table pointer, Version) gets wrong or a careless one
// writes again for nothing: a tombstone compaction between two
// checkpoints, a forked database handed to Checkpoint, and a second
// DurableDB over the same directory, whose encoder does not know the
// file.
func TestCheckpointMemoDifferential(t *testing.T) {
	sch := testSchema(t)
	appends, compactAppends := 0, 0
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fsys := NewMemFS()
		d, db := session(t, fsys, "w")
		w := &snapWatch{fsys: fsys, dir: "w"}
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
				if err := db.UpdateRows("acct", []string{"balance"}, []storage.TupleID{live[rng.Intn(len(live))]}, []storage.Value{row[1]}); err != nil {
					t.Fatal(err)
				}
			case k == 6 && len(live) > 0:
				id := live[rng.Intn(len(live))]
				db.DeleteRows("acct", []storage.TupleID{id})
				if len(sps) > 0 {
					dead = append(dead, id)
				}
			case k == 7 && len(dead) > 0: // the replay shape: a deleted identity comes back in place
				if id := dead[rng.Intn(len(dead))]; acct.Get(id) == nil {
					if err := Apply(db, Record{Kind: RecInsert, Table: "acct", Rows: []Row{{ID: id, Vals: row}}}); err != nil {
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
			if w.checkpoint(t, d, db, fmt.Sprintf("seed %d, step %d", seed, n)) {
				appends++
			}
			checkpoints++
			fresh, gen, _, err := decodeSnapshot(mustRead(t, fsys, "w/snapshot.db"), sch)
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

		// Compaction drops slots and leaves Version alone: under a
		// savepoint delete all but 6 of the rows, 32 of them new (6 live
		// in over 24 slots is past compact's threshold), checkpoint over
		// the tombstones, release (which compacts), checkpoint again. An
		// append after the compaction holds no acct section.
		acct := db.Table("acct")
		for i := 0; i < 32; i++ {
			db.MustInsert("acct", storage.StringV("bulk"), storage.IntV(int64(i)))
		}
		sp := db.Savepoint()
		for _, id := range acct.IDs()[:acct.Len()-6] {
			db.DeleteRows("acct", []storage.TupleID{id})
		}
		engineCommit(t, d)
		w.checkpoint(t, d, db, label("over tombstones"))
		ver := acct.Version()
		db.Release(sp)
		if got := len(acct.IDs()); got != 6 || acct.Version() != ver {
			t.Fatalf("seed %d: compaction left %d rows at version %d, want 6 at %d", seed, got, acct.Version(), ver)
		}
		if w.checkpoint(t, d, db, label("after compaction")) {
			compactAppends++
		}

		// A forked database is other tables at the same Versions. Move the
		// parent and the fork one step each, apart: a memo keyed on Version
		// alone would hand the fork's checkpoint the parent's section.
		fork := db.Fork()
		db.MustInsert("acct", storage.StringV("parent"), storage.IntV(1))
		engineCommit(t, d)
		w.checkpoint(t, d, db, label("parent of a fork"))
		fork.MustInsert("acct", storage.StringV("fork"), storage.IntV(2))
		if fork.Table("acct").Version() != acct.Version() {
			t.Fatalf("seed %d: the fork's table is not at its parent's Version; the case is vacuous", seed)
		}
		w.checkpoint(t, d, fork, label("fork"))
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}

		// A second DurableDB over the directory (what serve's reopen does)
		// recovers the fork's rows into tables of its own. Its encoder
		// does not know the file, so its first checkpoint writes it whole;
		// from there it appends what changes.
		d2, db2 := session(t, fsys, "w")
		if !db2.Equal(fork) {
			t.Fatalf("seed %d: reopened to another state than the last snapshot's", seed)
		}
		db2.MustInsert("audit", storage.StringV("reopened"), storage.BoolV(true))
		engineCommit(t, d2)
		if w.checkpoint(t, d2, db2, label("reopened")) {
			t.Fatalf("seed %d: the reopened DurableDB's first checkpoint appended to a file it does not know", seed)
		}
		w.checkpoint(t, d2, db2, label("reopened, nothing changed"))
		if err := d2.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Both paths must have been taken, and the compaction case must not
	// be vacuous: most of its checkpoints append.
	if appends < 30 || compactAppends < 15 {
		t.Errorf("%d checkpoints appended, %d of 30 after a compaction; the append path is not being exercised", appends, compactAppends)
	}
}

// TestCheckpointSectionCarriesNewIdentity is the trap a memo keyed on the
// table's content digest falls into. Delete a row and insert an equal
// one: the multiset, and so the digest and Fingerprint, are what they
// were, but the row has a new identity, and the log that follows names
// it. A checkpoint that kept the old section would leave a snapshot no
// later delete of that row replays over.
func TestCheckpointSectionCarriesNewIdentity(t *testing.T) {
	fsys := NewMemFS()
	d, db := session(t, fsys, "w")
	w := &snapWatch{fsys: fsys, dir: "w"}
	old := db.MustInsert("acct", storage.StringV("ann"), storage.IntV(10))
	db.MustInsert("acct", storage.StringV("bob"), storage.IntV(20))
	engineCommit(t, d)
	w.checkpoint(t, d, db, "first")
	was := db.Fingerprint()

	db.DeleteRows("acct", []storage.TupleID{old})
	id := db.MustInsert("acct", storage.StringV("ann"), storage.IntV(10))
	if db.Fingerprint() != was {
		t.Fatal("delete + equal insert changed the Fingerprint; the case is vacuous")
	}
	engineCommit(t, d)
	w.checkpoint(t, d, db, "after delete + equal insert")
	at, _, _, err := decodeSnapshot(mustRead(t, fsys, "w/snapshot.db"), testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if acct := at.Table("acct"); acct.Get(id) == nil || acct.Get(old) != nil {
		t.Errorf("the snapshot's acct rows are %v, want the new identity %d and not %d", acct.IDs(), id, old)
	}

	db.DeleteRows("acct", []storage.TupleID{id})
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

func (f *failingFS) OpenAppend(name string) (File, error) {
	file, err := f.FS.OpenAppend(name)
	return failingFile{file, f}, err
}

func (f failingFile) Write(p []byte) (int, error) {
	if f.fs.write--; f.fs.write == 0 {
		return 0, errInjected
	}
	return f.File.Write(p)
}

// TestFailedCheckpointLeavesNoSection fails each write a checkpoint
// makes to its snapshot: the frames appended to snapshot.db (an updated
// acct section, then the index), and, on a directory's first
// checkpoint, snapshot.tmp's magic, sections and index. Whichever fails,
// the log is poisoned and recovery finds the previous generation, past
// whatever frames the failed append left behind its index. The
// DurableDB opened next (serve's reopen) does not know the file: its
// first checkpoint writes it whole, over those frames.
func TestFailedCheckpointLeavesNoSection(t *testing.T) {
	tables := testSchema(t).NumTables()
	for _, tc := range []struct {
		name   string
		writes int
		first  bool
	}{{"append", 2, false}, {"whole", 2 + tables, true}} {
		for write := 1; write <= tc.writes; write++ {
			label := fmt.Sprintf("%s, write %d", tc.name, write)
			mem := NewMemFS()
			fsys := &failingFS{FS: mem}
			d, db := session(t, fsys, "w")
			w := &snapWatch{fsys: mem, dir: "w"}
			id := db.MustInsert("acct", storage.StringV("ann"), storage.IntV(10))
			db.MustInsert("audit", storage.StringV("opened"), storage.BoolV(true))
			engineCommit(t, d)
			gen := uint64(1)
			if !tc.first {
				w.checkpoint(t, d, db, label+": before the failure")
				gen = 2
			}
			if err := db.UpdateRows("acct", []string{"balance"}, []storage.TupleID{id}, []storage.Value{storage.IntV(11)}); err != nil {
				t.Fatal(err)
			}
			engineCommit(t, d)

			fsys.write = write
			if err := d.Checkpoint(db); !errors.Is(err, errInjected) {
				t.Fatalf("%s: Checkpoint returned %v, want the injected failure", label, err)
			}
			if err := d.Commit(); !errors.Is(err, errInjected) {
				t.Errorf("%s: a commit after the failed checkpoint returned %v, want the log poisoned", label, err)
			}
			d.Close()

			d2, db2 := session(t, mem, "w")
			if info := d2.Info(); info.Gen != gen || !db2.Equal(db) {
				t.Errorf("%s: reopened at generation %d, equal to the writer's committed state: %v", label, info.Gen, db2.Equal(db))
			}
			if snap, err := mem.ReadFile("w/snapshot.db"); tc.first != IsNotExist(err) || !bytes.HasPrefix(snap, w.file) {
				t.Errorf("%s: after the reopen snapshot.db is %d bytes (err %v), want the previous checkpoint's %d and any failed append", label, len(snap), err, len(w.file))
			}
			if names, _ := mem.ReadDir("w"); len(names) != int(gen) {
				t.Errorf("%s: reopen left %v, want the generation's log and any snapshot", label, names)
			}
			w.saw(db2)
			db2.DeleteRows("acct", []storage.TupleID{id})
			engineCommit(t, d2)
			if w.checkpoint(t, d2, db2, label+": after the reopen") {
				t.Errorf("%s: the first checkpoint after the reopen appended to a file its encoder does not know", label)
			}
			if err := d2.Close(); err != nil {
				t.Fatal(err)
			}
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
	if err := db.UpdateRows("acct", []string{"balance"}, []storage.TupleID{first}, []storage.Value{storage.IntV(int64(i % 2))}); err != nil {
		tb.Fatal(err)
	}
	if err := db.UpdateRows("audit", []string{"ok"}, []storage.TupleID{hot}, []storage.Value{storage.BoolV(i%2 == 0)}); err != nil {
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
// nothing and appends an index: a small constant number of allocations
// whatever the row count, and at most a fraction of the snapshot's
// bytes, the file system's growth of the file it appends to (the
// one-buffer encoder sections replaced: 2.17x). The first checkpoint of
// a directory sizes its frame buffer to the largest section by
// measuring, where the one buffer, with no previous length to size from,
// grew by append to 6.3x the snapshot. And with every table changed the
// file is written whole through that buffer, where the one buffer cost
// any checkpoint its 2.17x. Under -race only the allocation count is
// left unchecked: the detector adds allocations of its own, and not the
// same number every run.
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
				if err := db.UpdateRows("audit", []string{"ok"}, []storage.TupleID{hot}, []storage.Value{storage.BoolV(i%2 == 0)}); err != nil {
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
