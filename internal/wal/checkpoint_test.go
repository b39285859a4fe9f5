package wal

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"activerules/internal/storage"
)

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
			if err := d.Checkpoint(db); err != nil {
				t.Fatalf("seed %d, step %d: %v", seed, n, err)
			}
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
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// checkpointed opens a log on a MemFS over rows untouched archive rows
// (acct) beside one hot row (audit), commits, and checkpoints once, so
// the next checkpoint finds every digest memoized and a previous
// snapshot to size its buffer from.
func checkpointed(tb testing.TB, rows int) (d *DurableDB, db *storage.DB, fsys *MemFS, hot storage.TupleID) {
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
	if err := d.Checkpoint(db); err != nil {
		tb.Fatal(err)
	}
	return d, db, fsys, hot
}

// TestCheckpointAllocsFlatInRows is the checkpoint's cost model as a
// tripwire: over rows no request touched since the last one it makes a
// small constant number of allocations whatever the row count — no
// per-row encoding, no sort — and allocates little more than the
// snapshot it writes (the encoder's one buffer and the file's copy).
func TestCheckpointAllocsFlatInRows(t *testing.T) {
	for _, rows := range []int{1000, 10000} {
		d, db, fsys, _ := checkpointed(t, rows)
		op := func() {
			if err := d.Checkpoint(db); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(5, op); allocs > 64 {
			t.Errorf("%d rows: %v allocations per checkpoint, want at most 64", rows, allocs)
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			op()
		}
		runtime.ReadMemStats(&after)
		snap := len(mustRead(t, fsys, "w/snapshot.db"))
		if per := int(after.TotalAlloc-before.TotalAlloc) / runs; per > 3*snap {
			t.Errorf("%d rows: %d bytes allocated per checkpoint of a %d-byte snapshot, want at most 3x", rows, per, snap)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkCheckpoint is a checkpoint after one hot-row update, beside
// 1k/10k/100k rows nothing touched since the last one.
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
}
