package crashtest

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"activerules/internal/faultinject"
	"activerules/internal/schema"
	"activerules/internal/storage"
	"activerules/internal/wal"
)

// replayChunked reads the harness directory the way wal.Recover does —
// snapshot, active log, end-of-log rule — but hands the log to the
// reader in pieces whose sizes next chooses.
func replayChunked(t *testing.T, fsys wal.FS, sch *schema.Schema, label string, next func() int) *wal.Replayer {
	t.Helper()
	db, gen := storage.NewDB(sch), uint64(1)
	if snap, err := fsys.ReadFile(wal.SnapshotPath(Dir)); err == nil {
		if db, gen, err = wal.DecodeSnapshot(snap, sch); err != nil {
			t.Fatalf("%s: snapshot: %v", label, err)
		}
	} else if !wal.IsNotExist(err) {
		t.Fatalf("%s: %v", label, err)
	}
	rp := wal.NewReplayer(db, gen)
	log, err := fsys.ReadFile(wal.LogPath(Dir, gen))
	if err != nil && !wal.IsNotExist(err) {
		t.Fatalf("%s: %v", label, err)
	}
	for len(log) > 0 {
		n := min(next(), len(log))
		_ = rp.Feed(log[:n]) // a stop is sticky: Finish and Info report it
		log = log[n:]
	}
	if err := rp.Finish(); err != nil {
		t.Fatalf("%s: finish: %v", label, err)
	}
	return rp
}

// checkChunking requires that recovery's verdict on a crashed directory
// does not depend on how the log bytes reach the reader: whole (which
// is wal.Recover itself), byte by byte, in sevens, or in seeded random
// pieces, the database — contents, iteration order, identity allocator
// — the good length and every RecoveryInfo counter are the same.
func checkChunking(t *testing.T, sc *Scenario, fsys wal.FS, seed int64, label string) {
	t.Helper()
	want, info, err := wal.Recover(Dir, sc.G.Schema, fsys)
	if err != nil {
		t.Fatalf("%s: recover: %v", label, err)
	}
	rng := rand.New(rand.NewSource(seed))
	chunkings := []struct {
		name string
		next func() int
	}{
		{"whole", func() int { return 1 << 30 }},
		{"1 byte", func() int { return 1 }},
		{"7 bytes", func() int { return 7 }},
		{"random", func() int { return 1 + rng.Intn(300) }},
	}
	var good int64 // the one-shot read's, set by the first chunking
	for i, c := range chunkings {
		rp := replayChunked(t, fsys, sc.G.Schema, label, c.next)
		got, gotInfo := rp.DB(), rp.Info()
		// Load, not the reader, knows what the directory held.
		gotInfo.SnapshotLoaded, gotInfo.Fresh = info.SnapshotLoaded, info.Fresh
		if gotInfo != info {
			t.Fatalf("%s, %s: RecoveryInfo %+v, recovery's %+v", label, c.name, gotInfo, info)
		}
		if i == 0 {
			good = rp.Good()
		}
		if rp.Good() != good {
			t.Fatalf("%s, %s: good length %d, one-shot %d", label, c.name, rp.Good(), good)
		}
		if got.Fingerprint() != want.Fingerprint() || got.NextID() != want.NextID() {
			t.Fatalf("%s, %s: state differs from recovery's", label, c.name)
		}
		for _, name := range sc.G.Schema.TableNames() {
			if g, w := got.Table(name).IDs(), want.Table(name).IDs(); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s, %s: table %s iterates %v, recovery's %v", label, c.name, name, g, w)
			}
		}
	}
}

// enumerateChunking crashes the scenario at every filesystem operation
// (the same points enumerateCrashes visits, with the same tear seeds)
// and checks chunking independence on what survives.
func enumerateChunking(t *testing.T, sc *Scenario, seed int64) {
	t.Helper()
	_, ops, err := Probe(sc, wal.Options{})
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	for k := 1; k <= ops; k++ {
		fsys := wal.NewMemFS()
		inj := faultinject.New(faultinject.Config{FSCrashAt: k, Seed: seed<<8 + int64(k)})
		_ = RunDurable(sc, inj.WrapFS(fsys), wal.Options{}, nil)
		checkChunking(t, sc, fsys, seed<<8+int64(k), fmt.Sprintf("crash at %d/%d", k, ops))
	}
}

func TestCrashPointReplayChunking(t *testing.T) {
	for seed := int64(1); seed <= NumSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			sc, err := Build(seed)
			if err != nil {
				t.Fatal(err)
			}
			enumerateChunking(t, sc, seed)
		})
	}
	t.Run("rollback", func(t *testing.T) {
		t.Parallel()
		sc, err := BuildRollback()
		if err != nil {
			t.Fatal(err)
		}
		enumerateChunking(t, sc, 999)
	})
}
