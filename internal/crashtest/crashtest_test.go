package crashtest

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"activerules/internal/engine"
	"activerules/internal/faultinject"
	"activerules/internal/storage"
	"activerules/internal/wal"
	"activerules/internal/workload"
)

// hashSet indexes the reference run's durable-point hashes.
func hashSet(hashes [][32]byte) map[[32]byte]bool {
	set := make(map[[32]byte]bool, len(hashes))
	for _, h := range hashes {
		set[h] = true
	}
	return set
}

// checkRecovery asserts the two core invariants against a crashed (or
// faulted) filesystem: the recovered state is one of the reference
// run's durable points, and recovery is idempotent — a second full open
// finds a clean log and the same state.
func checkRecovery(t *testing.T, sc *Scenario, fsys wal.FS, ref map[[32]byte]bool, label string) {
	t.Helper()
	// Every state recovery builds (restored rows that revive a tombstone
	// or take a sorted slot) and the session continued over one also answers
	// to the fingerprint memo's oracle: memoized ≡ from scratch.
	var oracle storage.FingerprintOracle
	memo := func(stage string, db *storage.DB) {
		t.Helper()
		if err := oracle.Check(db); err != nil {
			t.Fatalf("%s: %s: %v", label, stage, err)
		}
	}
	// Read-only reconstruction first: a pure crash must never be
	// unrecoverable.
	db, _, err := wal.Recover(Dir, sc.G.Schema, fsys)
	if err != nil {
		t.Fatalf("%s: recover: %v", label, err)
	}
	memo("recover", db)
	h0 := FreshHash(sc.G.Set, db)
	if !ref[h0] {
		t.Fatalf("%s: recovered state is not a committed prefix of the reference run", label)
	}
	// First full open performs any truncation; it must land on the same
	// state.
	d1, err := wal.Open(Dir, sc.G.Schema, wal.Options{FS: fsys})
	if err != nil {
		t.Fatalf("%s: first open: %v", label, err)
	}
	memo("first open", d1.State())
	h1 := FreshHash(sc.G.Set, d1.State())
	if err := d1.Close(); err != nil {
		t.Fatalf("%s: close after first open: %v", label, err)
	}
	// Second open: nothing left to truncate, same state again.
	d2, err := wal.Open(Dir, sc.G.Schema, wal.Options{FS: fsys})
	if err != nil {
		t.Fatalf("%s: second open: %v", label, err)
	}
	h2 := FreshHash(sc.G.Set, d2.State())
	trunc := d2.Info().TruncatedBytes
	if err := d2.Close(); err != nil {
		t.Fatalf("%s: close after second open: %v", label, err)
	}
	if h1 != h0 || h2 != h0 {
		t.Fatalf("%s: recovery not idempotent (read-only, first, second opens disagree)", label)
	}
	if trunc != 0 {
		t.Fatalf("%s: second recovery truncated %d bytes — first open left a dirty tail", label, trunc)
	}
	// Recover → commit → recover again. Open truncates only torn bytes,
	// so a well-formed uncommitted tail from the crashed session can
	// survive in the file with the new session's begin appended after
	// it. Committing new work through that session must not adopt the
	// stale tail: recovery after the commit, and a checkpoint, has to
	// land exactly on the continued session's committed state — not a
	// fold of mutations an earlier recovery already discarded, and never
	// ErrUnrecoverable from replaying a stale insert whose tuple ID the
	// continued session reused.
	d3, err := wal.Open(Dir, sc.G.Schema, wal.Options{FS: fsys})
	if err != nil {
		t.Fatalf("%s: continue open: %v", label, err)
	}
	db3 := d3.State()
	db3.SetObserver(d3)
	memo("continue open", db3) // the session below starts from memoized digests
	eng := engine.New(sc.G.Set, db3, engine.Options{MaxSteps: 5000, Journal: d3})
	script := workload.UserScript(sc.G.Schema, rand.New(rand.NewSource(7)), 2)
	if _, err := eng.ExecUser(script); err != nil {
		t.Fatalf("%s: continue script: %v", label, err)
	}
	if _, err := eng.Assert(); err != nil {
		t.Fatalf("%s: continue assert: %v", label, err)
	}
	if err := eng.Commit(); err != nil {
		t.Fatalf("%s: continue commit: %v", label, err)
	}
	memo("continued session", eng.DB())
	hc := FreshHash(sc.G.Set, eng.DB())
	// And checkpoint it: the session's first checkpoint writes the
	// snapshot whole, over any torn append the crash left behind the
	// recovered index.
	if err := d3.Checkpoint(eng.DB()); err != nil {
		t.Fatalf("%s: continue checkpoint: %v", label, err)
	}
	if err := d3.Close(); err != nil {
		t.Fatalf("%s: continue close: %v", label, err)
	}
	db4, _, err := wal.Recover(Dir, sc.G.Schema, fsys)
	if err != nil {
		t.Fatalf("%s: recover after continued commit: %v", label, err)
	}
	memo("recover after continued commit", db4)
	if FreshHash(sc.G.Set, db4) != hc {
		t.Fatalf("%s: recovery after a continued session's commit diverged from its committed state", label)
	}
}

// enumerateCrashes runs the scenario under opts once per filesystem
// operation, crashing at exactly that operation, and checks recovery
// after each.
func enumerateCrashes(t *testing.T, sc *Scenario, seed int64, opts wal.Options) {
	t.Helper()
	hashes, ops, err := Probe(sc, opts)
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	if ops < 10 {
		t.Fatalf("scenario has only %d fs operations — too small to be meaningful", ops)
	}
	ref := hashSet(hashes)
	for k := 1; k <= ops; k++ {
		fsys := wal.NewMemFS()
		inj := faultinject.New(faultinject.Config{FSCrashAt: k, Seed: seed<<8 + int64(k)})
		runErr := RunDurable(sc, inj.WrapFS(fsys), opts, nil)
		if !inj.Crashed() {
			t.Fatalf("fsync=%s: crash point %d/%d never reached (run err: %v)", opts.Sync, k, ops, runErr)
		}
		if runErr == nil {
			t.Errorf("fsync=%s: crash at %d/%d surfaced no error to the session", opts.Sync, k, ops)
		} else if !errors.Is(runErr, faultinject.ErrCrashed) {
			t.Errorf("fsync=%s: crash at %d/%d surfaced %v, want ErrCrashed in the chain", opts.Sync, k, ops, runErr)
		}
		checkRecovery(t, sc, fsys, ref, fmt.Sprintf("fsync=%s: crash at %d/%d", opts.Sync, k, ops))
	}
}

func TestCrashPointEnumeration(t *testing.T) {
	for seed := int64(1); seed <= NumSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			sc, err := Build(seed)
			if err != nil {
				t.Fatal(err)
			}
			// SyncNever loses a longer committed suffix on a crash, but
			// what survives must still be a committed prefix.
			for _, sync := range []wal.SyncPolicy{wal.SyncCommit, wal.SyncNever} {
				enumerateCrashes(t, sc, seed, wal.Options{Sync: sync})
			}
		})
	}
}

func TestCrashPointEnumerationRollback(t *testing.T) {
	sc, err := BuildRollback()
	if err != nil {
		t.Fatal(err)
	}
	enumerateCrashes(t, sc, 999, wal.Options{})
}

// TestFailStopEnumeration fails (without crash semantics) every fs
// operation in turn: the operation is rejected, the log goes sticky,
// and whatever the session managed to make durable must still be a
// committed prefix.
func TestFailStopEnumeration(t *testing.T) {
	for seed := int64(1); seed <= NumFaultSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			sc, err := Build(seed)
			if err != nil {
				t.Fatal(err)
			}
			hashes, ops, err := Probe(sc, wal.Options{})
			if err != nil {
				t.Fatalf("probe: %v", err)
			}
			ref := hashSet(hashes)
			for k := 1; k <= ops; k++ {
				fsys := wal.NewMemFS()
				inj := faultinject.New(faultinject.Config{FSFailAt: k, Seed: seed})
				runErr := RunDurable(sc, inj.WrapFS(fsys), wal.Options{}, nil)
				// A failed best-effort operation (stale-log removal) is
				// absorbed; anything else must surface. Either way the
				// durable state stays a committed prefix.
				if runErr != nil && !errors.Is(runErr, faultinject.ErrInjected) {
					t.Errorf("fail at %d/%d: unexpected error class: %v", k, ops, runErr)
				}
				checkRecovery(t, sc, fsys, ref, fmt.Sprintf("fail at %d/%d", k, ops))
			}
		})
	}
}

// TestShortWriteEnumeration turns every write into a torn write (a
// random prefix reaches the file, then an error): the torn frame must
// be truncated by recovery, never replayed, never fatal.
func TestShortWriteEnumeration(t *testing.T) {
	for seed := int64(1); seed <= NumFaultSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			sc, err := Build(seed)
			if err != nil {
				t.Fatal(err)
			}
			hashes, ops, err := Probe(sc, wal.Options{})
			if err != nil {
				t.Fatalf("probe: %v", err)
			}
			ref := hashSet(hashes)
			for k := 1; k <= ops; k++ {
				fsys := wal.NewMemFS()
				inj := faultinject.New(faultinject.Config{FSShortWriteAt: k, Seed: seed<<8 + int64(k)})
				// Points that land on non-write operations pass through
				// untouched; the run then completes and recovery must see
				// its final state. Either way: prefix-consistent.
				_ = RunDurable(sc, inj.WrapFS(fsys), wal.Options{}, nil)
				checkRecovery(t, sc, fsys, ref, fmt.Sprintf("short write at %d/%d", k, ops))
			}
		})
	}
}

// TestDeliberateLogCorruption flips bytes in a committed log and
// asserts the damage is detected and truncated — recovery lands on a
// committed prefix and never replays a damaged record. Snapshot
// corruption, by contrast, must be reported as unrecoverable.
func TestDeliberateLogCorruption(t *testing.T) {
	sc, err := Build(4)
	if err != nil {
		t.Fatal(err)
	}
	base := wal.NewMemFS()
	hashes := [][32]byte{}
	if err := RunDurable(sc, base, wal.Options{}, func(h [32]byte) { hashes = append(hashes, h) }); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	ref := hashSet(hashes)
	_, info, err := wal.Recover(Dir, sc.G.Schema, base)
	if err != nil {
		t.Fatal(err)
	}
	logName := fmt.Sprintf("%s/wal-%06d.log", Dir, info.Gen)
	logData, err := base.ReadFile(logName)
	if err != nil {
		t.Fatal(err)
	}
	snapData, err := base.ReadFile(Dir + "/snapshot.db")
	if err != nil {
		t.Fatal(err)
	}

	rebuild := func(log, snap []byte) *wal.MemFS { return rebuildDir(t, logName, log, snap) }

	for off := 0; off < len(logData); off += CorruptStride {
		bad := append([]byte(nil), logData...)
		bad[off] ^= 0x55
		fsys := rebuild(bad, snapData)
		// A flip in the opening snapshot marker truncates the whole log
		// (recovery = snapshot state); any other flip truncates at the
		// damaged record. Both are committed prefixes.
		checkRecovery(t, sc, fsys, ref, fmt.Sprintf("log flip at %d", off))
	}
	for off := 0; off < len(snapData); off += CorruptStride {
		bad := append([]byte(nil), snapData...)
		bad[off] ^= 0x55
		fsys := rebuild(logData, bad)
		if _, _, err := wal.Recover(Dir, sc.G.Schema, fsys); !errors.Is(err, wal.ErrUnrecoverable) {
			t.Fatalf("snapshot flip at %d: err = %v, want ErrUnrecoverable", off, err)
		}
	}

	// A second checkpoint appends to that snapshot: the sections of the
	// tables that changed and an index. A flipped byte there leaves the
	// first checkpoint's index the last intact one, and the damaged bytes
	// behind it look like a torn append — but the next generation's log
	// beside them is only ever created once the appended index is synced,
	// so recovery must refuse, never fall back to the older generation.
	sc2, err := Build(4)
	if err != nil {
		t.Fatal(err)
	}
	sc2.Checkpoints[5] = true // the round after the first checkpoint
	two := wal.NewMemFS()
	if err := RunDurable(sc2, two, wal.Options{}, nil); err != nil {
		t.Fatalf("clean run with two checkpoints: %v", err)
	}
	_, info2, err := wal.Recover(Dir, sc2.G.Schema, two)
	if err != nil {
		t.Fatal(err)
	}
	log2Name := fmt.Sprintf("%s/wal-%06d.log", Dir, info2.Gen)
	log2, err := two.ReadFile(log2Name)
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := two.ReadFile(Dir + "/snapshot.db")
	if err != nil {
		t.Fatal(err)
	}
	// An index frame: length and kind, generation, nextID, an offset per
	// table, SHA-256.
	indexLen := 5 + 16 + 8*sc2.G.Schema.NumTables() + 32
	if info2.Gen != info.Gen+1 || !bytes.HasPrefix(snap2, snapData) || len(snap2)-len(snapData) <= indexLen {
		t.Fatalf("the second checkpoint (generation %d) did not append a section to the first's snapshot (%d bytes, then %d, prefix %v)", info2.Gen, len(snapData), len(snap2), bytes.HasPrefix(snap2, snapData))
	}
	for _, region := range []struct {
		what     string
		from, to int
	}{
		{"an appended section", len(snapData), len(snap2) - indexLen},
		{"the last index", len(snap2) - indexLen, len(snap2)},
	} {
		for off := region.from; off < region.to; off++ {
			bad := append([]byte(nil), snap2...)
			bad[off] ^= 0x55
			fsys := rebuildDir(t, log2Name, log2, bad)
			if _, _, err := wal.Recover(Dir, sc2.G.Schema, fsys); !errors.Is(err, wal.ErrUnrecoverable) {
				t.Fatalf("flip at %d, in %s beside the next generation's log: err = %v, want ErrUnrecoverable", off, region.what, err)
			}
		}
	}
}

// rebuildDir returns a filesystem whose harness directory holds exactly
// the log logName and the snapshot, both synced.
func rebuildDir(t *testing.T, logName string, log, snap []byte) *wal.MemFS {
	t.Helper()
	fsys := wal.NewMemFS()
	if err := fsys.MkdirAll(Dir); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{logName: log, Dir + "/snapshot.db": snap} {
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
	return fsys
}
