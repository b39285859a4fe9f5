package crashtest

// Targeted enumeration of the Checkpoint rotation window: every
// filesystem operation between the pre-rotation flush and the old-log
// retirement is crashed (and, separately, failed without crash
// semantics) in turn, for three checkpoints of one directory:
//
//   - its first, which writes snapshot.tmp whole (magic, a section per
//     table, an index), fsyncs it and renames it over snapshot.db;
//   - its second, which appends to snapshot.db the sections of the
//     tables that changed and an index, under one fsync;
//   - its first compaction, a later checkpoint that writes the file
//     whole again because its dead frames would outweigh the live ones;
//
// each followed by new-log creation, its first appends and sync, the
// directory fsync that pins the new log's entry, and the old-log remove.
// The invariants: recovery always lands on a consistent generation (the
// old chain or the new snapshot, never a mixture) and FenceReplay, the
// harness's own reading of the directory, agrees with it; and a late
// in-session failure poisons the log so no later commit can claim a
// durability that recovery would not honor.

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"activerules/internal/engine"
	"activerules/internal/faultinject"
	"activerules/internal/wal"
	"activerules/internal/workload"
)

// buildCheckpoints is Build(seed) with a checkpoint after every round
// from Build's own on, and three rounds more that checkpoint too: its
// second checkpoint appends to the file the first wrote whole, and a
// later one, once superseded frames outweigh live ones, compacts it.
func buildCheckpoints(t *testing.T, seed int64) *Scenario {
	t.Helper()
	sc, err := Build(seed)
	if err != nil {
		t.Fatal(err)
	}
	for round := range sc.Checkpoints {
		sc.Checkpoints[round] = sc.Checkpoints[round] || round > 4
	}
	rng := rand.New(rand.NewSource(seed * 37))
	for i := 0; i < 3; i++ {
		sc.addRound(workload.UserScript(sc.G.Schema, rng, 1+rng.Intn(2)), i == 1, true)
	}
	return sc
}

// runToCheckpoint replays sc up to and including its n-th checkpoint
// round's pre-checkpoint commit (n counts from 1), taking the checkpoints
// before it, and returns the open session and engine. The caller drives
// the checkpoint itself.
func runToCheckpoint(sc *Scenario, fsys wal.FS, n int) (*wal.DurableDB, *engine.Engine, error) {
	d, err := wal.Open(Dir, sc.G.Schema, wal.Options{FS: fsys})
	if err != nil {
		return nil, nil, err
	}
	db := d.State()
	db.SetObserver(d)
	eng := engine.New(sc.G.Set, db, engine.Options{MaxSteps: 5000, Journal: d})
	for round, script := range sc.Scripts {
		if _, err := eng.ExecUser(script); err != nil {
			return d, nil, fmt.Errorf("round %d script: %w", round, err)
		}
		if _, err := eng.Assert(); err != nil {
			return d, nil, fmt.Errorf("round %d assert: %w", round, err)
		}
		if sc.Commits[round] {
			if err := eng.Commit(); err != nil {
				return d, nil, fmt.Errorf("round %d commit: %w", round, err)
			}
		}
		if sc.Checkpoints[round] {
			if err := eng.Commit(); err != nil {
				return d, nil, fmt.Errorf("round %d pre-checkpoint commit: %w", round, err)
			}
			if n--; n == 0 {
				return d, eng, nil
			}
			if err := d.Checkpoint(eng.DB()); err != nil {
				return d, nil, fmt.Errorf("round %d checkpoint: %w", round, err)
			}
		}
	}
	return d, nil, errors.New("scenario has too few checkpoint rounds")
}

// window is the injector-op interval (pre, post] a crash-free run spends
// inside a scenario's n-th checkpoint: the generation it rotates from,
// snapshot.db after it, and whether it appended to the file before it.
type window struct {
	n         int
	pre, post int
	oldGen    uint64
	after     []byte
	appended  bool
}

func (w window) String() string {
	kind := "whole"
	if w.appended {
		kind = "append"
	}
	return fmt.Sprintf("checkpoint %d (%s) in (%d,%d]", w.n, kind, w.pre, w.post)
}

// checkpointWindow measures sc's n-th checkpoint.
func checkpointWindow(t *testing.T, sc *Scenario, n int) window {
	t.Helper()
	inj := faultinject.New(faultinject.Config{})
	inj.Disarm()
	mem := wal.NewMemFS()
	d, eng, err := runToCheckpoint(sc, inj.WrapFS(mem), n)
	if err != nil {
		if d != nil {
			d.Close()
		}
		t.Fatalf("probe run: %v", err)
	}
	before, _ := mem.ReadFile(wal.SnapshotPath(Dir))
	w := window{n: n, oldGen: d.Info().Gen, pre: inj.FSCalls()}
	if err := d.Checkpoint(eng.DB()); err != nil {
		t.Fatalf("probe checkpoint: %v", err)
	}
	w.post = inj.FSCalls()
	d.Close()
	w.after, _ = mem.ReadFile(wal.SnapshotPath(Dir))
	w.appended = len(before) > 0 && bytes.HasPrefix(w.after, before)
	if w.post-w.pre < 6 {
		t.Fatalf("%v spans only %d fs operations — the rotation window is not being exercised", w, w.post-w.pre)
	}
	return w
}

// checkpointWindows returns sc's first checkpoint, its second, which
// must append, and its first compaction.
func checkpointWindows(t *testing.T, sc *Scenario) []window {
	t.Helper()
	ws := []window{checkpointWindow(t, sc, 1), checkpointWindow(t, sc, 2)}
	if ws[0].appended || !ws[1].appended {
		t.Fatalf("%v then %v: want a whole file and then an append", ws[0], ws[1])
	}
	for n := 3; ; n++ {
		if n > 9 {
			t.Fatal("no checkpoint of the scenario compacts its snapshot file")
		}
		if w := checkpointWindow(t, sc, n); !w.appended {
			return append(ws, w)
		}
	}
}

// landsOn asserts that recovery of fsys reads generation gen, and
// that FenceReplay — the harness's own reading of the directory —
// arrives at the state recovery does. A crash in a directory's first
// checkpoint that lands on the generation it rotated from must also
// leave no snapshot behind.
func landsOn(t *testing.T, sc *Scenario, fsys wal.FS, w window, gen uint64, label string) {
	t.Helper()
	db, info, err := wal.Recover(Dir, sc.G.Schema, fsys)
	if err != nil {
		t.Fatalf("%s: recover: %v", label, err)
	}
	if info.Gen != gen {
		t.Fatalf("%s: recovered generation %d, want %d", label, info.Gen, gen)
	}
	if _, err := fsys.ReadFile(wal.SnapshotPath(Dir)); w.n == 1 && gen == w.oldGen && !wal.IsNotExist(err) {
		t.Fatalf("%s: the first checkpoint left a snapshot (%v) beside the generation it rotated from", label, err)
	}
	_, final, err := FenceReplay(fsys, Dir, sc.G.Schema)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if fp := db.Fingerprint(); hex.EncodeToString(fp[:]) != final {
		t.Fatalf("%s: recovery and FenceReplay disagree on generation %d's state", label, gen)
	}
}

// TestCheckpointRotationCrashWindow crashes at every operation of the
// rotation window of a directory's first checkpoint, its second and its
// first compaction, and asserts recovery lands on a consistent
// generation with all the usual prefix/idempotence invariants, and
// FenceReplay agreeing. The first checkpoint's snapshot reaches its temp
// file in 2 + #tables writes (magic, a section per table, an index), so
// its window is pinned at 10 operations plus exactly those.
//
// A file written whole recovers the previous generation after a crash —
// and, at each of the temp file's writes, a torn write — up to and
// including the rename. An append recovers the previous generation
// until snapshot.db's fsync — unless the crash happened to keep every
// appended byte, a whole new index — and the new one from the fsync on;
// a torn write of any appended frame recovers the previous generation.
// A torn write is tried at every operation of each window, like the
// crash; where the operation is not a write the run goes on, and either
// way recovery must pass checkRecovery.
func TestCheckpointRotationCrashWindow(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			sc := buildCheckpoints(t, seed)
			hashes, _, err := Probe(sc, wal.Options{})
			if err != nil {
				t.Fatalf("probe: %v", err)
			}
			ref := hashSet(hashes)
			for _, w := range checkpointWindows(t, sc) {
				parts := 2 + sc.G.Schema.NumTables()
				if w.n == 1 && w.post-w.pre != 10+parts {
					t.Fatalf("%v spans %d fs operations, want the 10 around the snapshot's writes plus %d writes", w, w.post-w.pre, parts)
				}
				target, write := "snapshot.tmp", "at write "+Dir+"/snapshot.tmp"
				if w.appended {
					target, write = "snapshot.db", "at write "+Dir+"/snapshot.db"
				}
				writes, committed := 0, false
				for k := w.pre + 1; k <= w.post; k++ {
					label := fmt.Sprintf("crash at %d, %v", k, w)
					fsys := wal.NewMemFS()
					inj := faultinject.New(faultinject.Config{FSCrashAt: k, Seed: seed<<8 + int64(k)})
					runErr := RunDurable(sc, inj.WrapFS(fsys), wal.Options{}, nil)
					if !inj.Crashed() {
						t.Fatalf("%s: crash point never reached (run err: %v)", label, runErr)
					}
					// The injector names the operation it crashed at, which
					// never happened.
					switch kept, _ := fsys.ReadFile(wal.SnapshotPath(Dir)); {
					case w.appended && committed:
						landsOn(t, sc, fsys, w, w.oldGen+1, label)
					case w.appended && bytes.HasPrefix(kept, w.after):
						landsOn(t, sc, fsys, w, w.oldGen+1, label+" (every appended byte kept)")
					case !committed:
						landsOn(t, sc, fsys, w, w.oldGen, label)
					}
					if w.appended {
						committed = committed || strings.Contains(runErr.Error(), "at fsync "+Dir+"/snapshot.db")
					} else {
						committed = committed || strings.Contains(runErr.Error(), "at rename "+Dir+"/snapshot.db")
					}
					// A torn write at the same point: at another operation it
					// passes through and the run goes on.
					torn := wal.NewMemFS()
					tornErr := RunDurable(sc, faultinject.New(faultinject.Config{FSShortWriteAt: k, Seed: seed<<8 + int64(k)}).WrapFS(torn), wal.Options{}, nil)
					if strings.Contains(runErr.Error(), write) {
						writes++
						if tornErr == nil {
							t.Fatalf("%s: a torn write of %s went unreported", label, target)
						}
						landsOn(t, sc, torn, w, w.oldGen, label+" (torn write)")
					}
					checkRecovery(t, sc, torn, ref, label+" (torn write)")
					_, info, err := wal.Recover(Dir, sc.G.Schema, fsys)
					if err != nil {
						t.Fatalf("%s: recover: %v", label, err)
					}
					if info.Gen != w.oldGen && info.Gen != w.oldGen+1 {
						t.Fatalf("%s: recovered generation %d, want %d (old chain) or %d (new snapshot)",
							label, info.Gen, w.oldGen, w.oldGen+1)
					}
					checkRecovery(t, sc, fsys, ref, label)
				}
				if w.n == 1 && writes != parts || writes < 2 || !committed {
					t.Fatalf("%v: crashed at %d writes of %s (commit point seen: %v)", w, writes, target, committed)
				}
			}
		})
	}
}

// TestCheckpointLateFailurePoison fails (fail-stop, no crash) every
// operation of the rotation windows of TestCheckpointRotationCrashWindow
// in turn. A failure surfacing from Checkpoint must poison the session:
// a subsequent round cannot commit — recovery will prefer whichever
// generation is durably installed, so acknowledging post-failure work
// could contradict it. Failures the rotation absorbs (the best-effort
// old-log remove) must leave a fully working session. And a poisoned
// directory reopened in the same process, as serve reopens it, must
// keep every commit it acknowledges through a power loss
// (reopenAfterPoison).
func TestCheckpointLateFailurePoison(t *testing.T) {
	sc := buildCheckpoints(t, 1)
	hashes, _, err := Probe(sc, wal.Options{})
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	ref := hashSet(hashes)
	for _, w := range checkpointWindows(t, sc) {
		poisoned, absorbed := 0, 0
		for k := w.pre + 1; k <= w.post; k++ {
			label := fmt.Sprintf("fail at %d, %v", k, w)
			fsys := wal.NewMemFS()
			inj := faultinject.New(faultinject.Config{FSFailAt: k, Seed: int64(k)})
			d, eng, err := runToCheckpoint(sc, inj.WrapFS(fsys), w.n)
			if err != nil {
				t.Fatalf("%s: before checkpoint: %v", label, err)
			}
			ckErr := d.Checkpoint(eng.DB())
			if ckErr != nil && !errors.Is(ckErr, faultinject.ErrInjected) {
				t.Fatalf("%s: checkpoint error class: %v", label, ckErr)
			}
			// Drive one more round through the session either way.
			script := workload.UserScript(sc.G.Schema, rand.New(rand.NewSource(11)), 2)
			var contErr error
			if _, err := eng.ExecUser(script); err != nil {
				contErr = err
			} else if _, err := eng.Assert(); err != nil {
				contErr = err
			} else if err := eng.Commit(); err != nil {
				contErr = err
			}
			d.Close()
			if ckErr != nil && contErr == nil {
				t.Fatalf("%s: checkpoint failed (%v) but a later commit still claimed durability", label, ckErr)
			}
			if ckErr == nil && contErr != nil {
				t.Fatalf("%s: checkpoint absorbed the fault but the session broke: %v", label, contErr)
			}
			if ckErr != nil {
				poisoned++
				// The poisoned session made nothing new durable; recovery sees
				// a committed prefix of the reference run.
				checkRecovery(t, sc, fsys, ref, label)
				reopenAfterPoison(t, sc, w, k, label)
			} else {
				absorbed++
			}
		}
		if poisoned == 0 || absorbed == 0 {
			t.Fatalf("%v not meaningfully exercised: %d poisoning failures, %d absorbed (want both nonzero)", w, poisoned, absorbed)
		}
	}
}

// reopenAfterPoison fails operation k of sc's checkpoint w again, and
// then does what serve does with a poisoned directory: opens it again
// in the same process and goes on committing. The failed checkpoint may
// have left an append whose fsync failed, which the reopen reads as
// the new generation; a power loss after the reopened session's commit
// must still recover exactly the state that commit acknowledged.
func reopenAfterPoison(t *testing.T, sc *Scenario, w window, k int, label string) {
	t.Helper()
	fsys := wal.NewMemFS()
	d, eng, err := runToCheckpoint(sc, faultinject.New(faultinject.Config{FSFailAt: k, Seed: int64(k)}).WrapFS(fsys), w.n)
	if err != nil {
		t.Fatalf("%s: before checkpoint: %v", label, err)
	}
	if err := d.Checkpoint(eng.DB()); err == nil {
		t.Fatalf("%s: the checkpoint did not fail again", label)
	}
	d.Close()
	d, err = wal.Open(Dir, sc.G.Schema, wal.Options{FS: fsys})
	if err != nil {
		t.Fatalf("%s: reopen: %v", label, err)
	}
	db := d.State()
	db.SetObserver(d)
	eng = engine.New(sc.G.Set, db, engine.Options{MaxSteps: 5000, Journal: d})
	script := workload.UserScript(sc.G.Schema, rand.New(rand.NewSource(13)), 2)
	if _, err := eng.ExecUser(script); err != nil {
		t.Fatalf("%s: reopened script: %v", label, err)
	}
	if _, err := eng.Assert(); err != nil {
		t.Fatalf("%s: reopened assert: %v", label, err)
	}
	if err := eng.Commit(); err != nil {
		t.Fatalf("%s: reopened commit: %v", label, err)
	}
	acked := FreshHash(sc.G.Set, eng.DB())
	fsys.Crash(rand.New(rand.NewSource(int64(k))))
	rec, _, err := wal.Recover(Dir, sc.G.Schema, fsys)
	if err != nil {
		t.Fatalf("%s: recover after a power loss behind the reopened session: %v", label, err)
	}
	if FreshHash(sc.G.Set, rec) != acked {
		t.Fatalf("%s: a power loss behind the reopened session lost a commit it acknowledged", label)
	}
}
