package crashtest

// Targeted enumeration of the Checkpoint rotation window: every
// filesystem operation between the pre-rotation flush and the old-log
// retirement — the snapshot temp file's writes (header, one per table,
// trailer), its fsync, the rename commit point, new-log creation, its
// first appends and sync, the directory fsync that pins the new log's
// entry, and the old-log remove — is crashed (and, separately, failed
// without crash semantics) in turn.
// The invariants: recovery always lands on a consistent generation
// (the old chain or the new snapshot, never a mixture), and a late
// in-session failure poisons the log so no later commit can claim a
// durability that recovery would not honor.

import (
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

// runToCheckpoint replays sc up to and including its checkpoint round's
// pre-checkpoint commit, returning the open session and engine. The
// caller drives the checkpoint itself.
func runToCheckpoint(sc *Scenario, fsys wal.FS) (*wal.DurableDB, *engine.Engine, error) {
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
			return d, eng, nil
		}
	}
	return d, nil, errors.New("scenario has no checkpoint round")
}

// checkpointWindow measures the injector-op interval [pre+1, post] that
// a crash-free run spends inside Checkpoint, plus the generation it
// rotates from.
func checkpointWindow(t *testing.T, sc *Scenario) (pre, post int, oldGen uint64) {
	t.Helper()
	inj := faultinject.New(faultinject.Config{})
	inj.Disarm()
	d, eng, err := runToCheckpoint(sc, inj.WrapFS(wal.NewMemFS()))
	if err != nil {
		if d != nil {
			d.Close()
		}
		t.Fatalf("probe run: %v", err)
	}
	oldGen = d.Info().Gen
	pre = inj.FSCalls()
	if err := d.Checkpoint(eng.DB()); err != nil {
		t.Fatalf("probe checkpoint: %v", err)
	}
	post = inj.FSCalls()
	d.Close()
	if post-pre < 6 {
		t.Fatalf("checkpoint spans only %d fs operations — the rotation window is not being exercised", post-pre)
	}
	return pre, post, oldGen
}

// previousGeneration asserts that a checkpoint interrupted before its
// rename left the generation it was rotating from, whole: recovery reads
// oldGen, no snapshot has appeared beside it (the scenario's checkpoint
// is its first), and the state is the one FenceReplay — the harness's
// own reading of the directory — arrives at.
func previousGeneration(t *testing.T, sc *Scenario, fsys wal.FS, oldGen uint64, label string) {
	t.Helper()
	db, info, err := wal.Recover(Dir, sc.G.Schema, fsys)
	if err != nil {
		t.Fatalf("%s: recover: %v", label, err)
	}
	if _, err := fsys.ReadFile(wal.SnapshotPath(Dir)); info.Gen != oldGen || !wal.IsNotExist(err) {
		t.Fatalf("%s: recovered generation %d (snapshot.db: %v), want generation %d and no snapshot: the rename had not happened", label, info.Gen, err, oldGen)
	}
	_, final, err := FenceReplay(fsys, Dir, sc.G.Schema)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if fp := db.Fingerprint(); hex.EncodeToString(fp[:]) != final {
		t.Fatalf("%s: recovery and FenceReplay disagree on the previous generation's state", label)
	}
}

// TestCheckpointRotationCrashWindow crashes at every operation of the
// rotation window and asserts recovery lands on a consistent
// generation: either the old chain or the freshly installed snapshot
// generation, with all the usual prefix/idempotence invariants. The
// snapshot reaches its temp file in 2 + #tables writes (header, a
// section per table, trailer) where one buffer took one, so the window
// is pinned at the 11 operations it was plus exactly those: each new
// boundary is a crash point the enumeration visits. Up to and including
// the rename, a crash — and, at each of the temp file's writes, a torn
// write — must leave the previous generation.
func TestCheckpointRotationCrashWindow(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			sc, err := Build(seed)
			if err != nil {
				t.Fatal(err)
			}
			hashes, _, err := Probe(sc, wal.Options{})
			if err != nil {
				t.Fatalf("probe: %v", err)
			}
			ref := hashSet(hashes)
			pre, post, oldGen := checkpointWindow(t, sc)
			parts := 2 + sc.G.Schema.NumTables()
			if post-pre != 10+parts {
				t.Fatalf("checkpoint spans %d fs operations, want the 10 around the snapshot's writes plus %d writes", post-pre, parts)
			}
			tmpWrites, renamed := 0, false
			for k := pre + 1; k <= post; k++ {
				label := fmt.Sprintf("rotation crash at %d in (%d,%d]", k, pre, post)
				fsys := wal.NewMemFS()
				inj := faultinject.New(faultinject.Config{FSCrashAt: k, Seed: seed<<8 + int64(k)})
				runErr := RunDurable(sc, inj.WrapFS(fsys), wal.Options{}, nil)
				if !inj.Crashed() {
					t.Fatalf("%s: crash point never reached (run err: %v)", label, runErr)
				}
				// The injector names the operation it crashed at, which never
				// happened: the rename is the last one that leaves oldGen.
				if !renamed {
					previousGeneration(t, sc, fsys, oldGen, label)
				}
				renamed = renamed || strings.Contains(runErr.Error(), "at rename ")
				if strings.Contains(runErr.Error(), "at write "+Dir+"/snapshot.tmp") {
					tmpWrites++
					torn := wal.NewMemFS()
					inj := faultinject.New(faultinject.Config{FSShortWriteAt: k, Seed: seed<<8 + int64(k)})
					if err := RunDurable(sc, inj.WrapFS(torn), wal.Options{}, nil); err == nil {
						t.Fatalf("%s: a torn write of the snapshot's temp file went unreported", label)
					}
					previousGeneration(t, sc, torn, oldGen, label+" (torn write)")
					checkRecovery(t, sc, torn, ref, label+" (torn write)")
				}
				_, info, err := wal.Recover(Dir, sc.G.Schema, fsys)
				if err != nil {
					t.Fatalf("%s: recover: %v", label, err)
				}
				if info.Gen != oldGen && info.Gen != oldGen+1 {
					t.Fatalf("%s: recovered generation %d, want %d (old chain) or %d (new snapshot)",
						label, info.Gen, oldGen, oldGen+1)
				}
				checkRecovery(t, sc, fsys, ref, label)
			}
			if tmpWrites != parts || !renamed {
				t.Fatalf("crashed at %d writes of snapshot.tmp (rename seen: %v), want %d", tmpWrites, renamed, parts)
			}
		})
	}
}

// TestCheckpointLateFailurePoison fails (fail-stop, no crash) every
// operation of the rotation window in turn. A failure surfacing from
// Checkpoint must poison the session: a subsequent round cannot commit
// — recovery will prefer whichever generation is durably installed, so
// acknowledging post-failure work could contradict it. Failures the
// rotation absorbs (the best-effort old-log remove) must leave a fully
// working session.
func TestCheckpointLateFailurePoison(t *testing.T) {
	sc, err := Build(1)
	if err != nil {
		t.Fatal(err)
	}
	hashes, _, err := Probe(sc, wal.Options{})
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	ref := hashSet(hashes)
	pre, post, _ := checkpointWindow(t, sc)
	poisoned, absorbed := 0, 0
	for k := pre + 1; k <= post; k++ {
		label := fmt.Sprintf("rotation fail at %d in (%d,%d]", k, pre, post)
		fsys := wal.NewMemFS()
		inj := faultinject.New(faultinject.Config{FSFailAt: k, Seed: int64(k)})
		d, eng, err := runToCheckpoint(sc, inj.WrapFS(fsys))
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
		} else {
			absorbed++
		}
	}
	if poisoned == 0 || absorbed == 0 {
		t.Fatalf("window not meaningfully exercised: %d poisoning failures, %d absorbed (want both nonzero)", poisoned, absorbed)
	}
}
