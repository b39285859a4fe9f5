package replica

import (
	"context"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"activerules/internal/crashtest"
	"activerules/internal/faultinject"
	"activerules/internal/retry"
	"activerules/internal/schema"
	"activerules/internal/serve"
	"activerules/internal/storage"
	"activerules/internal/wal"
	"activerules/internal/workload"
)

const (
	leaderDir  = "leader"
	replicaDir = "replica"
)

func followerRetry() retry.Policy {
	return retry.Policy{Initial: time.Millisecond, Max: 10 * time.Millisecond}
}

func freshHex(sch *schema.Schema) string {
	fp := storage.NewDB(sch).Fingerprint()
	return hex.EncodeToString(fp[:])
}

func seedSQL(sch *schema.Schema, n int) string {
	script := ""
	for _, t := range sch.TableNames() {
		for i := 0; i < n; i++ {
			if script != "" {
				script += "; "
			}
			script += fmt.Sprintf("insert into %s values (%d, %d)", t, i, i)
		}
	}
	return script
}

// waitCatchUp polls until the follower's replication position equals
// the leader's durable position.
func waitCatchUp(t *testing.T, leader Leader, f *Follower, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		lg, lo := leader.DurablePos()
		fg, fo := f.Pos()
		if lg == fg && lo == fo {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: leader (%d, %d), follower (%d, %d), health %+v",
				lg, lo, fg, fo, f.Health())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestReplicaStreamsAndCatchesUp is the deterministic happy path: a
// follower streams a leader's commits (across a checkpoint rotation),
// its fenced state hash always names a durable leader state, and at
// quiescence it equals the leader's last response hash.
func TestReplicaStreamsAndCatchesUp(t *testing.T) {
	g, err := workload.Generate(workload.Config{
		Seed: 7, Rules: 5, Tables: 4, Acyclic: true,
		UpdateFrac: 0.3, DeleteFrac: 0.15, ConditionFrac: 0.3, WriteFanout: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	leaderFS := wal.NewMemFS()
	srv, err := serve.New(g.Schema, g.Defs, leaderDir, serve.Config{
		WAL:            wal.Options{FS: leaderFS},
		DisableProbing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	src, err := NewSource(srv, "127.0.0.1:0", SourceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	followerFS := wal.NewMemFS()
	fol, err := NewFollower(g.Schema, replicaDir, src.Addr(), FollowerConfig{
		FS: followerFS, Retry: followerRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()

	ctx := context.Background()
	durable := map[string]bool{freshHex(g.Schema): true}
	rng := rand.New(rand.NewSource(7))
	last := ""
	scripts := append([]string{seedSQL(g.Schema, 3)}, make([]string, 12)...)
	for i := range scripts[1:] {
		scripts[i+1] = workload.UserScript(g.Schema, rng, 1+rng.Intn(2))
	}
	for i, sql := range scripts {
		resp, err := srv.Submit(ctx, serve.Request{SQL: sql})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		durable[resp.StateHash] = true
		last = resp.StateHash
		if got := fol.StateHash(); !durable[got] {
			t.Fatalf("after submit %d: follower state %s is not a durable leader state", i, got)
		}
		if i == 6 {
			if err := srv.Checkpoint(ctx); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		}
	}
	// A final mutation-free request fences the last real transaction:
	// the applier withholds a commit until a later begin proves no
	// abort can cancel it, so visibility trails by one open
	// transaction until the next one starts.
	if _, err := srv.Submit(ctx, serve.Request{}); err != nil {
		t.Fatalf("fence submit: %v", err)
	}
	waitCatchUp(t, srv, fol, 5*time.Second)
	if got := fol.StateHash(); got != last {
		t.Fatalf("caught-up follower state %s, want leader's last durable %s", got, last)
	}
	if h := fol.Health(); h.State != "following" {
		t.Fatalf("health state %q, want following", h.State)
	}
}

// TestReplicaFollowerRestartResumes: a follower closed mid-stream and
// restarted over the same directory resumes from its durable local
// position (no snapshot refetch needed when the generation still
// matches) and converges.
func TestReplicaFollowerRestartResumes(t *testing.T) {
	g, err := workload.Generate(workload.Config{
		Seed: 11, Rules: 4, Tables: 3, Acyclic: true, WriteFanout: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(g.Schema, g.Defs, leaderDir, serve.Config{
		WAL: wal.Options{FS: wal.NewMemFS()}, DisableProbing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	src, err := NewSource(srv, "127.0.0.1:0", SourceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	followerFS := wal.NewMemFS()
	fol, err := NewFollower(g.Schema, replicaDir, src.Addr(), FollowerConfig{
		FS: followerFS, Retry: followerRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := srv.Submit(ctx, serve.Request{SQL: seedSQL(g.Schema, 2)}); err != nil {
		t.Fatal(err)
	}
	waitCatchUp(t, srv, fol, 5*time.Second)
	fol.Close()
	// Hard power loss on the replica host: unsynced state is torn away.
	followerFS.Crash(rand.New(rand.NewSource(2)))

	resp, err := srv.Submit(ctx, serve.Request{SQL: seedSQL(g.Schema, 1)})
	if err != nil {
		t.Fatal(err)
	}
	// Fence the transaction so the restarted follower can surface it
	// (a commit stays unfenced — invisible — until the next begin).
	if _, err := srv.Submit(ctx, serve.Request{}); err != nil {
		t.Fatal(err)
	}
	fol, err = NewFollower(g.Schema, replicaDir, src.Addr(), FollowerConfig{
		FS: followerFS, Retry: followerRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	waitCatchUp(t, srv, fol, 5*time.Second)
	if got := fol.StateHash(); got != resp.StateHash {
		t.Fatalf("restarted follower state %s, want %s", got, resp.StateHash)
	}
}

// logStates is the soak's independent oracle (crashtest.FenceReplay
// over a follower directory): every state hash the fence sequence
// passes through, plus the final recovery-semantics state (unfenced
// committed tail applied).
func logStates(t *testing.T, fsys wal.FS, dir string, sch *schema.Schema) (states map[string]bool, final string) {
	t.Helper()
	seq, final, err := crashtest.FenceReplay(fsys, dir, sch)
	if err != nil {
		t.Fatal(err)
	}
	states = map[string]bool{}
	for _, h := range seq {
		states[h] = true
	}
	return states, final
}

// TestReplicaSoakFailover is the fault-injected replication soak: 20
// seeds, each running a leader + follower under seeded network faults
// (dropped, duplicated, torn, and severed frames), a follower crash
// and restart, and finally a leader crash at a seeded filesystem
// operation followed by failover. Invariants, per seed:
//
//  1. The follower's visible state hash is, at every sample point, a
//     state the leader acknowledged as durable.
//  2. After the leader crash, the follower converges to the leader's
//     durable frontier, and the state promotion recovers equals the
//     fence-replay of its own replicated log (recovery semantics).
//  3. No acknowledged transaction is lost: every response hash the
//     leader returned appears in the replicated log's state sequence.
//  4. The promoted server accepts new writes.
func TestReplicaSoakFailover(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			soakOneSeed(t, seed)
		})
	}
}

func soakOneSeed(t *testing.T, seed int64) {
	g, err := workload.Generate(workload.Config{
		Seed: seed, Rules: 6, Tables: 4, Acyclic: true,
		UpdateFrac: 0.3, DeleteFrac: 0.15, ConditionFrac: 0.3, WriteFanout: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed * 131))
	leaderFS := wal.NewMemFS()
	inj := faultinject.New(faultinject.Config{
		FSCrashAt: 60 + rng.Intn(160),
		Seed:      seed,
	})
	inj.ConfigureNet(faultinject.NetConfig{
		DropAt:  3 + rng.Intn(30),
		DupAt:   5 + rng.Intn(40),
		TruncAt: 8 + rng.Intn(50),
		SeverAt: 10 + rng.Intn(60),
		DropP:   0.01,
		Seed:    seed,
	})
	srv, err := serve.New(g.Schema, g.Defs, leaderDir, serve.Config{
		WAL:            wal.Options{FS: inj.WrapFS(leaderFS)},
		DisableProbing: true,
		DurableRetry:   retry.Policy{Initial: time.Millisecond, Max: 5 * time.Millisecond, MaxAttempts: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	src, err := NewSource(srv, "127.0.0.1:0", SourceConfig{WrapConn: inj.WrapNetConn})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	followerFS := wal.NewMemFS()
	newFollower := func() *Follower {
		f, err := NewFollower(g.Schema, replicaDir, src.Addr(), FollowerConfig{
			FS: followerFS, Retry: followerRetry(),
		})
		if err != nil {
			t.Fatalf("follower: %v", err)
		}
		return f
	}
	fol := newFollower()
	defer func() { fol.Close() }()

	ctx := context.Background()
	acked := []string{freshHex(g.Schema)}
	durable := map[string]bool{acked[0]: true}

	for i := 0; i < 200 && !inj.Crashed(); i++ {
		sql := seedSQL(g.Schema, 2)
		if i > 0 {
			sql = workload.UserScript(g.Schema, rng, 1+rng.Intn(2))
		}
		resp, err := srv.Submit(ctx, serve.Request{SQL: sql})
		if err != nil {
			if inj.Crashed() {
				break
			}
			t.Fatalf("submit %d: %v", i, err)
		}
		durable[resp.StateHash] = true
		acked = append(acked, resp.StateHash)
		if got := fol.StateHash(); !durable[got] {
			t.Fatalf("submit %d: follower state %s is not an acknowledged durable state", i, got)
		}
		if i == 9 {
			if err := srv.Checkpoint(ctx); err != nil && !inj.Crashed() {
				t.Fatalf("checkpoint: %v", err)
			}
		}
		if i == 14 {
			// Replica host power loss and restart mid-stream.
			fol.Close()
			followerFS.Crash(rand.New(rand.NewSource(seed * 7)))
			fol = newFollower()
		}
	}
	if !inj.Crashed() {
		t.Fatalf("leader never hit its crash point (fs calls: %d)", inj.FSCalls())
	}

	// Failover: the follower converges to the leader's durable
	// frontier (the source still serves reads from the dead leader's
	// disk), then promotes.
	waitCatchUp(t, srv, fol, 10*time.Second)
	if got := fol.StateHash(); !durable[got] {
		t.Fatalf("post-crash follower state %s is not an acknowledged durable state", got)
	}
	fol.Close()
	src.Close()

	states, final := logStates(t, followerFS, replicaDir, g.Schema)
	recDB, _, err := wal.Recover(replicaDir, g.Schema, followerFS)
	if err != nil {
		t.Fatalf("promote recovery: %v", err)
	}
	fp := recDB.Fingerprint()
	promoted := hex.EncodeToString(fp[:])
	if promoted != final {
		t.Fatalf("promoted state %s != fence-replay final %s", promoted, final)
	}
	// No acknowledged transaction is lost: the LAST acknowledged state
	// must appear in the replicated log's fence sequence (either as the
	// final state, or fenced by the crashed request's begin when the
	// crash left durable commits beyond it). States acked before the
	// last checkpoint are superseded by the snapshot and legitimately
	// absent from the current generation's log, so only the tail is
	// checkable here — the runtime membership checks above covered the
	// earlier ones as they happened.
	if lastAcked := acked[len(acked)-1]; !states[lastAcked] {
		t.Fatalf("last acknowledged state %s lost: not in replicated log's state sequence", lastAcked)
	}

	promotedSrv, err := fol.Promote(g.Defs, serve.Config{DisableProbing: true})
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	defer promotedSrv.Close()
	resp, err := promotedSrv.Submit(ctx, serve.Request{SQL: seedSQL(g.Schema, 1)})
	if err != nil {
		t.Fatalf("submit to promoted leader: %v", err)
	}
	if resp.StateHash == "" {
		t.Fatal("promoted leader returned no state hash")
	}
}
