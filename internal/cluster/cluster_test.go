package cluster

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
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

const nodeDir = "node"

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

// member is one node of the test pair: its (crash-survivable) memory
// filesystem outlives node incarnations, which come and go as the
// harness kills and restarts it.
type member struct {
	fs   *wal.MemFS
	inj  *faultinject.Injector // fs-crash injector armed on this incarnation; nil if none
	node *Node
}

// pair runs a two-node cluster over a shared network fault injector.
// Only the test goroutine mutates member.node; mu guards the reads the
// nodes' own goroutines perform through the Peer closures.
type pair struct {
	t    *testing.T
	g    *workload.Generated
	seed int64
	net  *faultinject.Injector
	mu   sync.Mutex
	m    [2]*member
}

func newPair(t *testing.T, g *workload.Generated, seed int64) *pair {
	p := &pair{t: t, g: g, seed: seed}
	p.net = faultinject.New(faultinject.Config{Seed: seed})
	p.m[0] = &member{fs: wal.NewMemFS()}
	p.m[1] = &member{fs: wal.NewMemFS()}
	return p
}

func (p *pair) node(i int) *Node {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m[i].node
}

func (p *pair) peerAddr(i int) func() string {
	return func() string {
		if n := p.node(1 - i); n != nil {
			return n.ReplAddr()
		}
		return ""
	}
}

// dial is every node's outbound path — refusing while the network is
// partitioned, and wrapping the client side of each connection so a
// symmetric partition severs both directions.
func (p *pair) dial(addr string) (net.Conn, error) {
	if p.net.NetPartitioned() {
		return nil, errors.New("cluster test: network partitioned")
	}
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	return p.net.WrapNetConn(c), nil
}

// start brings up member i. crashAt > 0 arms a filesystem power-loss
// crash at that injected-call count — the kill primitive: once it
// fires, every later write fails and unsynced bytes are gone, exactly
// a machine dying mid-operation.
func (p *pair) start(i int, crashAt int) {
	p.t.Helper()
	m := p.m[i]
	var fs wal.FS = m.fs
	m.inj = nil
	if crashAt > 0 {
		m.inj = faultinject.New(faultinject.Config{FSCrashAt: crashAt, Seed: p.seed + int64(i)})
		fs = m.inj.WrapFS(m.fs)
	}
	n, err := New(Config{
		Schema: p.g.Schema,
		Defs:   p.g.Defs,
		Dir:    nodeDir,
		Serve: serve.Config{
			WAL:            wal.Options{FS: fs},
			DisableProbing: true,
			DurableRetry:   retry.Policy{Initial: time.Millisecond, Max: 5 * time.Millisecond, MaxAttempts: 2},
		},
		ReplAddr:  "127.0.0.1:0",
		Peer:      p.peerAddr(i),
		Advertise: [2]string{"node-a", "node-b"}[i],
		Bootstrap: i == 0,
		Lease:     200 * time.Millisecond,
		Dial:      p.dial,
		WrapConn:  p.net.WrapNetConn,
	})
	if err != nil {
		p.t.Fatalf("start member %d: %v", i, err)
	}
	p.mu.Lock()
	m.node = n
	p.mu.Unlock()
}

// stop takes member i down (popping it first so Peer closures stop
// advertising it) and returns the node for error inspection.
func (p *pair) stop(i int) {
	p.t.Helper()
	p.mu.Lock()
	n := p.m[i].node
	p.m[i].node = nil
	p.mu.Unlock()
	if n != nil {
		n.Close()
	}
}

func (p *pair) closeAll() {
	p.stop(0)
	p.stop(1)
}

// ackedSubmit keeps generating workload scripts and offering them to
// whichever node will take them until one is acknowledged, tolerating
// failover windows. An UnackedError abandons that script (indeterminate
// — it may or may not survive, and either is consistent) and moves on
// to a fresh one.
func (p *pair) ackedSubmit(rng *rand.Rand, timeout time.Duration) (string, bool) {
	p.t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		sql := workload.UserScript(p.g.Schema, rng, 1+rng.Intn(2))
		for i := 0; i < 2; i++ {
			n := p.node(i)
			if n == nil {
				continue
			}
			resp, err := n.Submit(ctx, serve.Request{SQL: sql})
			if err == nil {
				return resp.StateHash, true
			}
			var nl *NotLeaderError
			if errors.As(err, &nl) {
				continue // not this node; the script was not executed
			}
			break // executed (or failed) here; never reuse the script
		}
		time.Sleep(5 * time.Millisecond)
	}
	return "", false
}

// mustSubmit retries one fixed script on node i while it reports
// NotLeaderError (a leader is suspended until its follower's first
// ack; refused scripts were never executed, so retrying is safe) and
// fails the test on anything else.
func (p *pair) mustSubmit(i int, sql string, timeout time.Duration) *serve.Response {
	p.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := p.node(i).Submit(context.Background(), serve.Request{SQL: sql})
		if err == nil {
			return resp
		}
		var nl *NotLeaderError
		if !errors.As(err, &nl) {
			p.t.Fatalf("submit on member %d: %v", i, err)
		}
		if time.Now().After(deadline) {
			p.t.Fatalf("submit on member %d never acknowledged: %v", i, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// await polls cond until it holds or the deadline passes.
func (p *pair) await(what string, timeout time.Duration, cond func() bool) {
	p.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			p.t.Fatalf("timed out awaiting %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// soleLeader reports whether exactly one member currently leads, and
// which.
func (p *pair) soleLeader() (int, bool) {
	lead := -1
	for i := 0; i < 2; i++ {
		n := p.node(i)
		if n != nil && n.Role() == RoleLeader {
			if lead >= 0 {
				return -1, false
			}
			lead = i
		}
	}
	return lead, lead >= 0
}

// orderedStates is the soak's independent oracle: a fence-based replay
// (crashtest.FenceReplay) of a node's generation-1 log returning the
// ordered sequence of state hashes the history passes through — every
// durable point, ending with recovery semantics (unfenced committed
// tail adopted). The soak never rotates a generation, so the log is the
// complete history from genesis; the oracle verifies that and fails on
// a snapshot.
func orderedStates(t *testing.T, fsys wal.FS, sch *schema.Schema) []string {
	t.Helper()
	if _, err := fsys.ReadFile(nodeDir + "/snapshot.db"); err == nil {
		t.Fatalf("oracle: unexpected snapshot — a generation rotated mid-soak")
	} else if !wal.IsNotExist(err) {
		t.Fatalf("oracle: %v", err)
	}
	seq, _, err := crashtest.FenceReplay(fsys, nodeDir, sch)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// assertSubsequence fails unless want appears, in order, within seq.
func assertSubsequence(t *testing.T, want, seq []string) {
	t.Helper()
	j := 0
	for _, s := range seq {
		if j < len(want) && want[j] == s {
			j++
		}
	}
	if j != len(want) {
		t.Fatalf("acknowledged state %d of %d (%s) lost: not in the winner's epoch-ordered history (%d states)",
			j, len(want), want[j], len(seq))
	}
}

// TestClusterReconnectDerivesFromLease pins the follower's reconnect
// backoff to the lease: Lease/200 doubling to a Lease/20 cap. At the
// 200ms lease the tests above run under that is 1ms up to 10ms; at the
// default 1s lease, 5ms up to 50ms.
func TestClusterReconnectDerivesFromLease(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct {
		lease time.Duration
		want  []time.Duration
	}{
		{200 * ms, []time.Duration{1 * ms, 2 * ms, 4 * ms, 8 * ms, 10 * ms, 10 * ms}},
		{0, []time.Duration{5 * ms, 10 * ms, 20 * ms, 40 * ms, 50 * ms, 50 * ms}},
	} {
		sched := retry.New(Config{Lease: c.lease}.withDefaults().reconnect())
		for i, want := range c.want {
			if got := sched.Next(); got != want {
				t.Fatalf("lease %v: reconnect delay %d = %v, want %v", c.lease, i, got, want)
			}
		}
	}
}

// TestClusterBootstrapLeadsAndRedirects is the deterministic happy
// path: the bootstrap node self-elects, serves acknowledged writes,
// and the follower refuses writes with a redirect to the leader's
// advertised address.
func TestClusterBootstrapLeadsAndRedirects(t *testing.T) {
	g, err := workload.Generate(workload.Config{
		Seed: 3, Rules: 5, Tables: 4, Acyclic: true,
		UpdateFrac: 0.3, DeleteFrac: 0.15, ConditionFrac: 0.3, WriteFanout: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := newPair(t, g, 3)
	p.start(0, 0)
	p.start(1, 0)
	defer p.closeAll()

	if got := p.node(0).Role(); got != RoleLeader {
		t.Fatalf("bootstrap node role = %v, want leader", got)
	}
	if got := p.node(0).Epoch(); got != 1 {
		t.Fatalf("bootstrap epoch = %d, want 1", got)
	}
	rng := rand.New(rand.NewSource(3))
	resp := p.mustSubmit(0, seedSQL(g.Schema, 2), 15*time.Second)
	if resp.StateHash == "" || resp.StateHash == freshHex(g.Schema) {
		t.Fatalf("acked submit returned hash %q", resp.StateHash)
	}
	for i := 0; i < 5; i++ {
		if _, ok := p.ackedSubmit(rng, 10*time.Second); !ok {
			t.Fatalf("acked submit %d never succeeded", i)
		}
	}

	// The follower redirects, naming the leader's advertised address.
	p.await("follower lease", 10*time.Second, func() bool {
		return p.node(1).LeaderAddr() == "node-a"
	})
	_, err = p.node(1).Submit(context.Background(), serve.Request{SQL: "insert into t0 values (99, 99)"})
	var nl *NotLeaderError
	if !errors.As(err, &nl) {
		t.Fatalf("follower submit error = %v, want NotLeaderError", err)
	}
	if nl.Leader != "node-a" {
		t.Fatalf("redirect leader = %q, want node-a", nl.Leader)
	}
	h := p.node(1).Health()
	if h.Role != "follower" || h.Epoch != 1 || h.Leader != "node-a" {
		t.Fatalf("follower health = %+v", h)
	}
}

// TestClusterColdStartElection restarts a whole pair from disk: no
// node holds a lease, so leadership is resolved by probing epochs,
// with the tie going to the bootstrap node at a strictly higher epoch.
func TestClusterColdStartElection(t *testing.T) {
	g, err := workload.Generate(workload.Config{
		Seed: 11, Rules: 5, Tables: 4, Acyclic: true,
		UpdateFrac: 0.3, DeleteFrac: 0.15, ConditionFrac: 0.3, WriteFanout: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := newPair(t, g, 11)
	p.start(0, 0)
	p.start(1, 0)
	defer p.closeAll()

	rng := rand.New(rand.NewSource(11))
	p.mustSubmit(0, seedSQL(g.Schema, 2), 15*time.Second)
	var last string
	for i := 0; i < 4; i++ {
		h, ok := p.ackedSubmit(rng, 10*time.Second)
		if !ok {
			t.Fatalf("acked submit %d never succeeded", i)
		}
		last = h
	}

	// Orderly shutdown of the whole pair, follower first.
	p.stop(1)
	p.stop(0)

	p.start(0, 0)
	p.start(1, 0)
	p.await("cold-start election", 20*time.Second, func() bool {
		i, ok := p.soleLeader()
		return ok && i == 0 && p.node(0).Epoch() > 1
	})
	// The elected leader's recovered history contains the last
	// acknowledged state, and the pair serves again.
	db, _, err := wal.Recover(nodeDir, g.Schema, p.m[0].fs)
	if err != nil {
		t.Fatalf("recover elected leader: %v", err)
	}
	fp := db.Fingerprint()
	if got := hex.EncodeToString(fp[:]); got != last {
		t.Fatalf("elected leader state %s != last acknowledged %s", got, last)
	}
	if _, ok := p.ackedSubmit(rng, 20*time.Second); !ok {
		t.Fatal("pair never served after cold-start election")
	}
}

// TestClusterSoakFailover drives the pair through leader power loss,
// restart and rejoin, a symmetric network partition (split brain), and
// a follower restart — under 20 seeds of workload and timing jitter,
// with mild frame loss throughout. Invariants, per seed:
//
//  1. Split-brain safety: while the partition is symmetric, NO submit
//     is ever acknowledged by either side — the stale leader suspends
//     (its acks stopped) and the newly promoted leader cannot ack
//     either (its only possible acker is unreachable).
//  2. No acknowledged transaction is lost: the full ordered list of
//     acknowledged state hashes — across every failover — is a
//     subsequence of the final winner's single epoch-ordered history.
//  3. The loser converges: its recovered state is a durable point of
//     the winner's history, at an epoch no higher than the winner's.
func TestClusterSoakFailover(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			soakClusterSeed(t, seed)
		})
	}
}

func soakClusterSeed(t *testing.T, seed int64) {
	g, err := workload.Generate(workload.Config{
		Seed: seed, Rules: 6, Tables: 4, Acyclic: true,
		UpdateFrac: 0.3, DeleteFrac: 0.15, ConditionFrac: 0.3, WriteFanout: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed * 131))
	p := newPair(t, g, seed)
	p.net.ConfigureNet(faultinject.NetConfig{DropP: 0.003, Seed: seed})
	p.start(0, 120+rng.Intn(200)) // member 0 is armed to die of power loss
	p.start(1, 0)
	defer p.closeAll()

	ctx := context.Background()
	acked := []string{freshHex(g.Schema)}
	record := func(h string) { acked = append(acked, h) }

	// Phase 0: establish service, then submit until member 0's crash
	// fires (as initial leader it burns filesystem calls fastest, but
	// the schedule is role-agnostic — dying as follower is a valid kill
	// too).
	record(p.mustSubmit(0, seedSQL(g.Schema, 2), 15*time.Second).StateHash)
	crashed := false
	for i := 0; i < 1500; i++ {
		if p.m[0].inj.Crashed() {
			crashed = true
			break
		}
		if h, ok := p.ackedSubmit(rng, 5*time.Second); ok {
			record(h)
		}
	}
	if !crashed {
		t.Fatalf("member 0 never hit its crash point (fs calls: %d)", p.m[0].inj.FSCalls())
	}
	p.stop(0)

	// The survivor takes over (or already led), but alone it can
	// acknowledge nothing: synchronous replication needs both disks.
	p.await("survivor promotion", 20*time.Second, func() bool {
		n := p.node(1)
		return n != nil && n.Role() == RoleLeader
	})
	if _, err := p.node(1).Submit(ctx, serve.Request{SQL: "insert into t0 values (7, 7)"}); err == nil {
		t.Fatal("lone survivor acknowledged a write with no follower to replicate to")
	}

	// Member 0 rejoins from its crashed disk and service resumes.
	p.start(0, 0)
	for i := 0; i < 6; i++ {
		h, ok := p.ackedSubmit(rng, 20*time.Second)
		if !ok {
			t.Fatalf("service never resumed after member 0 rejoined (round %d)", i)
		}
		record(h)
	}

	// Phase 1: symmetric partition — split brain. The follower's lease
	// expires and it promotes; the old leader suspends. Both refuse.
	epochBefore := p.node(0).Epoch()
	if e := p.node(1).Epoch(); e > epochBefore {
		epochBefore = e
	}
	p.net.PartitionNet(true)
	p.await("split brain (both sides claiming)", 20*time.Second, func() bool {
		a, b := p.node(0), p.node(1)
		return a != nil && b != nil && a.Role() == RoleLeader && b.Role() == RoleLeader
	})
	for i := 0; i < 4; i++ {
		for m := 0; m < 2; m++ {
			cctx, cancel := context.WithTimeout(ctx, 150*time.Millisecond)
			_, err := p.node(m).Submit(cctx, serve.Request{SQL: fmt.Sprintf("insert into t0 values (%d, %d)", 500+i*2+m, seed)})
			cancel()
			if err == nil {
				t.Fatalf("member %d acknowledged a write across a symmetric partition", m)
			}
		}
		time.Sleep(30 * time.Millisecond)
	}

	// Heal: the claimant with the lower epoch fences and demotes; the
	// pair converges on one strictly higher epoch and serves again.
	p.net.PartitionNet(false)
	p.await("post-partition convergence", 20*time.Second, func() bool {
		i, ok := p.soleLeader()
		return ok && p.node(i).Epoch() > epochBefore
	})
	for i := 0; i < 6; i++ {
		h, ok := p.ackedSubmit(rng, 20*time.Second)
		if !ok {
			t.Fatalf("service never resumed after partition healed (round %d)", i)
		}
		record(h)
	}

	// Phase 2: orderly restart of the current follower.
	fol := 0
	if lead, ok := p.soleLeader(); ok && lead == 0 {
		fol = 1
	}
	p.stop(fol)
	p.start(fol, 0)
	for i := 0; i < 4; i++ {
		h, ok := p.ackedSubmit(rng, 20*time.Second)
		if !ok {
			t.Fatalf("service never resumed after follower restart (round %d)", i)
		}
		record(h)
	}

	// Settle: a run of consecutive acks, then a quiescent pair.
	streak := 0
	p.await("settled service", 30*time.Second, func() bool {
		if h, ok := p.ackedSubmit(rng, 2*time.Second); ok {
			record(h)
			streak++
		} else {
			streak = 0
		}
		return streak >= 5
	})
	lead, ok := p.soleLeader()
	if !ok {
		t.Fatal("no sole leader after settling")
	}
	winner, loser := p.m[lead], p.m[1-lead]
	p.await("loser caught up", 20*time.Second, func() bool {
		srv, f := p.node(lead).Server(), p.node(1-lead).Follower()
		if srv == nil || f == nil {
			return false
		}
		lg, lo := srv.DurablePos()
		fg, fo := f.Pos()
		return lg == fg && lo == fo
	})

	// Oracle: replay the winner's complete history (reads only; the
	// pair is quiescent). Every acknowledged state, in order, must be a
	// durable point of it, and its final state is the last ack.
	seq := orderedStates(t, winner.fs, g.Schema)
	assertSubsequence(t, acked, seq)
	if last := acked[len(acked)-1]; last != seq[len(seq)-1] {
		t.Fatalf("winner's final state %s != last acknowledged %s", seq[len(seq)-1], last)
	}

	// The loser's disk is a durable point of the same history, fenced
	// at or below the winner's epoch.
	inSeq := make(map[string]bool, len(seq))
	for _, s := range seq {
		inSeq[s] = true
	}
	db, info, err := wal.Recover(nodeDir, g.Schema, loser.fs)
	if err != nil {
		t.Fatalf("recover loser: %v", err)
	}
	fp := db.Fingerprint()
	if got := hex.EncodeToString(fp[:]); !inSeq[got] {
		t.Fatalf("loser recovered to %s — not a durable point of the winner's history", got)
	}
	if we := p.node(lead).Epoch(); info.Epoch > we {
		t.Fatalf("loser epoch %d exceeds winner epoch %d", info.Epoch, we)
	}
}
