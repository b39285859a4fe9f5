// Package cluster turns the leader/follower replication pair
// (internal/replica) into an automatically failing-over two-node
// system, safe against split brain.
//
// The safety story has three interlocking mechanisms, argued in
// DESIGN.md §14:
//
//   - Fencing epochs. Leadership is numbered. A leader durably stamps
//     its epoch into the WAL at open (wal.Options.Epoch); observing a
//     strictly higher epoch — in a handshake, an ack, or a probe —
//     durably fences the log (wal.Log.Fence) so no transaction extends
//     the deposed history, even across restarts (wal.Open refuses a
//     stale claim). Epochs bump in exactly one place, follower
//     promotion, and epoch records replicate through the log bytes, so
//     claims are unique and monotone.
//
//   - Leases. The leader grants time-bounded leases over the
//     replication stream; the follower acknowledges every frame. A
//     leader that stops hearing acks for a lease suspends itself
//     (refuses writes); a follower that stops receiving leases for a
//     lease plus a margin of Lease/2 promotes. The margin exceeds the
//     renewal interval Lease/3, so the old leader is suspended before
//     the new one can serve, and a symmetric partition never yields two
//     acknowledging leaders.
//
//   - Synchronous acknowledgment. Submit reports success only after
//     the follower has durably persisted the commit's log bytes.
//     "No committed transaction lost" therefore means: every
//     acknowledged transaction is on both disks, so it survives the
//     failure of either node; a commit whose ack never arrived is
//     reported indeterminate (UnackedError), never successful.
//
// Liveness is the usual CP trade: with the peer unreachable, a node
// with history waits rather than risk serving a stale line of history.
// A fresh bootstrap node self-elects; cold restarts resolve leadership
// by probing the peer's epoch and tie-breaking on the configured
// bootstrap node.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"activerules/internal/replica"
	"activerules/internal/retry"
	"activerules/internal/rules"
	"activerules/internal/schema"
	"activerules/internal/serve"
	"activerules/internal/wal"
)

// Role is a node's current position in the pair.
type Role int32

const (
	RoleFollower Role = iota
	RoleLeader
	RoleStopped
)

func (r Role) String() string {
	switch r {
	case RoleLeader:
		return "leader"
	case RoleFollower:
		return "follower"
	default:
		return "stopped"
	}
}

// Config assembles a cluster node.
type Config struct {
	// Schema and Defs are the served rule system.
	Schema *schema.Schema
	Defs   []rules.Definition
	// Dir is the node's WAL directory — leader log and follower
	// replica alike; roles hand it to each other on transition.
	Dir string
	// Serve is the base serving configuration for the leader role.
	// WAL.FS names the node's filesystem (nil: the real one); WAL.Epoch
	// is managed by the node and must be left zero.
	Serve serve.Config
	// ReplAddr is the node's replication listen address (the leader's
	// source and the follower's probe responder both bind it).
	ReplAddr string
	// Peer returns the peer's current replication address. It is a
	// function because test clusters bind ephemeral ports that change
	// across restarts.
	Peer func() string
	// Advertise is this node's client-facing address, carried in lease
	// frames so the follower can redirect clients to the leader.
	Advertise string
	// Bootstrap marks the configured initial leader: the node that
	// self-elects on a completely fresh start and wins cold-start epoch
	// ties. Exactly one node of the pair sets it.
	Bootstrap bool
	// Lease is the leadership lease duration; 0 means 1s. Every other
	// interval derives from it: the supervisor polls every Lease/8, a
	// follower promotes Lease/2 past lease expiry, Submit waits up to
	// 2*Lease for the follower's ack, and the follower's reconnect
	// backoff doubles from Lease/200 to a Lease/20 cap (reconnect).
	Lease time.Duration
	// Dial connects to the peer (stream and probes); nil means TCP
	// with a 2s timeout. The network fault injector hooks in here.
	Dial func(addr string) (net.Conn, error)
	// WrapConn wraps accepted connections (source and responder) — the
	// fault injector's server-side hook.
	WrapConn func(net.Conn) net.Conn
}

func (c Config) withDefaults() Config {
	if c.Lease <= 0 {
		c.Lease = time.Second
	}
	if c.Dial == nil {
		c.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 2*time.Second)
		}
	}
	if c.Peer == nil {
		c.Peer = func() string { return "" }
	}
	return c
}

// reconnect is the follower's reconnect backoff: Lease/200 doubling to
// Lease/20, so a follower retries a lost leader several times within one
// lease and never waits out more than a twentieth of it.
func (c Config) reconnect() retry.Policy {
	return retry.Policy{Initial: c.Lease / 200, Max: c.Lease / 20}
}

// Health is the node's failover-level view, nesting the serving or
// follower health of the active role. Its JSON form is the wire's
// cluster health body.
type Health struct {
	Role  string `json:"role"`
	Epoch uint64 `json:"epoch"`
	// Ready reports a leader whose follower is acknowledging.
	Ready     bool   `json:"ready"`
	Suspended bool   `json:"suspended,omitempty"`
	Leader    string `json:"leader,omitempty"` // believed leader's client address
	Failovers int    `json:"failovers"`
	LastErr   string `json:"last_error,omitempty"`
	// Serve is set while leading, Replication while following.
	Serve       *serve.Health           `json:"serve,omitempty"`
	Replication *replica.FollowerHealth `json:"replication,omitempty"`
}

// Node supervises one member of the pair, transitioning it between
// leader (serve.Server + replica.Source) and follower
// (replica.Follower + probe responder) as epochs and leases dictate.
type Node struct {
	cfg Config
	fs  wal.FS

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	wake   chan struct{}

	// claim is the epoch this node serves at while leading; depose is
	// the highest epoch observed from the peer — strictly above claim,
	// it means this leader must fence and step down.
	claim  atomic.Uint64
	depose atomic.Uint64

	mu        sync.Mutex
	role      Role
	srv       *serve.Server
	src       *replica.Source
	fol       *replica.Follower
	resp      *responder
	sawLease  bool
	leaseExp  time.Time
	coldSince time.Time
	failovers int
	lastErr   error

	ack ackState
}

// ackState tracks the follower's durable position as reported by acks,
// waking Submit waiters on every advance.
type ackState struct {
	mu  sync.Mutex
	gen uint64
	off int64
	at  time.Time
	ch  chan struct{}
}

func (a *ackState) reset() {
	a.mu.Lock()
	a.gen, a.off, a.at = 0, 0, time.Time{}
	if a.ch != nil {
		close(a.ch)
	}
	a.ch = make(chan struct{})
	a.mu.Unlock()
}

func (a *ackState) update(gen uint64, off int64, now time.Time) {
	a.mu.Lock()
	if gen > a.gen || (gen == a.gen && off > a.off) {
		a.gen, a.off = gen, off
	}
	a.at = now
	close(a.ch)
	a.ch = make(chan struct{})
	a.mu.Unlock()
}

// age reports how long since the last ack; a never-acked state is
// infinitely old.
func (a *ackState) age(now time.Time) time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.at.IsZero() {
		return time.Duration(1<<62 - 1)
	}
	return now.Sub(a.at)
}

// wait blocks until the acked position reaches (gen, off), the context
// ends, or timeout elapses.
func (a *ackState) wait(ctx context.Context, gen uint64, off int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		a.mu.Lock()
		ok := a.gen > gen || (a.gen == gen && a.off >= off)
		ch := a.ch
		a.mu.Unlock()
		if ok {
			return nil
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return errors.New("ack timeout")
		}
		t := time.NewTimer(remain)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
			return errors.New("ack timeout")
		case <-ch:
			t.Stop()
		}
	}
}

// New starts a node. The initial role: a fresh bootstrap node with no
// live peer self-elects as leader at epoch 1; everything else starts
// as follower and lets the supervisor's probes settle leadership.
func New(cfg Config) (*Node, error) {
	if cfg.Schema == nil || cfg.Dir == "" {
		return nil, errors.New("cluster: Schema and Dir are required")
	}
	if cfg.Serve.WAL.Epoch != 0 {
		return nil, errors.New("cluster: Serve.WAL.Epoch is managed by the node")
	}
	cfg = cfg.withDefaults()
	fs := cfg.Serve.WAL.FS
	if fs == nil {
		fs = wal.OS
	}
	n := &Node{cfg: cfg, fs: fs, wake: make(chan struct{}, 1)}
	n.ctx, n.cancel = context.WithCancel(context.Background())
	n.ack.reset()

	local := n.peekEpoch()
	lead := false
	if cfg.Bootstrap && local == 0 {
		// Fresh bootstrap node: lead unless the peer is already ahead.
		res, err := n.probePeer()
		lead = err != nil || (res.Epoch == 0 && res.Lease == 0)
	}
	var err error
	if lead {
		err = n.startLeader(1)
	} else {
		err = n.startFollower()
	}
	if err != nil {
		n.cancel()
		return nil, err
	}
	n.wg.Add(1)
	go n.supervise()
	return n, nil
}

// peekEpoch reads the directory's durable epoch without modifying
// anything; 0 for a fresh (or unreadable) directory.
func (n *Node) peekEpoch() uint64 {
	_, info, err := wal.Recover(n.cfg.Dir, n.cfg.Schema, n.fs)
	if err != nil {
		return 0
	}
	return info.Epoch
}

// Epoch returns the highest leadership epoch this node has observed —
// its own claim while leading, plus anything seen in probes, acks, or
// the replicated log.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	fol := n.fol
	n.mu.Unlock()
	e := n.claim.Load()
	if d := n.depose.Load(); d > e {
		e = d
	}
	if fol != nil {
		if fe := fol.Epoch(); fe > e {
			e = fe
		}
	}
	return e
}

// Role returns the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// ReplAddr returns the node's current replication listen address (the
// source's while leading, the probe responder's otherwise; "" in
// transition).
func (n *Node) ReplAddr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.src != nil {
		return n.src.Addr()
	}
	if n.resp != nil {
		return n.resp.addr()
	}
	return ""
}

// Server returns the serving layer while leading, nil otherwise.
func (n *Node) Server() *serve.Server {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.srv
}

// Follower returns the replication follower while following, nil
// otherwise.
func (n *Node) Follower() *replica.Follower {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fol
}

// LeaderAddr returns the believed leader's client address: our own
// while leading, the last lease's advertisement while following.
func (n *Node) LeaderAddr() string {
	n.mu.Lock()
	role, fol := n.role, n.fol
	n.mu.Unlock()
	if role == RoleLeader {
		return n.cfg.Advertise
	}
	if fol != nil {
		return fol.LeaderAddr()
	}
	return ""
}

// Health returns the failover-level health view.
func (n *Node) Health() Health {
	n.mu.Lock()
	h := Health{Role: n.role.String(), Failovers: n.failovers}
	if n.lastErr != nil {
		h.LastErr = n.lastErr.Error()
	}
	role, srv, fol := n.role, n.srv, n.fol
	n.mu.Unlock()
	h.Epoch = n.Epoch()
	h.Leader = n.LeaderAddr()
	h.Suspended = role == RoleLeader && n.ack.age(time.Now()) > n.cfg.Lease
	h.Ready = role == RoleLeader && !h.Suspended
	if srv != nil {
		sh := srv.Health()
		h.Serve = &sh
	} else if fol != nil {
		fh := fol.Health()
		h.Replication = &fh
	}
	return h
}

// HealthView and StatsView make a Node a serve.Service. Only a leader
// has request counters; elsewhere the node's stats are its health.
func (n *Node) HealthView() any { return n.Health() }
func (n *Node) StatsView() any {
	if srv := n.Server(); srv != nil {
		return srv.Stats()
	}
	return n.Health()
}

// Submit runs one request through the leader with synchronous
// follower acknowledgment. On a follower — or a suspended leader — it
// refuses with *NotLeaderError; a commit the follower does not
// acknowledge in time returns *UnackedError (outcome indeterminate)
// ALONGSIDE the response, since the transaction is durable locally and
// may yet survive — callers treating the outcome as unknown can still
// observe what it would have been.
func (n *Node) Submit(ctx context.Context, req serve.Request) (*serve.Response, error) {
	n.mu.Lock()
	role, srv, fol := n.role, n.srv, n.fol
	n.mu.Unlock()
	if role != RoleLeader || srv == nil {
		addr := ""
		if fol != nil {
			addr = fol.LeaderAddr()
		}
		return nil, &NotLeaderError{Leader: addr}
	}
	if n.ack.age(time.Now()) > n.cfg.Lease {
		return nil, &NotLeaderError{Suspended: true}
	}
	resp, err := srv.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	gen, off := srv.DurablePos()
	if aerr := n.ack.wait(ctx, gen, off, 2*n.cfg.Lease); aerr != nil {
		return resp, &UnackedError{Gen: gen, Off: off, Cause: aerr}
	}
	return resp, nil
}

// Checkpoint rotates the leader's WAL generation; *NotLeaderError
// elsewhere.
func (n *Node) Checkpoint(ctx context.Context) error {
	n.mu.Lock()
	role, srv := n.role, n.srv
	n.mu.Unlock()
	if role != RoleLeader || srv == nil {
		return &NotLeaderError{Leader: n.LeaderAddr()}
	}
	return srv.Checkpoint(ctx)
}

// Close stops the node: the supervisor exits, then whatever role is
// active shuts down (a leader writes its final durable point unless
// already fenced or crashed). Idempotent.
func (n *Node) Close() error {
	n.cancel()
	n.wg.Wait()
	n.mu.Lock()
	srv, src, fol, resp := n.srv, n.src, n.fol, n.resp
	n.srv, n.src, n.fol, n.resp = nil, nil, nil, nil
	n.role = RoleStopped
	n.mu.Unlock()
	if src != nil {
		src.Close()
	}
	if resp != nil {
		resp.close()
	}
	if fol != nil {
		fol.Close()
	}
	if srv != nil {
		if err := srv.Close(); err != nil && !errors.Is(err, wal.ErrFenced) {
			return err
		}
	}
	return nil
}

func (n *Node) setErr(err error) {
	n.mu.Lock()
	n.lastErr = err
	n.mu.Unlock()
}

// observeEpoch records a peer-reported epoch and wakes the supervisor;
// called from source stream goroutines, so it must not block or
// transition roles itself (stepping down closes the very goroutines
// this is called from).
func (n *Node) observeEpoch(e uint64) {
	for {
		cur := n.depose.Load()
		if e <= cur || n.depose.CompareAndSwap(cur, e) {
			break
		}
	}
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

func (n *Node) onAck(gen uint64, off int64) {
	n.ack.update(gen, off, time.Now())
}

func (n *Node) onLease(epoch uint64, lease time.Duration, addr string) {
	n.mu.Lock()
	n.sawLease = true
	n.leaseExp = time.Now().Add(lease)
	n.mu.Unlock()
}

func (n *Node) dial(addr string) (net.Conn, error) {
	if addr == "" {
		return nil, errors.New("cluster: no peer address")
	}
	return n.cfg.Dial(addr)
}

// probePeer asks the peer for its epoch, carrying ours — which is
// itself the fencing side-channel: a stale leader answering the probe
// observes our higher epoch and deposes itself.
func (n *Node) probePeer() (replica.ProbeResult, error) {
	c, err := n.dial(n.cfg.Peer())
	if err != nil {
		return replica.ProbeResult{}, err
	}
	defer c.Close()
	return replica.Probe(c, n.Epoch(), n.cfg.Lease)
}

// margin is how long past lease expiry a follower waits before
// promoting. Suspension-before-promotion needs at least the renewal
// interval, Lease/3.
func (n *Node) margin() time.Duration { return n.cfg.Lease / 2 }

// supervise is the node's only role-transition goroutine: it reacts to
// observed epochs (step down) and lease expiry (promote). Serializing
// transitions here avoids the deadlock of a stream goroutine closing
// the source that is joining on it.
func (n *Node) supervise() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.Lease / 8)
	defer ticker.Stop()
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-n.wake:
		case <-ticker.C:
		}
		if n.ctx.Err() != nil {
			return
		}
		n.step()
	}
}

func (n *Node) step() {
	n.mu.Lock()
	role := n.role
	n.mu.Unlock()
	switch role {
	case RoleLeader:
		claim := n.claim.Load()
		if e := n.depose.Load(); e > claim {
			n.stepDown(e)
			return
		}
		// Suspended: no acks for a lease. Probe the peer — if it has
		// promoted, our probe both tells us (step down) and tells it
		// nothing it doesn't know; if it is merely unreachable, keep
		// waiting, suspended. An equal-epoch answer that itself claims
		// a live lease means a dual claim (or a one-way partition where
		// our grants arrive but acks don't); either way this leader
		// cannot acknowledge anything, so the non-bootstrap side yields
		// deterministically rather than livelock.
		if n.ack.age(time.Now()) > n.cfg.Lease {
			if res, err := n.probePeer(); err == nil {
				switch {
				case res.Epoch > claim:
					n.stepDown(res.Epoch)
				case res.Epoch == claim && res.Lease > 0 && !n.cfg.Bootstrap:
					// Fencing at our own epoch is a no-op, so this is a
					// CLEAN leader close: it checkpoints (rotating the
					// local generation) before refollowing. Harmless —
					// the winner's log is untouched, and the first
					// snapshot reset from it wipes the rotation.
					n.stepDown(claim)
				}
			}
		}
	case RoleFollower:
		n.maybePromote()
	}
}

// maybePromote decides whether the follower should take over: on lease
// expiry past the margin (the live-failover path), or — when it has
// never held a lease — by cold-start election against the peer's
// probed epoch.
func (n *Node) maybePromote() {
	n.mu.Lock()
	fol, saw, exp := n.fol, n.sawLease, n.leaseExp
	n.mu.Unlock()
	if fol == nil {
		return
	}
	if saw {
		if time.Now().After(exp.Add(n.margin())) {
			n.promote(n.Epoch() + 1)
		}
		return
	}
	// Cold start: never leased in this incarnation. First wait out a
	// full lease window plus two margins: if the peer is a follower
	// about to promote through the live path (its lease just expired),
	// it will have done so before we act, and our probe will then see
	// its strictly-higher epoch — closing the race where both sides
	// promote to the same epoch. Probe answers carry the peer's own
	// remaining lease belief, so a peer that still thinks someone leads
	// defers us too.
	//
	// Past the wait: a fresh bootstrap node with no reachable peer
	// self-elects; with history, promote only when the probe proves the
	// peer's history is strictly behind ours (it then also can't be
	// serving: holding an epoch implies having stamped it). Ties — both
	// directories saw the same epoch — go to the bootstrap node, at a
	// strictly higher epoch, which is safe either way: synchronous acks
	// mean either directory contains every acknowledged transaction.
	n.mu.Lock()
	cold := n.coldSince
	n.mu.Unlock()
	wait := n.cfg.Lease + 2*n.margin()
	if time.Since(cold) < wait {
		return
	}
	// local is everything this node has ever observed OR advertised —
	// including an epoch it claimed in a failed promotion attempt, so a
	// re-election can never reuse a number a peer may have fenced at.
	local := n.Epoch()
	res, err := n.probePeer()
	if err != nil {
		// Peer unreachable. A fresh bootstrap node self-elects. A node
		// with history promotes blind after a second full cold wait:
		// that is safe even against an unseen claimant across a
		// partition — alone it can acknowledge nothing (synchronous
		// replication needs the peer's disk), and if both sides claimed
		// the same epoch, the suspended-leader tie-break resolves it
		// when the network heals, before either could ack.
		if n.cfg.Bootstrap && local == 0 {
			n.promote(1)
		} else if local > 0 && time.Since(cold) >= 2*wait {
			n.promote(local + 1)
		}
		return
	}
	if res.Lease > 0 {
		return // someone, somewhere, still holds a live lease
	}
	switch {
	case res.Epoch < local:
		n.promote(local + 1)
	case res.Epoch == local && n.cfg.Bootstrap:
		n.promote(local + 1)
	}
}

// promote turns the follower into the leader at the given epoch: stop
// the responder, open the replica directory as a full server (wal.Open:
// the follower's reader plus Finish, adopting the unfenced committed
// tail), stamp the epoch, and start the replication source for the
// deposed peer to follow.
func (n *Node) promote(epoch uint64) {
	// Claim the epoch BEFORE dismantling the follower: n.Epoch() must
	// never dip while the responder answers a final probe mid-takeover,
	// or the peer would read 0, conclude it is ahead, and promote too.
	n.claim.Store(epoch)
	n.ack.reset()
	n.mu.Lock()
	fol, resp := n.fol, n.resp
	n.fol, n.resp = nil, nil
	n.mu.Unlock()
	if resp != nil {
		resp.close()
	}
	scfg := n.cfg.Serve
	scfg.WAL.Epoch = epoch
	srv, err := fol.Promote(n.cfg.Defs, scfg)
	if err != nil {
		// A fence here means the peer got ahead while we decided; fall
		// back to following it. Anything else is a real fault.
		n.setErr(err)
		if ferr := n.startFollower(); ferr != nil {
			n.setErr(ferr)
			n.mu.Lock()
			n.role = RoleStopped
			n.mu.Unlock()
		}
		return
	}
	if err := n.startSource(srv); err != nil {
		n.setErr(err)
		srv.Close()
		n.mu.Lock()
		n.role = RoleStopped
		n.mu.Unlock()
	}
}

// stepDown fences the leader at the observed epoch and demotes it to
// follower over the same directory. The fence is durable before the
// server closes, so a crash-restart cannot resurrect the old claim.
func (n *Node) stepDown(epoch uint64) {
	n.mu.Lock()
	srv, src := n.srv, n.src
	n.srv, n.src = nil, nil
	n.mu.Unlock()
	if srv != nil {
		srv.RequestFence(epoch)
	}
	if src != nil {
		src.Close()
	}
	if srv != nil {
		if err := srv.Close(); err != nil && !errors.Is(err, wal.ErrFenced) {
			n.setErr(err)
		}
	}
	n.mu.Lock()
	n.failovers++
	n.mu.Unlock()
	if err := n.startFollower(); err != nil {
		n.setErr(err)
		n.mu.Lock()
		n.role = RoleStopped
		n.mu.Unlock()
	}
}

// startLeader opens the serving layer at the claimed epoch and its
// replication source.
func (n *Node) startLeader(epoch uint64) error {
	n.claim.Store(epoch)
	n.ack.reset()
	scfg := n.cfg.Serve
	scfg.WAL.FS = n.fs
	scfg.WAL.Epoch = epoch
	srv, err := serve.New(n.cfg.Schema, n.cfg.Defs, n.cfg.Dir, scfg)
	if err != nil {
		return err
	}
	if err := n.startSource(srv); err != nil {
		srv.Close()
		return err
	}
	return nil
}

func (n *Node) startSource(srv *serve.Server) error {
	src, err := replica.NewSource(srv, n.cfg.ReplAddr, replica.SourceConfig{
		WrapConn:     n.cfg.WrapConn,
		Epoch:        n.claim.Load,
		ObserveEpoch: n.observeEpoch,
		Lease:        n.cfg.Lease,
		Advertise:    n.cfg.Advertise,
		OnAck:        n.onAck,
	})
	if err != nil {
		return err
	}
	n.mu.Lock()
	n.role = RoleLeader
	n.srv, n.src = srv, src
	n.sawLease, n.leaseExp = false, time.Time{}
	n.mu.Unlock()
	return nil
}

// startFollower hands the directory to the replication follower and
// opens the probe responder.
func (n *Node) startFollower() error {
	fol, err := replica.NewFollower(n.cfg.Schema, n.cfg.Dir, "peer", replica.FollowerConfig{
		FS:    n.fs,
		Retry: n.cfg.reconnect(),
		Dial: func(string) (net.Conn, error) {
			return n.dial(n.cfg.Peer())
		},
		OnLease: n.onLease,
		Ack:     true,
	})
	if err != nil {
		return fmt.Errorf("cluster: follower over %s: %w", n.cfg.Dir, err)
	}
	resp, err := newResponder(n.cfg.ReplAddr, n.probeState, n.cfg.WrapConn)
	if err != nil {
		fol.Close()
		return err
	}
	n.mu.Lock()
	n.role = RoleFollower
	n.fol, n.resp = fol, resp
	n.sawLease, n.leaseExp = false, time.Time{}
	n.coldSince = time.Now()
	n.mu.Unlock()
	return nil
}

// probeState is what the probe responder reports: the node's highest
// observed epoch, and how much of a lease (plus promotion margin) it
// still believes a leader holds over it — a peer running a cold-start
// election defers while that is non-zero.
func (n *Node) probeState() (uint64, time.Duration) {
	n.mu.Lock()
	saw, exp := n.sawLease, n.leaseExp
	n.mu.Unlock()
	var lease time.Duration
	if saw {
		if rem := time.Until(exp.Add(n.margin())); rem > 0 {
			lease = rem
		}
	}
	return n.Epoch(), lease
}
