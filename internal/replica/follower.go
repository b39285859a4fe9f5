package replica

import (
	"bufio"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"sync"
	"time"

	"activerules/internal/retry"
	"activerules/internal/rules"
	"activerules/internal/schema"
	"activerules/internal/serve"
	"activerules/internal/storage"
	"activerules/internal/wal"
)

// FollowerConfig tunes a follower.
type FollowerConfig struct {
	// FS is the follower's local filesystem; nil means the real one.
	FS wal.FS
	// Retry shapes the reconnect backoff (zero value: retry defaults,
	// MaxAttempts is ignored — a follower retries until closed).
	Retry retry.Policy
	// Dial connects to the source; nil means TCP with a 5s timeout.
	Dial func(addr string) (net.Conn, error)

	// Cluster extensions (internal/cluster) — zero-valued in plain
	// replication, which then behaves and speaks exactly as before.

	// OnLease is called for every lease frame received, after the
	// follower has recorded the epoch and leader address. It must not
	// block the stream.
	OnLease func(epoch uint64, lease time.Duration, addr string)
	// Ack makes the follower answer every received frame with an ack
	// line carrying its durable position and observed epoch — what
	// backs lease renewal and synchronous commit acknowledgment on the
	// leader side.
	Ack bool
	// Now is the follower's clock for lag bookkeeping; nil means
	// time.Now. Tests inject a deterministic clock.
	Now func() time.Time
}

// ErrReadOnly refuses a write (Submit, Checkpoint) on a follower.
var ErrReadOnly = serve.Coded("read-only", "follower is read-only; send asserts to the leader")

// FollowerHealth is the follower's readiness view, replication lag
// included. Its JSON form is the wire's follower health body.
type FollowerHealth struct {
	// State is "following" (connected, streaming), "disconnected"
	// (between reconnect attempts), or "closed".
	State string `json:"state"`
	// Ready reports State == "following".
	Ready bool `json:"ready"`
	// Gen and Off are the local replication position: generation and
	// how many of its log bytes are locally durable.
	Gen uint64 `json:"gen"`
	Off int64  `json:"off"`
	// StateHash is the hex fingerprint of the replayed state — always
	// equal to the leader's StateHash at some durable point.
	StateHash string `json:"state_hash"`
	// LastErr is the most recent stream error, if any.
	LastErr string `json:"last_error,omitempty"`
	// Epoch is the highest leadership epoch observed (from lease frames
	// or replicated epoch records); 0 outside cluster mode.
	Epoch uint64 `json:"epoch,omitempty"`
	// Behind is the replication lag in bytes: the leader's durable
	// frontier for the current generation, as last reported by the
	// stream, minus the local durable offset.
	Behind int64 `json:"behind"`
	// LastFrameMS is how many milliseconds ago the last frame of any
	// kind arrived; 0 before the first frame of the current process.
	LastFrameMS int64 `json:"last_frame_ms"`
	// LeaderAddr is the leader's advertised client address from the
	// most recent lease frame, if any.
	LeaderAddr string `json:"leader,omitempty"`
}

// Follower replicates a leader's WAL into a local directory and
// replays it into an in-memory database it serves read-only views of
// (StateHash, Health). It persists every received byte before applying
// it, so its directory is always a valid WAL directory: Promote — or
// plain wal.Recover — turns it into a leader with no committed
// transaction lost.
//
// Replay is the recovery reader, wal.Replayer, minus its end-of-log
// rule: the follower feeds it every byte it has made durable and never
// calls Finish, so a committed transaction's mutations reach the
// visible database only once a LATER begin record arrives — until then
// a streamed abort can still cancel the commit. Promotion is wal.Open,
// the same reader with Finish, which adopts the unfenced tail.
type Follower struct {
	sch  *schema.Schema
	dir  string
	addr string
	cfg  FollowerConfig
	fs   wal.FS

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex
	rp        *wal.Replayer // reads gen's log into rp.DB(), the replica's state
	gen       uint64        // 0 = no local state, request a snapshot
	off       int64         // locally durable bytes of gen's log
	crc       uint32        // CRC-32C of those bytes
	logf      wal.File
	connected bool
	closed    bool
	lastErr   error

	// cluster state (guarded by mu)
	obsEpoch   uint64    // highest epoch seen in leases or log records
	frontier   int64     // leader's durable frontier for gen, per stream
	lastFrame  time.Time // arrival of the most recent frame
	leaderAddr string    // leader's advertised client address
}

// NewFollower recovers any local replica state in dir (truncating a
// torn tail) and starts streaming from the source at addr, retrying
// with backoff until Close. A corrupt local state is discarded — the
// next connection re-bootstraps from a leader snapshot.
func NewFollower(sch *schema.Schema, dir, addr string, cfg FollowerConfig) (*Follower, error) {
	fs := cfg.FS
	if fs == nil {
		fs = wal.OS
	}
	if cfg.Dial == nil {
		cfg.Dial = func(a string) (net.Conn, error) {
			return net.DialTimeout("tcp", a, 5*time.Second)
		}
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	f := &Follower{sch: sch, dir: dir, addr: addr, cfg: cfg, fs: fs}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	if err := f.bootstrap(); err != nil {
		return nil, err
	}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	f.wg.Add(1)
	go f.run()
	return f, nil
}

// bootstrap reads the local directory the way recovery does (wal.Load)
// minus the end-of-log rule, so a restarted follower resumes exactly
// where its durable state left off: the reader's database, generation,
// epoch and good length become the follower's, and what the local log
// holds past the good length is cut. A state recovery would call
// unrecoverable demotes to a cold start (gen 0: ask the leader for a
// snapshot); only filesystem errors are returned.
func (f *Follower) bootstrap() error {
	rp, logData, err := wal.Load(f.fs, f.dir, f.sch)
	if errors.Is(err, wal.ErrUnrecoverable) {
		f.rp = wal.NewReplayer(storage.NewDB(f.sch), 0)
		return nil
	}
	if err != nil {
		return err
	}
	info, good := rp.Info(), rp.Good()
	logPath := wal.LogPath(f.dir, info.Gen)
	if info.TruncatedBytes > 0 {
		if err := f.fs.Truncate(logPath, good); err != nil {
			return err
		}
		rp.Rewind()
	}
	h, err := f.fs.OpenAppend(logPath)
	if err != nil {
		return err
	}
	if err := f.fs.SyncDir(f.dir); err != nil {
		h.Close()
		return err
	}
	f.rp, f.gen, f.logf = rp, info.Gen, h
	f.off, f.crc, f.obsEpoch = good, crc32.Checksum(logData[:good], crcTable), info.Epoch
	return nil
}

// run is the reconnect loop: dial, stream until error, back off,
// repeat — until Close cancels the context.
func (f *Follower) run() {
	defer f.wg.Done()
	sched := retry.New(f.cfg.Retry)
	for f.ctx.Err() == nil {
		conn, err := f.cfg.Dial(f.addr)
		if err == nil {
			sched.Reset()
			f.setConnected(true, nil)
			err = f.stream(conn)
			conn.Close()
		}
		f.setConnected(false, err)
		if f.ctx.Err() != nil {
			return
		}
		if sched.Wait(f.ctx) != nil {
			return
		}
	}
}

func (f *Follower) setConnected(on bool, err error) {
	f.mu.Lock()
	f.connected = on
	if err != nil {
		f.lastErr = err
	}
	f.mu.Unlock()
}

// stream runs one connection: handshake with the local position, then
// apply frames until an error. Close unblocks the read by closing the
// connection.
func (f *Follower) stream(conn net.Conn) error {
	f.mu.Lock()
	hs := handshake{Gen: f.gen, Off: f.off, CRC: f.crc, Epoch: f.obsEpoch}
	f.mu.Unlock()
	if err := writeHandshake(conn, hs); err != nil {
		return err
	}
	streamDone := make(chan struct{})
	defer close(streamDone)
	go func() {
		select {
		case <-f.ctx.Done():
			conn.Close()
		case <-streamDone:
		}
	}()
	br := bufio.NewReader(conn)
	for {
		fr, err := readFrame(br)
		if err != nil {
			return err
		}
		f.mu.Lock()
		f.lastFrame = f.cfg.Now()
		f.mu.Unlock()
		if err := f.handleFrame(fr); err != nil {
			return err
		}
		if f.cfg.Ack {
			f.mu.Lock()
			ack := handshake{Gen: f.gen, Off: f.off, Epoch: f.obsEpoch}
			f.mu.Unlock()
			if err := writeHandshake(conn, ack); err != nil {
				return err
			}
		}
	}
}

// handleFrame applies one frame. Offset discipline: a chunk must land
// exactly at the local frontier; a stale duplicate (entirely below the
// frontier, e.g. an injected duplicated frame) is ignored; a gap (a
// dropped frame) drops the connection — the reconnect handshake
// resumes correctly.
//
// Once the reader has stopped (wal.ErrStop) only a new snapshot is
// accepted: appending past that byte, or acknowledging a lease or a
// keepalive from an offset past it, would vouch for commits this
// follower's own promotion would drop.
func (f *Follower) handleFrame(fr frame) error {
	f.mu.Lock()
	err := f.rp.Err()
	f.mu.Unlock()
	if err != nil && fr.kind != frameSnapshot {
		return err
	}
	switch fr.kind {
	case frameSnapshot:
		return f.reset(fr.gen, fr.payload)
	case frameChunk:
		f.mu.Lock()
		defer f.mu.Unlock()
		if fr.gen == f.gen {
			// Every chunk (keepalives included: their offset IS the
			// leader's stream position) reveals the leader frontier —
			// the quantity replication lag is measured against.
			if fe := fr.off + int64(len(fr.payload)); fe > f.frontier {
				f.frontier = fe
			}
		}
		switch {
		case fr.gen != f.gen:
			return fmt.Errorf("replica: chunk for gen %d, local gen %d", fr.gen, f.gen)
		case fr.off+int64(len(fr.payload)) <= f.off:
			return nil // duplicate (or keepalive at/below the frontier)
		case fr.off != f.off:
			return fmt.Errorf("replica: chunk at offset %d, want %d (dropped frame?)", fr.off, f.off)
		case len(fr.payload) == 0:
			return nil // keepalive at the frontier
		}
		// Persist before apply: the visible state must never be ahead
		// of the local durable log.
		if _, err := f.logf.Write(fr.payload); err != nil {
			return err
		}
		if err := f.logf.Sync(); err != nil {
			return err
		}
		f.off += int64(len(fr.payload))
		f.crc = crc32.Update(f.crc, crcTable, fr.payload)
		err := f.rp.Feed(fr.payload)
		f.obsEpoch = max(f.obsEpoch, f.rp.Info().Epoch)
		return err
	case frameLease:
		f.mu.Lock()
		if fr.epoch < f.obsEpoch {
			obs := f.obsEpoch
			f.mu.Unlock()
			return fmt.Errorf("replica: lease for stale epoch %d (observed %d)", fr.epoch, obs)
		}
		f.obsEpoch = fr.epoch
		f.leaderAddr = string(fr.payload)
		hook := f.cfg.OnLease
		f.mu.Unlock()
		if hook != nil {
			hook(fr.epoch, fr.lease, string(fr.payload))
		}
		return nil
	default:
		return fmt.Errorf("replica: unhandled frame kind 0x%02x", fr.kind)
	}
}

// reset adopts a leader snapshot: decode and persist it (atomically,
// same protocol as a checkpoint), start an empty local log for its
// generation, and start a new reader over it. An empty payload is a
// fresh database.
func (f *Follower) reset(gen uint64, payload []byte) error {
	db := storage.NewDB(f.sch)
	if len(payload) > 0 {
		var sgen uint64
		var err error
		if db, sgen, err = wal.DecodeSnapshot(payload, f.sch); err != nil {
			return err
		}
		if sgen != gen {
			return fmt.Errorf("replica: snapshot frame gen %d, header gen %d", gen, sgen)
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(payload) > 0 {
		if err := wal.InstallSnapshot(f.fs, f.dir, payload); err != nil {
			return err
		}
	} else {
		// Fresh leader: make sure no stale local snapshot outlives it.
		_ = f.fs.Remove(wal.SnapshotPath(f.dir))
	}
	if f.logf != nil {
		f.logf.Close()
		f.logf = nil
	}
	oldGen := f.gen
	h, err := f.fs.Create(wal.LogPath(f.dir, gen))
	if err != nil {
		return err
	}
	if err := f.fs.SyncDir(f.dir); err != nil {
		h.Close()
		return err
	}
	f.logf = h
	f.rp, f.gen, f.off, f.crc = wal.NewReplayer(db, gen), gen, 0, 0
	f.frontier = 0
	if oldGen > 0 && oldGen != gen {
		_ = f.fs.Remove(wal.LogPath(f.dir, oldGen))
	}
	return nil
}

// StateHash returns the hex fingerprint of the replayed (fenced)
// state; it always equals the leader's Response.StateHash at some
// durable point.
func (f *Follower) StateHash() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	fp := f.rp.DB().Fingerprint()
	return hex.EncodeToString(fp[:])
}

// Pos returns the local replication position: the generation and how
// many of its log bytes are locally durable.
func (f *Follower) Pos() (gen uint64, off int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gen, f.off
}

// Health returns the follower's readiness view. A probe of an idle
// follower hashes no rows under f.mu: the state hash re-reads only the
// tables applied to since the last one (storage.DB.Fingerprint), where it
// used to sort every row and hold Apply off for ~4 ms per 10 000 of them.
func (f *Follower) Health() FollowerHealth {
	f.mu.Lock()
	defer f.mu.Unlock()
	h := FollowerHealth{Gen: f.gen, Off: f.off}
	fp := f.rp.DB().Fingerprint()
	h.StateHash = hex.EncodeToString(fp[:])
	switch {
	case f.closed:
		h.State = "closed"
	case f.connected:
		h.State, h.Ready = "following", true
	default:
		h.State = "disconnected"
	}
	if f.lastErr != nil {
		h.LastErr = f.lastErr.Error()
	}
	h.Epoch = f.obsEpoch
	if f.frontier > f.off {
		h.Behind = f.frontier - f.off
	}
	if !f.lastFrame.IsZero() {
		h.LastFrameMS = f.cfg.Now().Sub(f.lastFrame).Milliseconds()
	}
	h.LeaderAddr = f.leaderAddr
	return h
}

// A Follower is a read-only serve.Service: writes are refused, and its
// stats are its health (position and lag are all it counts).
func (f *Follower) Submit(context.Context, serve.Request) (*serve.Response, error) {
	return nil, ErrReadOnly
}
func (f *Follower) Checkpoint(context.Context) error { return ErrReadOnly }
func (f *Follower) HealthView() any                  { return f.Health() }
func (f *Follower) StatsView() any                   { return f.Health() }

// Epoch returns the highest leadership epoch the follower has observed
// — in lease frames or in epoch records replicated through the log. A
// promoting supervisor claims Epoch()+1.
func (f *Follower) Epoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.obsEpoch
}

// LeaderAddr returns the leader's advertised client address from the
// most recent lease frame ("" before the first lease).
func (f *Follower) LeaderAddr() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.leaderAddr
}

// Close stops streaming and releases the local log handle. Idempotent.
func (f *Follower) Close() error {
	f.cancel()
	f.wg.Wait()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	if f.logf != nil {
		f.logf.Close()
		f.logf = nil
	}
	return nil
}

// Promote stops replication and opens a full serving leader over the
// follower's directory. Recovery adopts every committed transaction in
// the local log — including the unfenced tail the read-only view was
// still withholding — so no durable commit the follower received is
// lost. The caller supplies the rule definitions and serve
// configuration; the WAL filesystem is forced to the follower's.
func (f *Follower) Promote(defs []rules.Definition, cfg serve.Config) (*serve.Server, error) {
	if err := f.Close(); err != nil {
		return nil, err
	}
	cfg.WAL.FS = f.fs
	return serve.New(f.sch, defs, f.dir, cfg)
}
