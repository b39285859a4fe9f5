package replica

import (
	"bufio"
	"context"
	"encoding/hex"
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
	// Seed feeds the backoff schedule.
	Seed int64
	// Dial connects to the source; nil means TCP with a 5s timeout.
	Dial func(addr string) (net.Conn, error)
	// Sleep is the backoff sleep; nil means real time (interruptible).
	Sleep func(time.Duration)

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

// FollowerHealth is the follower's readiness view.
type FollowerHealth struct {
	// State is "following" (connected, streaming), "disconnected"
	// (between reconnect attempts), or "closed".
	State string
	// Gen and Off are the local replication position: generation and
	// how many of its log bytes are locally durable.
	Gen uint64
	Off int64
	// StateHash is the hex fingerprint of the replayed state — always
	// equal to the leader's StateHash at some durable point.
	StateHash string
	// LastErr is the most recent stream error, if any.
	LastErr string
	// Epoch is the highest leadership epoch observed (from lease frames
	// or replicated epoch records); 0 outside cluster mode.
	Epoch uint64
	// Behind is the replication lag in bytes: the leader's durable
	// frontier for the current generation, as last reported by the
	// stream, minus the local durable offset.
	Behind int64
	// LastFrameAge is how long ago the last frame of any kind arrived;
	// 0 before the first frame of the current process.
	LastFrameAge time.Duration
	// LeaderAddr is the leader's advertised client address from the
	// most recent lease frame, if any.
	LeaderAddr string
}

// span is a half-open range into the applier's mutation buffer.
type span struct{ start, end int }

// Follower replicates a leader's WAL into a local directory and
// replays it into an in-memory database it serves read-only views of
// (StateHash, Health). It persists every received byte before applying
// it, so its directory is always a valid WAL directory: Promote — or
// plain wal.Recover — turns it into a leader with no committed
// transaction lost.
//
// Replay is fence-based: a committed transaction's mutations are
// applied to the visible database only once a LATER begin record
// arrives, because until then a streamed abort can still cancel the
// commit (a rule-level ROLLBACK undoes even the assertion-point
// commits inside its engine transaction — see wal.scanLog). Promotion
// uses full recovery, which correctly adopts the unfenced tail.
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
	db        *storage.DB
	gen       uint64 // 0 = no local state, request a snapshot
	off       int64  // locally durable bytes of gen's log
	crc       uint32 // CRC-32C of those bytes
	logf      wal.File
	connected bool
	closed    bool
	lastErr   error

	// cluster state (guarded by mu)
	obsEpoch   uint64    // highest epoch seen in leases or log records
	frontier   int64     // leader's durable frontier for gen, per stream
	lastFrame  time.Time // arrival of the most recent frame
	leaderAddr string    // leader's advertised client address

	// applier state (guarded by mu)
	abuf         []byte       // partial record bytes
	first        bool         // next record must be the snapshot marker
	muts         []wal.Record // mutation records not yet fenced
	ranges       []span       // committed, unfenced ranges into muts
	pendingStart int
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

// bootstrap loads the local snapshot and re-feeds the local log through
// the applier, so a restarted follower resumes exactly where its
// durable state left off. Corruption demotes to a cold start (gen 0);
// only filesystem errors are returned.
func (f *Follower) bootstrap() error {
	f.db = storage.NewDB(f.sch)
	f.first = true
	data, err := f.fs.ReadFile(join(f.dir, "snapshot.db"))
	switch {
	case err == nil:
		db, gen, derr := wal.DecodeSnapshot(data, f.sch)
		if derr != nil {
			return nil // corrupt local snapshot: cold start
		}
		f.db, f.gen = db, gen
	case wal.IsNotExist(err):
		// No snapshot. A log can still exist (generation 1 streams
		// before the first checkpoint); trust it if it opens with the
		// fresh-database marker.
		f.gen = 1
	default:
		return err
	}
	logPath := join(f.dir, logName(f.gen))
	logData, err := f.fs.ReadFile(logPath)
	if err != nil && !wal.IsNotExist(err) {
		return err
	}
	if err == nil {
		if ferr := f.feed(logData); ferr != nil {
			// The local log contradicts the local snapshot: discard
			// everything and re-bootstrap from the leader.
			f.db = storage.NewDB(f.sch)
			f.gen, f.off, f.crc = 0, 0, 0
			f.resetApplier()
			return nil
		}
		// feed consumed whole records; any remainder is a torn tail.
		good := int64(len(logData)) - int64(len(f.abuf))
		if good < int64(len(logData)) {
			if terr := f.fs.Truncate(logPath, good); terr != nil {
				return terr
			}
			f.abuf = nil
		}
		f.off = good
		f.crc = crc32.Checksum(logData[:good], crcTable)
	}
	if f.gen > 0 {
		h, err := f.fs.OpenAppend(logPath)
		if err != nil {
			return err
		}
		if err := f.fs.SyncDir(f.dir); err != nil {
			h.Close()
			return err
		}
		f.logf = h
	}
	return nil
}

func (f *Follower) resetApplier() {
	f.abuf = nil
	f.first = true
	f.muts = f.muts[:0]
	f.ranges = f.ranges[:0]
	f.pendingStart = 0
}

// run is the reconnect loop: dial, stream until error, back off,
// repeat — until Close cancels the context.
func (f *Follower) run() {
	defer f.wg.Done()
	sched := retry.New(f.cfg.Retry, f.cfg.Seed)
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
		if sched.Wait(f.ctx, f.cfg.Sleep) != nil {
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
func (f *Follower) handleFrame(fr frame) error {
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
		return f.feed(fr.payload)
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
// generation, and restart the applier. An empty payload is a fresh
// database.
func (f *Follower) reset(gen uint64, payload []byte) error {
	var db *storage.DB
	if len(payload) > 0 {
		d, sgen, err := wal.DecodeSnapshot(payload, f.sch)
		if err != nil {
			return err
		}
		if sgen != gen {
			return fmt.Errorf("replica: snapshot frame gen %d, header gen %d", gen, sgen)
		}
		db = d
	} else {
		db = storage.NewDB(f.sch)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(payload) > 0 {
		if err := f.writeSnapshotFile(payload); err != nil {
			return err
		}
	} else {
		// Fresh leader: make sure no stale local snapshot outlives it.
		_ = f.fs.Remove(join(f.dir, "snapshot.db"))
	}
	if f.logf != nil {
		f.logf.Close()
		f.logf = nil
	}
	oldGen := f.gen
	h, err := f.fs.Create(join(f.dir, logName(gen)))
	if err != nil {
		return err
	}
	if err := f.fs.SyncDir(f.dir); err != nil {
		h.Close()
		return err
	}
	f.logf = h
	f.db, f.gen, f.off, f.crc = db, gen, 0, 0
	f.frontier = 0
	f.resetApplier()
	if oldGen > 0 && oldGen != gen {
		_ = f.fs.Remove(join(f.dir, logName(oldGen)))
	}
	return nil
}

// writeSnapshotFile persists snapshot bytes with the same atomic
// install protocol the leader's checkpoint uses.
func (f *Follower) writeSnapshotFile(data []byte) error {
	tmp := join(f.dir, "snapshot.tmp")
	h, err := f.fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := h.Write(data); err != nil {
		h.Close()
		return err
	}
	if err := h.Sync(); err != nil {
		h.Close()
		return err
	}
	if err := h.Close(); err != nil {
		return err
	}
	if err := f.fs.Rename(tmp, join(f.dir, "snapshot.db")); err != nil {
		return err
	}
	return f.fs.SyncDir(f.dir)
}

// feed runs the incremental applier over newly durable log bytes,
// mirroring wal.scanLog's range bookkeeping. Mutations buffer until
// their commit; commits buffer (unfenced) until the next begin proves
// no abort can cancel them; begin applies the unfenced ranges and
// discards any stale pending tail; abort discards both. Callers hold
// f.mu (or are pre-concurrency, in bootstrap).
func (f *Follower) feed(data []byte) error {
	f.abuf = append(f.abuf, data...)
	for len(f.abuf) > 0 {
		rec, n, err := wal.ReadRecord(f.abuf)
		if err != nil {
			break // partial record: wait for the rest
		}
		f.abuf = f.abuf[n:]
		if f.first {
			if rec.Kind != wal.RecSnapshot || rec.Gen != f.gen || rec.FP != f.db.Fingerprint() {
				return fmt.Errorf("replica: log opens with %s, want snapshot marker for gen %d", rec, f.gen)
			}
			f.first = false
			continue
		}
		switch rec.Kind {
		case wal.RecSnapshot:
			return fmt.Errorf("replica: unexpected mid-log snapshot marker")
		case wal.RecEpoch:
			// Control record: a leadership epoch replicated through the
			// log. No mutation bookkeeping — just track the maximum, so
			// a restarted follower (or a demoted ex-leader re-feeding
			// its own fenced log) still knows the epochs it has seen.
			if rec.Epoch > f.obsEpoch {
				f.obsEpoch = rec.Epoch
			}
		case wal.RecInsert, wal.RecDelete, wal.RecUpdate:
			f.muts = append(f.muts, rec)
		case wal.RecCommit:
			f.ranges = append(f.ranges, span{f.pendingStart, len(f.muts)})
			f.pendingStart = len(f.muts)
		case wal.RecBegin:
			for _, sp := range f.ranges {
				if err := wal.ApplyRange(f.db, f.muts[sp.start:sp.end]); err != nil {
					return fmt.Errorf("replica: replay: %w", err)
				}
			}
			f.muts = f.muts[:0]
			f.ranges = f.ranges[:0]
			f.pendingStart = 0
		case wal.RecAbort:
			f.muts = f.muts[:0]
			f.ranges = f.ranges[:0]
			f.pendingStart = 0
		}
	}
	if len(f.abuf) > 0 {
		f.abuf = append([]byte(nil), f.abuf...)
	} else {
		f.abuf = nil
	}
	return nil
}

// StateHash returns the hex fingerprint of the replayed (fenced)
// state; it always equals the leader's Response.StateHash at some
// durable point.
func (f *Follower) StateHash() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	fp := f.db.Fingerprint()
	return hex.EncodeToString(fp[:])
}

// Pos returns the local replication position: the generation and how
// many of its log bytes are locally durable.
func (f *Follower) Pos() (gen uint64, off int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gen, f.off
}

// Health returns the follower's readiness view.
func (f *Follower) Health() FollowerHealth {
	f.mu.Lock()
	defer f.mu.Unlock()
	h := FollowerHealth{Gen: f.gen, Off: f.off}
	fp := f.db.Fingerprint()
	h.StateHash = hex.EncodeToString(fp[:])
	switch {
	case f.closed:
		h.State = "closed"
	case f.connected:
		h.State = "following"
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
		h.LastFrameAge = f.cfg.Now().Sub(f.lastFrame)
	}
	h.LeaderAddr = f.leaderAddr
	return h
}

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

// Dir returns the follower's WAL directory.
func (f *Follower) Dir() string { return f.dir }

func join(dir, name string) string {
	if dir == "" {
		return name
	}
	return dir + "/" + name
}

func logName(gen uint64) string { return fmt.Sprintf("wal-%06d.log", gen) }
