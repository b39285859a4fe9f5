package replica

import (
	"bufio"
	"errors"
	"hash/crc32"
	"net"
	"sync"
	"time"

	"activerules/internal/wal"
)

// Leader is the read side a replication source streams from. The
// serving layer's *serve.Server implements it; the methods expose only
// the durable prefix of the WAL, so nothing a crash could revoke is
// ever shipped.
type Leader interface {
	// DurablePos returns the active generation and its durable log
	// offset.
	DurablePos() (gen uint64, off int64)
	// ReadLog returns up to max bytes of generation gen's log starting
	// at off, clipped to the durable prefix; wal.ErrGenRotated when gen
	// has been retired by a checkpoint.
	ReadLog(gen uint64, off int64, max int) ([]byte, error)
	// ReadSnapshot returns the current snapshot bytes and generation;
	// ok=false means pre-first-checkpoint (followers start fresh).
	ReadSnapshot() (data []byte, gen uint64, ok bool, err error)
}

const (
	// pollInterval is how often an idle stream re-checks the durable
	// frontier.
	pollInterval = 2 * time.Millisecond
	// chunkBytes caps the log bytes per chunk frame.
	chunkBytes = 64 << 10
)

// SourceConfig tunes a replication source.
type SourceConfig struct {
	// WrapConn, when non-nil, wraps every accepted connection — the
	// hook the network fault injector uses.
	WrapConn func(net.Conn) net.Conn

	// Cluster hooks (internal/cluster). All nil/zero in plain
	// replication, which then emits exactly the pre-cluster frame
	// sequence — the frame-counting fault injector depends on that.

	// Epoch, when non-nil, enables cluster mode: it returns the
	// leader's current epoch, stamped into lease frames and compared
	// against epochs peers present.
	Epoch func() uint64
	// ObserveEpoch is called when a peer presents a strictly higher
	// epoch than Epoch() — proof this leader has been deposed. The hook
	// must not block (the supervisor fences and steps down from its own
	// goroutine, never from the stream's).
	ObserveEpoch func(epoch uint64)
	// Lease is the leadership lease duration granted to followers in
	// cluster mode; leases are renewed every Lease/3.
	Lease time.Duration
	// Advertise is the leader's client-facing address carried in lease
	// frames, for follower-side redirects.
	Advertise string
	// OnAck is called with each follower ack's durable position — what
	// backs synchronous commit acknowledgment and lease-loss detection.
	OnAck func(gen uint64, off int64)
}

// Source accepts follower connections and streams the leader's durable
// WAL bytes to each. Safe for concurrent use; Close releases the
// listener and every active stream.
type Source struct {
	leader Leader
	cfg    SourceConfig
	ln     net.Listener
	done   chan struct{}
	wg     sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// NewSource listens on addr (e.g. "127.0.0.1:0") and starts accepting
// followers.
func NewSource(leader Leader, addr string, cfg SourceConfig) (*Source, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Source{
		leader: leader,
		cfg:    cfg,
		ln:     ln,
		done:   make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address, for followers to dial.
func (s *Source) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, severs every stream, and waits for the
// per-connection goroutines to exit. Idempotent.
func (s *Source) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	close(s.done)
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.ln.Close()
	s.wg.Wait()
	return nil
}

func (s *Source) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Source) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *Source) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
			}
			// Transient accept error; a closed listener lands in the
			// done case above on the next iteration.
			select {
			case <-s.done:
				return
			case <-time.After(pollInterval):
			}
			continue
		}
		if s.cfg.WrapConn != nil {
			c = s.cfg.WrapConn(c)
		}
		if !s.track(c) {
			c.Close()
			return
		}
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

// serveConn runs one follower stream: validate the handshake's resume
// position (content-checked by CRC, not just offset — a leader that
// crashed and truncated an unsynced suffix may have overwritten bytes
// the follower never saw), then ship chunks of durable log bytes,
// re-snapshotting whenever a checkpoint rotates the generation. Any
// write error ends the stream; the follower reconnects.
func (s *Source) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer s.untrack(c)
	defer c.Close()

	br := bufio.NewReader(c)
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	hs, err := readHandshake(br)
	if err != nil {
		return
	}
	c.SetReadDeadline(time.Time{})

	cluster := s.cfg.Epoch != nil
	if cluster {
		cur := s.cfg.Epoch()
		if hs.Epoch > cur {
			// The peer has observed a later leadership epoch: this
			// leader is deposed. Report it (a probe still gets its
			// answer, so the new leader learns our stale epoch) and
			// refuse the stream; the supervisor fences.
			if s.cfg.ObserveEpoch != nil {
				s.cfg.ObserveEpoch(hs.Epoch)
			}
			if hs.Probe {
				c.Write(leaseFrame(cur, s.cfg.Lease, s.cfg.Advertise))
			}
			return
		}
		if hs.Probe {
			// Liveness/epoch probe: one lease frame, no stream.
			c.Write(leaseFrame(cur, s.cfg.Lease, s.cfg.Advertise))
			return
		}
	} else if hs.Probe {
		return // probes are meaningless outside cluster mode
	}

	gen, off := hs.Gen, hs.Off
	if !s.resumable(hs) {
		gen, off, err = s.sendSnapshot(c)
		if err != nil {
			return
		}
	}
	var nextLease time.Time
	if cluster && s.cfg.Lease > 0 {
		if _, err := c.Write(leaseFrame(s.cfg.Epoch(), s.cfg.Lease, s.cfg.Advertise)); err != nil {
			return
		}
		nextLease = time.Now().Add(s.cfg.Lease / 3)
		// The ack reader is the only post-handshake reader of the
		// connection; it closes the conn on any fault, which surfaces
		// here as a write error.
		s.wg.Add(1)
		go s.readAcks(c, br)
	}
	idle := 0
	for {
		select {
		case <-s.done:
			return
		default:
		}
		if !nextLease.IsZero() && time.Now().After(nextLease) {
			if _, err := c.Write(leaseFrame(s.cfg.Epoch(), s.cfg.Lease, s.cfg.Advertise)); err != nil {
				return
			}
			nextLease = time.Now().Add(s.cfg.Lease / 3)
		}
		data, err := s.leader.ReadLog(gen, off, chunkBytes)
		if err != nil {
			if errors.Is(err, wal.ErrGenRotated) {
				if gen, off, err = s.sendSnapshot(c); err != nil {
					return
				}
				continue
			}
			return
		}
		if len(data) == 0 {
			idle++
			if idle >= 50 {
				// Keepalive: detects a vanished follower so the
				// goroutine does not outlive it, and lets the follower
				// observe liveness.
				idle = 0
				if _, err := c.Write(chunkFrame(gen, off, nil)); err != nil {
					return
				}
			}
			select {
			case <-s.done:
				return
			case <-time.After(pollInterval):
			}
			continue
		}
		idle = 0
		if _, err := c.Write(chunkFrame(gen, off, data)); err != nil {
			return
		}
		off += int64(len(data))
	}
}

// readAcks consumes the follower's ack lines on a cluster stream,
// forwarding durable positions to OnAck and watching for a higher
// epoch (a follower that has promoted or seen a newer leader). Any
// failure closes the connection, ending the write side too.
func (s *Source) readAcks(c net.Conn, br *bufio.Reader) {
	defer s.wg.Done()
	defer c.Close()
	for {
		ack, err := readHandshake(br)
		if err != nil {
			return
		}
		if ack.Epoch > s.cfg.Epoch() {
			if s.cfg.ObserveEpoch != nil {
				s.cfg.ObserveEpoch(ack.Epoch)
			}
			return
		}
		if s.cfg.OnAck != nil {
			s.cfg.OnAck(ack.Gen, ack.Off)
		}
	}
}

// resumable reports whether the follower's claimed prefix is byte-
// identical to the leader's log: same active generation, offset within
// the durable prefix, and matching CRC over [0, off).
func (s *Source) resumable(hs handshake) bool {
	if hs.Gen == 0 || hs.Off < 0 {
		return false
	}
	curGen, durable := s.leader.DurablePos()
	if hs.Gen != curGen || hs.Off > durable {
		return false
	}
	if hs.Off == 0 {
		return hs.CRC == 0
	}
	prefix, err := s.leader.ReadLog(hs.Gen, 0, int(hs.Off))
	if err != nil || int64(len(prefix)) != hs.Off {
		return false
	}
	return crc32.Checksum(prefix, crcTable) == hs.CRC
}

// sendSnapshot ships the snapshot matching the ACTIVE generation (or a
// fresh-database marker for a pre-checkpoint generation-1 leader) and
// returns the position the stream continues from. A snapshot file that
// disagrees with the active generation means a checkpoint is mid-
// rotation — normally the swap lands within a poll or two, so retry; a
// leader that crashed between installing the snapshot and swapping
// generations stays mismatched forever, and after a bounded wait the
// connection is dropped so the follower's reconnect loop keeps probing
// instead of hanging on a silent stream.
func (s *Source) sendSnapshot(c net.Conn) (gen uint64, off int64, err error) {
	for tries := 0; tries < 1000; tries++ {
		curGen, _ := s.leader.DurablePos()
		data, sgen, ok, err := s.leader.ReadSnapshot()
		if err != nil {
			return 0, 0, err
		}
		if !ok {
			if curGen != 1 {
				return 0, 0, errors.New("replica: no snapshot for rotated generation")
			}
			sgen, data = 1, nil
		}
		if sgen != curGen {
			select {
			case <-s.done:
				return 0, 0, errors.New("replica: source closed")
			case <-time.After(pollInterval):
			}
			continue
		}
		if _, err := c.Write(snapshotFrame(sgen, data)); err != nil {
			return 0, 0, err
		}
		return sgen, 0, nil
	}
	return 0, 0, errors.New("replica: snapshot/generation mismatch persisted (leader wedged mid-checkpoint)")
}
