package faultinject

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
)

// Network fault domain. The replication source writes one protocol
// frame per conn.Write, so counting Writes counts frames: the knobs
// below drop, duplicate, truncate, or sever at exact frame
// numbers — the frame-level faults a flaky network inflicts on a WAL
// stream — and the follower's CRC/offset discipline must turn every one
// of them into a clean reconnect, never divergence.
//
// Unlike the storage and fs domains, connection writes happen on
// per-connection goroutines, so the net state carries its own mutex and
// its own seeded generator (the injector's main rng stays
// single-threaded for the engine).

// NetConfig selects which connection writes (frames) fail and how.
// Counts are 1-based across all connections wrapped by the injector.
type NetConfig struct {
	// DropAt silently swallows the Nth frame (reported as written);
	// the follower sees an offset gap and reconnects. 0 disables.
	DropAt int
	// DupAt writes the Nth frame twice; the follower must ignore the
	// duplicate. 0 disables.
	DupAt int
	// TruncAt transfers only a random prefix of the Nth frame and then
	// severs the connection — a torn frame. 0 disables.
	TruncAt int
	// SeverAt closes the connection at the Nth frame without writing
	// it. 0 disables.
	SeverAt int
	// DropP drops each frame independently with this probability,
	// drawn from a generator seeded with Seed.
	DropP float64
	// Seed feeds the net domain's generator.
	Seed int64
}

// netState is the injector's shared, mutex-guarded network domain.
type netState struct {
	mu          sync.Mutex
	cfg         NetConfig
	rng         *rand.Rand
	writes      int
	partitioned bool
}

// ConfigureNet arms the network fault domain. Call before WrapNetConn.
func (in *Injector) ConfigureNet(cfg NetConfig) {
	in.netMu.Lock()
	in.net = &netState{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	in.netMu.Unlock()
}

// PartitionNet raises or heals a network partition on every connection
// wrapped by this injector: while partitioned, each write fails and
// closes its connection — modeling a link that has gone dark in BOTH
// directions, the symmetric-partition case a failover supervisor must
// survive without splitting the brain. Dial paths consult
// NetPartitioned so reconnects fail too until the partition heals.
// Arms the net domain if ConfigureNet has not run.
func (in *Injector) PartitionNet(on bool) {
	in.netMu.Lock()
	if in.net == nil {
		in.net = &netState{rng: rand.New(rand.NewSource(0))}
	}
	st := in.net
	in.netMu.Unlock()
	st.mu.Lock()
	st.partitioned = on
	st.mu.Unlock()
}

// NetPartitioned reports whether a partition raised by PartitionNet is
// in effect — the predicate an injectable dial hook checks.
func (in *Injector) NetPartitioned() bool {
	in.netMu.Lock()
	st := in.net
	in.netMu.Unlock()
	if st == nil {
		return false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.partitioned
}

// WrapNetConn wraps a connection with the injector's network fault
// domain; pass the method value as the replication source's WrapConn
// hook. Connections wrapped before ConfigureNet pass writes through
// untouched.
func (in *Injector) WrapNetConn(c net.Conn) net.Conn {
	return &injConn{Conn: c, in: in}
}

// netAction is the decided fate of one frame write.
type netAction int

const (
	netPass netAction = iota
	netDrop
	netDup
	netTrunc
	netSever
)

// netCheck counts one frame write and decides its fate.
func (in *Injector) netCheck(size int) (netAction, int) {
	in.netMu.Lock()
	st := in.net
	in.netMu.Unlock()
	if st == nil {
		return netPass, 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.writes++
	n := st.writes
	if st.partitioned {
		return netSever, 0
	}
	probabilistic := st.cfg.DropP > 0 && st.rng.Float64() < st.cfg.DropP
	switch {
	case st.cfg.SeverAt > 0 && n == st.cfg.SeverAt:
		return netSever, 0
	case st.cfg.TruncAt > 0 && n == st.cfg.TruncAt:
		k := 0
		if size > 0 {
			k = st.rng.Intn(size)
		}
		return netTrunc, k
	case (st.cfg.DropAt > 0 && n == st.cfg.DropAt) || probabilistic:
		return netDrop, 0
	case st.cfg.DupAt > 0 && n == st.cfg.DupAt:
		return netDup, 0
	}
	return netPass, 0
}

// injConn is the fault-injecting connection view.
type injConn struct {
	net.Conn
	in *Injector
}

func (c *injConn) Write(p []byte) (int, error) {
	act, k := c.in.netCheck(len(p))
	switch act {
	case netDrop:
		// Swallowed in flight: the sender believes it was delivered.
		return len(p), nil
	case netDup:
		if n, err := c.Conn.Write(p); err != nil {
			return n, err
		}
		return c.Conn.Write(p)
	case netTrunc:
		n, _ := c.Conn.Write(p[:k])
		c.Conn.Close()
		return n, fmt.Errorf("%w: torn frame (%d of %d bytes)", ErrInjected, n, len(p))
	case netSever:
		c.Conn.Close()
		return 0, fmt.Errorf("%w: connection severed", ErrInjected)
	}
	return c.Conn.Write(p)
}
