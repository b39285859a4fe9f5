package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"activerules/internal/cluster"
	"activerules/internal/engine"
	"activerules/internal/ruledef"
	"activerules/internal/rules"
	"activerules/internal/schema"
	"activerules/internal/serve"
	"activerules/internal/storage"
	"activerules/internal/tenant"
	"activerules/internal/wal"
)

// Load model: ruled's line protocol is synchronous per connection, so
// callers wait for replies. Every served workload is therefore a closed
// loop: a client sends its next request only when the previous one
// returned. A stream is generated for nClients clients, each with its
// own id range. The end-to-end pass sends it from one client (the lists
// merged round-robin): with one worker per server, two clients on two
// shared cores measure how the scheduler interleaves them. The traced
// pass has a two-client leg, for the queue wait.
const nClients = 2

type topology int

const (
	topoFlat topology = iota
	topoTenants
	topoCluster
)

// servedSpec freezes one served workload. Op counts are fixed per
// round, so both sides of a later comparison do identical work; a run
// repeats whole rounds until its time is up.
type servedSpec struct {
	name      string
	topo      topology
	tenants   int  // topoTenants: tenant count
	realFS    bool // WAL on the real filesystem instead of wal.MemFS
	cascade   bool // the cascade system and stream instead of the bank
	perClient int  // measured requests per client per round
	// checkpointEvery: client 0 calls Checkpoint after every n-th of
	// its requests (0: never).
	checkpointEvery int
	// archiveRows pre-loads a table no request or rule touches.
	archiveRows int
}

const archiveBatch = 1000

func (sp *servedSpec) sources() (schemaSrc, rulesSrc string) {
	if sp.cascade {
		return cascadeSources()
	}
	schemaSrc, rulesSrc = corpusSources("bank")
	if sp.archiveRows > 0 {
		schemaSrc += "table archive (id int, payload string)\n"
	}
	return schemaSrc, rulesSrc
}

func (sp *servedSpec) stream(seed int64, perClient int) *stream {
	if sp.cascade {
		return cascadeStream(seed, nClients, perClient)
	}
	nt := 1
	if sp.topo == topoTenants {
		nt = sp.tenants
	}
	st := bankStream(seed, nClients, perClient, nt)
	for lo := 0; lo < sp.archiveRows; lo += archiveBatch {
		var sb strings.Builder
		sb.WriteString("insert into archive values ")
		for i := lo; i < lo+archiveBatch && i < sp.archiveRows; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, 'archived-row-%08d')", i, i)
		}
		n := min(archiveBatch, sp.archiveRows-lo)
		st.preload = append(st.preload, request{sql: sb.String(), want: expect{affected: []int{n}}})
	}
	return st
}

// serveConfig mirrors cmd/ruled's defaults: compiled hot path, 10 000
// considerations per request, fsync at every commit, no group commit.
func serveConfig(fs wal.FS) serve.Config {
	return serve.Config{
		WAL:    wal.Options{FS: fs, Sync: wal.SyncCommit},
		Engine: engine.Options{MaxSteps: 10000, Compiled: true},
	}
}

// system is one running deployment of the program under test.
type system struct {
	sp     *servedSpec
	sch    *schema.Schema
	defs   []rules.Definition
	fs     wal.FS     // the (possibly wrapped) filesystem the leader writes
	mem    *wal.MemFS // the leader's MemFS when not realFS
	dir    string     // the leader's WAL directory
	tmpDir string     // real directory to remove at close ("" on MemFS)

	srv     *serve.Server
	mgr     *tenant.Manager
	ids     []string
	leader  *cluster.Node
	fol     *cluster.Node
	unacked atomic.Int64

	setup setupTimes
}

type setupTimes struct {
	total        time.Duration
	ruledefParse time.Duration
	compile      time.Duration
	serveNew     time.Duration
	tenantCreate []time.Duration
}

var tmpSeq int

// newTmpDir returns a fresh directory under the benchmark's own out/
// tree (never outside the checkout).
func newTmpDir(label string) (string, error) {
	tmpSeq++
	dir := filepath.Join(outDir(), "tmp", fmt.Sprintf("%s-%d-%d", label, os.Getpid(), tmpSeq))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// start brings the workload's deployment up and loads the stream's
// set-up data through the ordinary request path. wrap, when non-nil,
// wraps the leader's filesystem (the traced legs install the counting
// wrapper there).
func (sp *servedSpec) start(st *stream, wrap func(wal.FS) wal.FS) (*system, error) {
	t0 := time.Now()
	sys := &system{sp: sp, dir: "wal"}
	if sp.realFS {
		dir, err := newTmpDir(sp.name)
		if err != nil {
			return nil, err
		}
		sys.tmpDir, sys.dir, sys.fs = dir, filepath.Join(dir, "wal"), wal.OS
	} else {
		sys.mem = wal.NewMemFS()
		sys.fs = sys.mem
	}
	if wrap != nil {
		sys.fs = wrap(sys.fs)
	}
	schemaSrc, rulesSrc := sp.sources()
	var err error
	if sys.sch, err = schema.Parse(schemaSrc); err != nil {
		return nil, err
	}
	t := time.Now()
	if sys.defs, err = ruledef.Parse(rulesSrc); err != nil {
		return nil, err
	}
	sys.setup.ruledefParse = time.Since(t)
	t = time.Now()
	if _, err = rules.NewSet(sys.sch, sys.defs); err != nil {
		return nil, err
	}
	sys.setup.compile = time.Since(t)

	cfg := serveConfig(sys.fs)
	switch sp.topo {
	case topoFlat:
		t = time.Now()
		sys.srv, err = serve.New(sys.sch, sys.defs, sys.dir, cfg)
		sys.setup.serveNew = time.Since(t)
	case topoTenants:
		sys.mgr, err = tenant.Open("fleet", tenant.Config{FS: sys.fs, Serve: cfg})
		for i := 0; err == nil && i < sp.tenants; i++ {
			id := fmt.Sprintf("t%02d", i)
			t = time.Now()
			_, err = sys.mgr.Create(id, schemaSrc, rulesSrc)
			sys.setup.tenantCreate = append(sys.setup.tenantCreate, time.Since(t))
			sys.ids = append(sys.ids, id)
		}
	case topoCluster:
		err = sys.startCluster(cfg)
	}
	if err != nil {
		sys.close()
		return nil, fmt.Errorf("%s: start: %w", sp.name, err)
	}
	for _, rq := range st.preload {
		resp, err := sys.submitReady(rq)
		if err == nil {
			if msg := verify(resp, rq.want); msg != "" {
				err = errors.New(msg)
			}
		}
		if err != nil {
			sys.close()
			return nil, fmt.Errorf("%s: set-up load: %w", sp.name, err)
		}
	}
	sys.setup.total = time.Since(t0)
	return sys, nil
}

// startScaled is start with the set-up time taken by timeSetup.
func (sp *servedSpec) startScaled(st *stream, wrap func(wal.FS) wal.FS) (sys *system, err error) {
	total, err := timeSetup(func() error {
		sys, err = sp.start(st, wrap)
		return err
	})
	if err != nil {
		return nil, err
	}
	sys.setup.total = total
	return sys, nil
}

// startCluster starts the bootstrap leader and its follower on loopback
// TCP with the default lease and source poll interval.
func (sys *system) startCluster(cfg serve.Config) error {
	var mu sync.Mutex
	nodes := [2]*cluster.Node{}
	peer := func(i int) func() string {
		return func() string {
			mu.Lock()
			defer mu.Unlock()
			if n := nodes[1-i]; n != nil {
				return n.ReplAddr()
			}
			return ""
		}
	}
	for i := range nodes {
		c := cfg
		if i == 1 {
			c.WAL.FS = wal.NewMemFS()
		}
		n, err := cluster.New(cluster.Config{
			Schema:    sys.sch,
			Defs:      sys.defs,
			Dir:       sys.dir,
			Serve:     c,
			ReplAddr:  "127.0.0.1:0",
			Peer:      peer(i),
			Advertise: fmt.Sprintf("node-%d", i),
			Bootstrap: i == 0,
		})
		if err != nil {
			return err
		}
		mu.Lock()
		nodes[i] = n
		mu.Unlock()
		if i == 0 {
			sys.leader = n
		} else {
			sys.fol = n
		}
	}
	return nil
}

// submit sends one request to whichever front the topology has.
func (sys *system) submit(rq request) (*serve.Response, error) {
	ctx := context.Background()
	switch sys.sp.topo {
	case topoTenants:
		return sys.mgr.Submit(ctx, sys.ids[rq.tenant], serve.Request{SQL: rq.sql})
	case topoCluster:
		resp, err := sys.leader.Submit(ctx, serve.Request{SQL: rq.sql})
		var ue *cluster.UnackedError
		if errors.As(err, &ue) {
			sys.unacked.Add(1)
		}
		return resp, err
	default:
		return sys.srv.Submit(ctx, serve.Request{SQL: rq.sql})
	}
}

// submitReady is submit for set-up: a fresh cluster leader refuses
// writes until its follower's first ack, and a refused request was
// never executed, so retrying it is safe.
func (sys *system) submitReady(rq request) (*serve.Response, error) {
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := sys.submit(rq)
		var nl *cluster.NotLeaderError
		if !errors.As(err, &nl) || time.Now().After(deadline) {
			return resp, err
		}
		time.Sleep(time.Millisecond)
	}
}

func (sys *system) checkpoint() error {
	ctx := context.Background()
	switch sys.sp.topo {
	case topoTenants:
		for _, id := range sys.ids {
			if err := sys.mgr.Checkpoint(ctx, id); err != nil {
				return err
			}
		}
		return nil
	case topoCluster:
		return sys.leader.Checkpoint(ctx)
	default:
		return sys.srv.Checkpoint(ctx)
	}
}

// counters are the shed and repair counts the serving layers keep.
type counters struct {
	shedOverload, shedDeadline, reopens, shedQuota uint64
	cacheHits, cacheMisses                         int
}

func (sys *system) counters() counters {
	var c counters
	add := func(st serve.Stats) {
		c.shedOverload += st.ShedOverload
		c.shedDeadline += st.ShedDeadline
		c.reopens += st.Reopens
	}
	switch sys.sp.topo {
	case topoTenants:
		all := sys.mgr.StatsAll()
		c.cacheHits, c.cacheMisses = all.CacheHits, all.CacheMisses
		for _, ts := range all.PerTenant {
			add(ts.Stats)
			c.shedQuota += ts.ShedQuota
		}
	case topoCluster:
		if srv := sys.leader.Server(); srv != nil {
			add(srv.Stats())
		}
	default:
		add(sys.srv.Stats())
	}
	return c
}

// close stops every goroutine the deployment started and removes its
// temporary directory. It reports the first error.
func (sys *system) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if sys.srv != nil {
		keep(sys.srv.Close())
	}
	if sys.mgr != nil {
		keep(sys.mgr.Shutdown(context.Background()))
	}
	if sys.fol != nil {
		keep(sys.fol.Close())
	}
	if sys.leader != nil {
		keep(sys.leader.Close())
	}
	if sys.tmpDir != "" {
		keep(os.RemoveAll(sys.tmpDir))
	}
	return first
}

// verify compares one response with the model's prediction.
func verify(resp *serve.Response, want expect) string {
	if resp == nil {
		return "no response"
	}
	if resp.Considered != want.considered || resp.Fired != want.fired {
		return fmt.Sprintf("considered/fired = %d/%d, model says %d/%d",
			resp.Considered, resp.Fired, want.considered, want.fired)
	}
	if len(resp.Results) != len(want.affected) {
		return fmt.Sprintf("%d statement results, model says %d", len(resp.Results), len(want.affected))
	}
	for i, r := range resp.Results {
		if r.Affected != want.affected[i] {
			return fmt.Sprintf("statement %d affected %d rows, model says %d", i, r.Affected, want.affected[i])
		}
	}
	return ""
}

func renderRow(vals []storage.Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		switch v.Kind {
		case storage.KindInt:
			parts[i] = strconv.FormatInt(v.I, 10)
		case storage.KindFloat:
			parts[i] = fmtValue(v.F)
		default:
			parts[i] = v.String()
		}
	}
	return strings.Join(parts, "|")
}

func diffRows(where, table string, got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: table %s has %d rows, model says %d", where, table, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: table %s row %d is %q, model says %q", where, table, i, got[i], want[i])
		}
	}
	return nil
}

// checkSelects reads every modelled table back through the request path
// and requires exactly the model's rows. State hashes are deliberately
// not compared: how that hash is computed may change.
func (sys *system) checkSelects(st *stream) error {
	for t, final := range st.final {
		for _, q := range st.checks {
			resp, err := sys.submit(request{tenant: t, sql: q.sql})
			if err != nil {
				return fmt.Errorf("check query %q: %w", q.sql, err)
			}
			if len(resp.Results) != 1 {
				return fmt.Errorf("check query %q: %d results", q.sql, len(resp.Results))
			}
			got := make([]string, 0, len(resp.Results[0].Rows))
			for _, row := range resp.Results[0].Rows {
				got = append(got, renderRow(row))
			}
			sort.Strings(got)
			if err := diffRows(fmt.Sprintf("tenant %d select", t), q.table, got, final[q.table]); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkRecovered requires a recovered database to hold the model's
// acknowledged state.
func checkRecovered(db *storage.DB, st *stream) error {
	for _, q := range st.checks {
		var got []string
		db.Table(q.table).Scan(func(tu *storage.Tuple) bool {
			vals := make([]storage.Value, len(q.cols))
			for i, c := range q.cols {
				vals[i] = tu.Vals[c]
			}
			got = append(got, renderRow(vals))
			return true
		})
		sort.Strings(got)
		if err := diffRows("recovered", q.table, got, st.final[0][q.table]); err != nil {
			return err
		}
	}
	return nil
}

// checkDurable is the end-of-round durability check for the topology.
// It must run last: on MemFS it crashes the filesystem under the
// still-open server.
func (sys *system) checkDurable(st *stream, crashSeed int64) error {
	switch {
	case sys.sp.topo == topoCluster:
		return sys.checkConverged()
	case sys.sp.topo == topoTenants:
		return nil // per-tenant WALs are the same code path serve_hot crashes
	case sys.sp.realFS:
		// Recover is read-only; every acknowledged request was fsynced.
	default:
		// Power loss: unsynced bytes and unsynced directory entries go.
		sys.mem.Crash(rand.New(rand.NewSource(crashSeed)))
	}
	var base wal.FS = wal.OS
	if sys.mem != nil {
		base = sys.mem
	}
	db, _, err := wal.Recover(sys.dir, sys.sch, base)
	if err != nil {
		return fmt.Errorf("recover after crash: %w", err)
	}
	return checkRecovered(db, st)
}

// checkConverged waits for the follower to reach the leader's state and
// requires that no commit went unacknowledged.
func (sys *system) checkConverged() error {
	if n := sys.unacked.Load(); n != 0 {
		return fmt.Errorf("%d commits were not acknowledged by the follower", n)
	}
	resp, err := sys.submit(request{sql: "select id from audit where id < 0"})
	if err != nil {
		return err
	}
	f := sys.fol.Follower()
	if f == nil {
		return errors.New("follower node is not following")
	}
	deadline := time.Now().Add(5 * time.Second)
	for f.StateHash() != resp.StateHash {
		if time.Now().After(deadline) {
			return errors.New("follower did not converge to the leader's state")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// round is what one pass of a stream through a deployment measured.
type round struct {
	setup       setupTimes
	lat         []time.Duration // one per measured request, all clients
	wall        time.Duration   // of the measured section
	allocBytes  uint64
	attempted   int
	failed      int
	wrong       []string
	checkpoints []time.Duration
	ctr         counters
	converge    time.Duration // cluster: last ack -> follower state equal
	lagBytes    int64         // cluster: leader durable offset - follower offset at the end
	unacked     int64         // cluster: commits the follower never acknowledged
	fsBusy      time.Duration // inside wal.FS Write and Sync during the measured section; zero without the wrapper
}

// runRound starts a deployment, drives the stream through it with the
// given number of clients, checks every output, and shuts it down. A
// scaled round (one client only) reports its latencies and wall time at
// the host's full speed (see hostspeed.go).
func (sp *servedSpec) runRound(st *stream, clients int, crashSeed int64, traced *tracedFS, scaled bool) (*round, error) {
	var wrap func(wal.FS) wal.FS
	if traced != nil {
		wrap = func(fs wal.FS) wal.FS { traced.FS = fs; return traced }
	}
	start := sp.start
	if scaled {
		start = sp.startScaled
	}
	sys, err := start(st, wrap)
	if err != nil {
		return nil, err
	}
	r := &round{setup: sys.setup, attempted: st.total()}
	lists := st.clients
	if clients == 1 {
		lists = [][]request{st.merged()}
	}
	lats := make([][]time.Duration, len(lists))
	wrongs := make([][]string, len(lists))
	fails := make([]int, len(lists))
	every := sp.checkpointEvery * nClients / len(lists)
	// one sends client ci's k-th request, checks the answer and returns
	// the request's latency.
	one := func(ci, k int) time.Duration {
		rq := lists[ci][k]
		t := time.Now()
		resp, err := sys.submit(rq)
		d := time.Since(t)
		if err != nil {
			fails[ci]++
			wrongs[ci] = append(wrongs[ci], fmt.Sprintf("client %d request %d failed: %v", ci, k, err))
		} else if msg := verify(resp, rq.want); msg != "" {
			wrongs[ci] = append(wrongs[ci], fmt.Sprintf("client %d request %d (%s): %s", ci, k, rq.sql, msg))
		}
		if ci == 0 && every > 0 && (k+1)%every == 0 {
			t := time.Now()
			if err := sys.checkpoint(); err != nil {
				wrongs[ci] = append(wrongs[ci], fmt.Sprintf("checkpoint: %v", err))
			}
			r.checkpoints = append(r.checkpoints, time.Since(t))
		}
		return d
	}

	var busyBefore int64
	if traced != nil {
		busyBefore = traced.busy.Load()
	}
	var scaledWall time.Duration
	r.wall, r.allocBytes = measure(func() {
		if scaled {
			lats[0], scaledWall = timeEach(len(lists[0]), func(k int) time.Duration { return one(0, k) })
			return
		}
		var wg sync.WaitGroup
		for ci, list := range lists {
			wg.Add(1)
			go func() {
				defer wg.Done()
				lats[ci] = make([]time.Duration, len(list))
				for k := range list {
					lats[ci][k] = one(ci, k)
				}
			}()
		}
		wg.Wait()
	})
	if scaled {
		r.wall = scaledWall
	}
	if traced != nil {
		r.fsBusy = time.Duration(traced.busy.Load() - busyBefore)
	}
	for i := range lists {
		r.lat = append(r.lat, lats[i]...)
		r.failed += fails[i]
		r.wrong = append(r.wrong, wrongs[i]...)
	}

	if sp.topo == topoCluster {
		lgen, loff := sys.leader.Server().DurablePos()
		if f := sys.fol.Follower(); f != nil {
			if fgen, foff := f.Pos(); fgen == lgen {
				r.lagBytes = loff - foff
			}
		}
		t := time.Now()
		if err := sys.checkConverged(); err != nil {
			r.wrong = append(r.wrong, err.Error())
		}
		r.converge = time.Since(t)
	}
	if len(r.wrong) == 0 {
		if err := sys.checkSelects(st); err != nil {
			r.wrong = append(r.wrong, err.Error())
		}
	}
	r.ctr = sys.counters()
	r.unacked = sys.unacked.Load()
	if len(r.wrong) == 0 {
		if err := sys.checkDurable(st, crashSeed); err != nil {
			r.wrong = append(r.wrong, err.Error())
		}
	}
	if err := sys.close(); err != nil && sys.mem == nil {
		// On MemFS the crash check has just cut the files under the
		// open server, so its closing checkpoint may fail by design.
		r.wrong = append(r.wrong, "shutdown: "+err.Error())
	}
	return r, nil
}
