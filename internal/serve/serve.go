// Package serve is the concurrent serving layer over a durable rule
// engine: a supervision loop that admits client requests into a bounded
// queue, executes them one at a time on a single worker goroutine (the
// engine is single-threaded by design), and survives the failure modes
// a long-running rule server meets in production —
//
//   - overload: deadline-aware load shedding at admission
//     (*OverloadError) and in-queue expiry (*DeadlineError);
//   - hostile rules: a per-rule circuit breaker quarantines rules that
//     repeatedly panic or livelock, with exponential-backoff half-open
//     probing, and reports the degraded-mode guarantees via the paper's
//     §7 Sig(T') analysis (see degraded.go);
//   - transient durability faults: a wedged write-ahead log is reopened
//     under bounded exponential retry, recovering the last durable point;
//   - shutdown: draining stops admission, completes queued work under a
//     deadline, checkpoints, and closes the log.
//
// Every request is a transaction: it either commits at a durable point
// or is rolled back so completely — in memory via Engine.Rollback, in
// the log via the abort record — that it never happened.
package serve

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"activerules/internal/engine"
	"activerules/internal/retry"
	"activerules/internal/rules"
	"activerules/internal/schema"
	"activerules/internal/sqlmini"
	"activerules/internal/wal"
)

// Server states, visible through Health and ClosedError.
const (
	StateRunning  = "running"
	StateDraining = "draining"
	StateClosed   = "closed"
	StateFailed   = "failed"
)

// Config configures a Server. The zero value is usable: unbounded
// deadlines, queue depth 64, quarantine after 3 consecutive attributed
// faults, probing enabled.
type Config struct {
	// WAL configures the write-ahead log (filesystem, sync policy,
	// epoch). Under the default SyncCommit a request is answered only
	// after its commit is fsynced.
	WAL wal.Options
	// Engine configures rule processing; the Journal field is
	// overwritten by the server.
	Engine engine.Options
	// QueueDepth bounds the admission queue; 0 means 64.
	QueueDepth int
	// DefaultDeadline applies to requests that carry none; 0 means no
	// deadline.
	DefaultDeadline time.Duration
	// DrainTimeout bounds Close's graceful drain; 0 means 5s.
	DrainTimeout time.Duration
	// QuarantineThreshold is the number of consecutive attributed
	// faults that trips a rule's breaker; 0 means 3.
	QuarantineThreshold int
	// DisableProbing keeps tripped breakers open forever. Deterministic
	// soaks use it so the final quarantine set is independent of
	// request interleaving.
	DisableProbing bool
	// DurableRetry shapes the WAL-reopen retry after durability faults;
	// its MaxAttempts also bounds how often a single request is
	// re-executed after losing its durable point.
	DurableRetry retry.Policy
	// Tables selects the tables of the degraded-mode report; empty
	// means every schema table.
	Tables []string
	// Tenant is the id of the tenant this server belongs to. It is
	// stamped onto every serving-layer error (*OverloadError,
	// *DeadlineError, *ClosedError) and onto the degraded-mode report,
	// so multi-tenant logs and error responses are attributable
	// end-to-end. Empty (the default) renders exactly the single-tenant
	// messages.
	Tenant string
	// Baseline, when non-nil, supplies the precomputed full-set §7
	// analysis (per-table Sig and partial confluence, termination
	// status) and MUST describe exactly this schema + rule set +
	// Tables. The tenant layer's shared analysis cache uses it so a
	// thousand tenants with identical rule sets pay for analysis once.
	// Nil (the default) computes it at construction, over the very set
	// the engine then runs.
	Baseline *Baseline
	// Now is injectable for deterministic tests; nil means time.Now.
	Now func() time.Time
}

// Request is one client transaction: optional user statements followed
// by rule processing to quiescence.
type Request struct {
	// SQL holds user statements executed before the assertion point
	// (may be empty to just run rules on the pending transition).
	SQL string
	// Deadline bounds queue wait + execution; 0 means the server
	// default, negative means none.
	Deadline time.Duration
}

// Response reports a committed request.
type Response struct {
	// Results are the user statements' results, in order.
	Results []sqlmini.StmtResult
	// Considered and Fired count rule activity at the assertion point.
	Considered, Fired int
	// FiredByRule counts action executions per rule (nil if none).
	FiredByRule map[string]int
	// RolledBack reports a rule-directed ROLLBACK: the transaction
	// aborted cleanly (that is a committed outcome, not an error).
	RolledBack bool
	// StateHash is the hex fingerprint of the durable state after the
	// request.
	StateHash string
	// Gen is the WAL generation that holds the commit.
	Gen uint64
	// Attempts is the number of execution attempts (>1 after a
	// durability-fault retry re-ran the request).
	Attempts int
}

// Health is the readiness view. Its JSON form is the wire's health body.
type Health struct {
	// State is one of the State* constants.
	State string `json:"state"`
	// Ready reports that new work is admitted.
	Ready bool `json:"ready"`
	// Degraded reports that the quarantine affects some table's
	// contents (see DegradedReport).
	Degraded bool `json:"degraded"`
	// Quarantined and Probing are Report's lists, beside it on the wire.
	Quarantined []string `json:"quarantined"`
	Probing     []string `json:"probing"`
	// Report is the current degraded-mode report (never nil); it
	// marshals as its String form.
	Report *DegradedReport `json:"report"`
}

// Stats is the counters view. Its JSON form is the wire's stats body.
type Stats struct {
	State    string `json:"state"`
	QueueLen int    `json:"queue_len"`
	QueueCap int    `json:"queue_cap"`
	// Accepted counts admitted requests; Completed and Failed partition
	// the finished ones.
	Accepted  uint64 `json:"accepted"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	// ShedOverload counts admission rejections (*OverloadError);
	// ShedDeadline counts requests shed while queued (*DeadlineError).
	ShedOverload uint64 `json:"shed_overload"`
	ShedDeadline uint64 `json:"shed_deadline"`
	// Reopens counts WAL reopen recoveries after durability faults.
	Reopens uint64 `json:"reopens"`
	// AvgService is the smoothed per-request service time feeding the
	// projected-wait admission check.
	AvgService time.Duration `json:"avg_service_ns"`
	// InFlight is 1 while the worker is executing a request, 0
	// otherwise. A server's own stats body has never carried it; only
	// the tenant view (tenant.Stats) puts it on the wire, as in_flight.
	InFlight int `json:"-"`
	// Quarantined and Probing list the breaker's open and half-open
	// rules (sorted).
	Quarantined []string `json:"quarantined"`
	Probing     []string `json:"probing"`
}

type callKind int

const (
	callAssert callKind = iota
	callCheckpoint
	callSwap
)

type callResult struct {
	resp *Response
	err  error
}

type call struct {
	kind     callKind
	req      Request
	ctx      context.Context
	enq      time.Time
	deadline time.Duration // effective; 0 means none
	done     chan callResult

	// callSwap payload: the replacement definitions with their set and
	// baseline, built on the caller's goroutine.
	swapDefs []rules.Definition
	swapSet  *rules.Set
	swapBL   *Baseline
}

// Server serializes requests onto one engine-owning worker goroutine.
// All exported methods are safe for concurrent use.
type Server struct {
	sch  *schema.Schema
	defs []rules.Definition
	dir  string
	cfg  Config
	now  func() time.Time

	queue   chan *call
	drainCh chan struct{}
	doneCh  chan struct{}

	mu           sync.Mutex
	state        string
	cause        error // wedging failure (StateFailed)
	closeErr     error
	drainStarted bool
	forceShed    bool
	busy         bool
	inflight     context.CancelFunc
	svcEWMA      time.Duration
	report       *DegradedReport
	accepted     uint64
	completed    uint64
	failedReqs   uint64
	shedOverload uint64
	shedDeadline uint64
	reopens      uint64

	// Worker-owned; never touched off the worker goroutine after New.
	dd  *wal.DurableDB
	eng *engine.Engine
	br  *breaker
	// full is defs' set, built once per New or swap: the engine runs it
	// whenever nothing is quarantined. bl is its §7 baseline.
	full *rules.Set
	bl   *Baseline
}

// New opens (or recovers) the WAL directory dir, builds the rule system
// from the schema and definitions, and starts the worker. The server is
// immediately ready.
func New(sch *schema.Schema, defs []rules.Definition, dir string, cfg Config) (*Server, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	full, bl, err := fullSet(sch, defs, cfg.Tables, cfg.Baseline)
	if err != nil {
		return nil, err
	}
	d, err := wal.Open(dir, sch, cfg.WAL)
	if err != nil {
		return nil, err
	}
	s := &Server{
		sch:     sch,
		defs:    defs,
		dir:     dir,
		cfg:     cfg,
		now:     cfg.Now,
		queue:   make(chan *call, cfg.QueueDepth),
		drainCh: make(chan struct{}),
		doneCh:  make(chan struct{}),
		state:   StateRunning,
		report:  newReport(cfg.Tenant, bl, full, nil, nil),
		full:    full,
		bl:      bl,
		br:      newBreaker(cfg.QuarantineThreshold, !cfg.DisableProbing),
	}
	if s.now == nil {
		s.now = time.Now
	}
	s.adopt(d, full)
	go s.worker()
	return s, nil
}

// adopt wires a freshly opened DurableDB: its recovered state becomes
// the engine's database (observed so mutations reach the log) and an
// engine over set is opened on it. The s.dd store is mu-guarded because
// the replication read path (replication.go) snapshots the pointer from
// other goroutines while a durability-fault reopen swaps it on the
// worker.
func (s *Server) adopt(d *wal.DurableDB, set *rules.Set) {
	s.mu.Lock()
	s.dd = d
	s.mu.Unlock()
	d.State().SetObserver(d)
	s.openEngine(set)
}

// openEngine builds the engine for set over the DurableDB's state, which
// must have no engine open on it.
func (s *Server) openEngine(set *rules.Set) {
	eopts := s.cfg.Engine
	eopts.Journal = s.dd
	s.eng = engine.New(set, s.dd.State(), eopts)
}

// install moves the engine, at a transaction boundary, onto the set the
// current quarantine leaves — the full set when nothing is quarantined,
// else one reduced set built here — and refreshes the degraded-mode
// report over that same set. The database (with its observer) is handed
// from the outgoing engine to its successor, so durable state is
// unaffected.
func (s *Server) install() {
	set, q := s.full, s.br.quarantinedNames()
	if len(q) > 0 {
		var err error
		if set, err = rules.NewSet(s.sch, rules.Without(s.defs, q...)); err != nil {
			// Cannot happen: every reduced set is a subset of the
			// validated full set with ordering references scrubbed.
			// Fail safe anyway.
			s.markFailed(fmt.Errorf("serve: reduced rule set invalid: %w", err))
			return
		}
	}
	s.eng.Close()
	s.openEngine(set)
	rep := newReport(s.cfg.Tenant, s.bl, set, q, s.br.probingNames())
	s.mu.Lock()
	s.report = rep
	s.mu.Unlock()
}

func (s *Server) markFailed(err error) {
	s.mu.Lock()
	if s.state != StateFailed {
		s.state = StateFailed
		s.cause = err
	}
	s.mu.Unlock()
}

// Submit runs one request through admission, queueing, and execution,
// blocking until the worker responds. Errors are the taxonomy in
// errors.go. ctx cancellation is honored between rule considerations;
// a cancelled request is rolled back.
func (s *Server) Submit(ctx context.Context, req Request) (*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	d := req.Deadline
	if d == 0 {
		d = s.cfg.DefaultDeadline
	}
	if d < 0 {
		d = 0
	}
	c := &call{kind: callAssert, req: req, ctx: ctx, deadline: d, done: make(chan callResult, 1)}
	if err := s.admit(c); err != nil {
		return nil, err
	}
	r := <-c.done
	return r.resp, r.err
}

// admit applies admission control to every queued call: the state check
// and the enqueue are atomic under the mutex, so nothing is admitted
// after draining begins (the worker can then drain the queue to empty
// exactly once). Only calls with a deadline — asserts — can be shed for
// their projected wait, and only asserts count as accepted.
func (s *Server) admit(c *call) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateRunning {
		return &ClosedError{Tenant: s.cfg.Tenant, State: s.state, Cause: s.cause}
	}
	qlen := len(s.queue)
	if qlen >= cap(s.queue) {
		s.shedOverload++
		return &OverloadError{Tenant: s.cfg.Tenant, Reason: OverloadQueueFull, QueueLen: qlen, QueueCap: cap(s.queue)}
	}
	if c.deadline > 0 && s.svcEWMA > 0 {
		waiting := qlen
		if s.busy {
			waiting++
		}
		if projected := time.Duration(waiting) * s.svcEWMA; projected > c.deadline {
			s.shedOverload++
			return &OverloadError{
				Tenant:        s.cfg.Tenant,
				Reason:        OverloadProjectedWait,
				QueueLen:      qlen,
				QueueCap:      cap(s.queue),
				ProjectedWait: projected,
				Deadline:      c.deadline,
			}
		}
	}
	c.enq = s.now()
	if c.kind == callAssert {
		s.accepted++
	}
	s.queue <- c // cannot block: capacity checked under the same mutex
	return nil
}

// Checkpoint commits the current state and rotates the WAL generation,
// serialized with requests on the worker (so it always runs at a
// transaction boundary).
func (s *Server) Checkpoint(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	c := &call{kind: callCheckpoint, ctx: ctx, done: make(chan callResult, 1)}
	if err := s.admit(c); err != nil {
		return err
	}
	r := <-c.done
	return r.err
}

// SwapRules hot-replaces the served rule set: the swap is queued like a
// request and installed by the worker at a transaction boundary, so no
// in-flight transaction ever sees a mixed rule set. The durable state
// (database + WAL) carries over untouched; the degraded-mode baseline is
// rebuilt for the new set; breaker state survives for rules that keep
// their name (a quarantined rule stays quarantined across the swap) and
// is dropped for rules that disappear.
//
// The new set is built here, on the caller's goroutine, so the worker
// only installs; it validates defs and is the engine's set while
// nothing is quarantined. baseline, when non-nil, must be the
// precomputed §7 baseline of exactly (schema, defs, Config.Tables); nil
// computes it here too, over that same set. Admission gating —
// deciding whether the new set's analysis verdicts are acceptable — is
// the caller's job (internal/tenant rejects or quarantines regressing
// swaps before calling this).
func (s *Server) SwapRules(ctx context.Context, defs []rules.Definition, baseline *Baseline) error {
	if ctx == nil {
		ctx = context.Background()
	}
	full, bl, err := fullSet(s.sch, defs, s.cfg.Tables, baseline)
	if err != nil {
		return err
	}
	c := &call{kind: callSwap, ctx: ctx, swapDefs: defs, swapSet: full, swapBL: bl, done: make(chan callResult, 1)}
	if err := s.admit(c); err != nil {
		return err
	}
	r := <-c.done
	return r.err
}

// Health reports state, readiness, and the degraded-mode guarantees.
func (s *Server) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Health{
		State:       s.state,
		Ready:       s.state == StateRunning,
		Degraded:    s.report.Degraded,
		Quarantined: s.report.Quarantined,
		Probing:     s.report.Probing,
		Report:      s.report,
	}
}

// Stats reports the counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	inflight := 0
	if s.busy {
		inflight = 1
	}
	return Stats{
		State:        s.state,
		QueueLen:     len(s.queue),
		QueueCap:     cap(s.queue),
		InFlight:     inflight,
		Accepted:     s.accepted,
		Completed:    s.completed,
		Failed:       s.failedReqs,
		ShedOverload: s.shedOverload,
		ShedDeadline: s.shedDeadline,
		Reopens:      s.reopens,
		AvgService:   s.svcEWMA,
		Quarantined:  append([]string(nil), s.report.Quarantined...),
		Probing:      append([]string(nil), s.report.Probing...),
	}
}

// HealthView and StatsView make a Server a Service.
func (s *Server) HealthView() any { return s.Health() }
func (s *Server) StatsView() any  { return s.Stats() }

// Shutdown drains gracefully: admission stops immediately (readiness
// flips), queued and in-flight requests complete, a final checkpoint
// makes the state durable, and the WAL closes. When ctx expires first,
// the in-flight request is cancelled at its next consideration boundary
// and the remaining queue is shed with *ClosedError — the durable state
// stays consistent either way (shed work simply never happened).
// Shutdown returns the close error (nil on a clean drain) and is safe
// to call concurrently and repeatedly.
func (s *Server) Shutdown(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	if !s.drainStarted {
		s.drainStarted = true
		if s.state == StateRunning {
			s.state = StateDraining
		}
		close(s.drainCh)
	}
	s.mu.Unlock()

	// Watchdog: when the drain deadline passes, shed the queue and
	// cancel the in-flight request so the drain stays bounded.
	stop := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			s.mu.Lock()
			s.forceShed = true
			cancel := s.inflight
			s.mu.Unlock()
			if cancel != nil {
				cancel()
			}
		case <-stop:
		}
	}()
	<-s.doneCh
	close(stop)

	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeErr
}

// Close is Shutdown bounded by Config.DrainTimeout.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	return s.Shutdown(ctx)
}

// worker owns the engine: it executes queued calls one at a time until
// drain begins, then finalizes.
func (s *Server) worker() {
	for {
		select {
		case c := <-s.queue:
			s.handle(c)
		case <-s.drainCh:
			s.finalize()
			return
		}
	}
}

// finalize drains the remaining queue (executing, or shedding once the
// drain deadline forced it), writes the final durable point, and closes
// the log.
func (s *Server) finalize() {
	for {
		select {
		case c := <-s.queue:
			s.mu.Lock()
			shed := s.forceShed
			s.mu.Unlock()
			if shed {
				c.done <- callResult{err: &ClosedError{Tenant: s.cfg.Tenant, State: StateDraining}}
				continue
			}
			s.handle(c)
		default:
			goto drained
		}
	}
drained:
	s.mu.Lock()
	failed := s.state == StateFailed
	cause := s.cause
	s.mu.Unlock()
	var closeErr error
	if failed {
		closeErr = cause
	} else {
		// Final durable point: commit and checkpoint so the next open
		// recovers from a snapshot instead of replaying the log.
		if err := s.eng.Commit(); err != nil {
			closeErr = err
		} else if err := s.dd.Checkpoint(s.eng.DB()); err != nil {
			closeErr = err
		}
	}
	if err := s.dd.Close(); err != nil && closeErr == nil {
		closeErr = err
	}
	s.mu.Lock()
	if s.state != StateFailed {
		s.state = StateClosed
	}
	s.closeErr = closeErr
	s.mu.Unlock()
	close(s.doneCh)
}

// handle runs one queued call to completion and responds on its done
// channel.
func (s *Server) handle(c *call) {
	if c.kind == callCheckpoint {
		c.done <- callResult{err: s.doCheckpoint()}
		return
	}
	if c.kind == callSwap {
		c.done <- callResult{err: s.doSwap(c)}
		return
	}
	now := s.now()
	s.mu.Lock()
	shed := s.forceShed
	failedState := s.state == StateFailed
	cause := s.cause
	s.mu.Unlock()
	if failedState {
		c.done <- callResult{err: &ClosedError{Tenant: s.cfg.Tenant, State: StateFailed, Cause: cause}}
		return
	}
	if shed {
		c.done <- callResult{err: &ClosedError{Tenant: s.cfg.Tenant, State: StateDraining}}
		return
	}
	// Shed expired work before it takes the execution slot.
	waited := now.Sub(c.enq)
	if c.deadline > 0 && waited >= c.deadline {
		s.mu.Lock()
		s.shedDeadline++
		s.mu.Unlock()
		c.done <- callResult{err: &DeadlineError{Tenant: s.cfg.Tenant, Waited: waited}}
		return
	}
	if cerr := c.ctx.Err(); cerr != nil {
		c.done <- callResult{err: &engine.CancelledError{Cause: cerr}}
		return
	}
	// Readmit quarantined rules whose probe time arrived (half-open).
	if probes := s.br.dueProbes(now); len(probes) != 0 {
		s.install()
	}

	// Execution context: the caller's, bounded by the remaining
	// deadline, cancellable by the drain watchdog.
	ctx, cancel := context.WithCancel(c.ctx)
	if c.deadline > 0 {
		var dcancel context.CancelFunc
		ctx, dcancel = context.WithTimeout(ctx, c.deadline-waited)
		defer dcancel()
	}
	s.mu.Lock()
	s.inflight = cancel
	s.busy = true
	s.mu.Unlock()
	start := s.now()
	resp, err := s.executeRequest(ctx, c.req)
	cancel()
	elapsed := s.now().Sub(start)

	s.mu.Lock()
	s.inflight = nil
	s.busy = false
	if s.svcEWMA == 0 {
		s.svcEWMA = elapsed
	} else {
		s.svcEWMA = (4*s.svcEWMA + elapsed) / 5
	}
	if err == nil {
		s.completed++
	} else {
		s.failedReqs++
	}
	s.mu.Unlock()

	// Breaker accounting at the (already re-fenced) boundary.
	if err == nil {
		if restored := s.br.noteSuccess(resp.FiredByRule); len(restored) != 0 {
			s.install()
		}
	} else if indicted := attribute(err); len(indicted) != 0 {
		if s.br.noteFault(indicted, s.now()) {
			s.install()
		}
	}
	c.done <- callResult{resp: resp, err: err}
}

// executeRequest is the transient-fault boundary: when an attempt
// wedges the WAL, the log is reopened (recovering the last durable
// point — the attempt's effects are discarded) and, if the request had
// not failed on its own merits, it is re-executed from scratch. Total
// attempts are bounded by DurableRetry.MaxAttempts.
func (s *Server) executeRequest(ctx context.Context, req Request) (*Response, error) {
	maxAttempts := s.cfg.DurableRetry.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 3
	}
	for try := 1; ; try++ {
		resp, execErr, durErr := s.executeOnce(ctx, req)
		if durErr == nil {
			if resp != nil {
				resp.Attempts = try
			}
			return resp, execErr
		}
		if rerr := s.reopen(); rerr != nil {
			return nil, &ClosedError{Tenant: s.cfg.Tenant, State: StateFailed, Cause: rerr}
		}
		if execErr != nil {
			// The request failed deterministically (panic, livelock,
			// SQL error) and additionally damaged the log while rolling
			// back; the log is repaired, the failure stands.
			return nil, execErr
		}
		if try >= maxAttempts {
			return nil, durErr
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, &engine.CancelledError{Cause: cerr}
		}
	}
}

// executeOnce runs one attempt. execErr is the request's own failure
// (engine taxonomy; the request has been rolled back and the journal
// re-fenced). durErr reports durable damage — the WAL rejected a
// boundary record and is now sticky-failed — whether or not the request
// itself also failed.
func (s *Server) executeOnce(ctx context.Context, req Request) (resp *Response, execErr, durErr error) {
	var results []sqlmini.StmtResult
	if req.SQL != "" {
		out, err := s.eng.ExecUser(req.SQL)
		if err != nil {
			if isDurability(err) {
				return nil, nil, err
			}
			return nil, err, s.fence()
		}
		results = out
	}
	res, err := s.eng.AssertContext(ctx)
	if err != nil {
		if isDurability(err) {
			return nil, nil, err
		}
		return nil, err, s.fence()
	}
	// Success — including a rule-directed ROLLBACK, which the engine
	// already aborted cleanly. Commit the request boundary: the engine
	// transaction advances and the journal gains a commit + begin fence,
	// so the NEXT request's abort reverts only itself.
	if err := s.eng.Commit(); err != nil {
		return nil, nil, err
	}
	fp := s.eng.DB().Fingerprint()
	return &Response{
		Results:     results,
		Considered:  res.Considered,
		Fired:       res.Fired,
		FiredByRule: res.FiredByRule,
		RolledBack:  res.RolledBack,
		StateHash:   hex.EncodeToString(fp[:]),
		Gen:         s.dd.Gen(),
	}, nil, nil
}

// fence rolls the failed request back and re-establishes the journal
// fence (commit + begin) so the next request aborts only to its own
// begin. It returns any durable damage met along the way; the in-memory
// engine is consistent regardless.
func (s *Server) fence() error {
	if err := s.eng.Rollback(); err != nil {
		return err
	}
	return s.eng.Commit()
}

// doSwap installs a swap call's rule set on the worker, between
// transactions: new definitions, set and baseline, breaker state
// retained only for surviving rule names, engine rebuilt over the same
// database (and journal), report refreshed.
func (s *Server) doSwap(c *call) error {
	s.br.retain(c.swapDefs)
	s.defs, s.full, s.bl = c.swapDefs, c.swapSet, c.swapBL
	s.install()
	s.mu.Lock()
	failed := s.state == StateFailed
	cause := s.cause
	s.mu.Unlock()
	if failed {
		return &ClosedError{Tenant: s.cfg.Tenant, State: StateFailed, Cause: cause}
	}
	return nil
}

// doCheckpoint runs on the worker at a transaction boundary.
func (s *Server) doCheckpoint() error {
	if err := s.eng.Commit(); err != nil {
		if rerr := s.reopen(); rerr != nil {
			return &ClosedError{Tenant: s.cfg.Tenant, State: StateFailed, Cause: rerr}
		}
		return err
	}
	if err := s.dd.Checkpoint(s.eng.DB()); err != nil {
		if rerr := s.reopen(); rerr != nil {
			return &ClosedError{Tenant: s.cfg.Tenant, State: StateFailed, Cause: rerr}
		}
		return err
	}
	return nil
}

// reopen recovers from a wedged WAL: close the handle, reopen the
// directory under bounded exponential retry (recovery discards the
// uncommitted tail, landing exactly on the last durable point), and
// rebuild the engine over the recovered state. An unrecoverable
// directory — or exhausting the retry budget — fails the server.
// A fence is equally terminal: a deposed leader must fail, not
// silently reopen past the epoch that deposed it (Config.WAL.Epoch
// pins the server's claim, so Open itself refuses the stale epoch).
// Reopen is server-level repair, so it deliberately ignores the
// triggering request's context.
func (s *Server) reopen() error {
	_ = s.dd.Close()
	set := s.eng.Set()
	err := retry.Do(context.Background(), s.cfg.DurableRetry,
		func(err error) bool {
			return !errors.Is(err, wal.ErrUnrecoverable) && !errors.Is(err, wal.ErrFenced)
		},
		func() error {
			d, err := wal.Open(s.dir, s.sch, s.cfg.WAL)
			if err != nil {
				return err
			}
			s.adopt(d, set)
			return nil
		})
	if err != nil {
		s.markFailed(err)
		return err
	}
	s.mu.Lock()
	s.reopens++
	s.mu.Unlock()
	return nil
}

func isDurability(err error) bool {
	var de *engine.DurabilityError
	return errors.As(err, &de)
}
