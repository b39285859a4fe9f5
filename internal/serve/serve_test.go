package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"activerules/internal/engine"
	"activerules/internal/faultinject"
	"activerules/internal/retry"
	"activerules/internal/ruledef"
	"activerules/internal/rules"
	"activerules/internal/schema"
	"activerules/internal/storage"
	"activerules/internal/wal"
)

func mkSystem(t testing.TB, schemaSrc, rulesSrc string) (*schema.Schema, []rules.Definition) {
	t.Helper()
	sch := schema.MustParse(schemaSrc)
	defs, err := ruledef.Parse(rulesSrc)
	if err != nil {
		t.Fatal(err)
	}
	return sch, defs
}

const basicSchema = `
table t (v int)
table u (v int)
`

const basicRules = `
create rule copy on t
when inserted
then insert into u select v from inserted
`

// fakeClock is an injectable Now for deterministic queue-wait and
// probe-time tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// gate blocks the engine's first mutation per request until released,
// so tests can hold the worker busy at a known point.
type gate struct {
	entered chan struct{} // one signal per blocked request
	release chan struct{} // one receive unblocks one request
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}, 16), release: make(chan struct{})}
}

func (g *gate) wrap(m engine.Mutator) engine.Mutator { return &gatedMutator{g: g, m: m} }

type gatedMutator struct {
	g *gate
	m engine.Mutator
}

func (gm *gatedMutator) hold() {
	gm.g.entered <- struct{}{}
	<-gm.g.release
}

func (gm *gatedMutator) Insert(tb string, rows [][]storage.Value) (int, error) {
	gm.hold()
	return gm.m.Insert(tb, rows)
}
func (gm *gatedMutator) Delete(tb string, ids []storage.TupleID) error {
	gm.hold()
	return gm.m.Delete(tb, ids)
}
func (gm *gatedMutator) Update(tb string, cols []string, ids []storage.TupleID, vals []storage.Value) error {
	gm.hold()
	return gm.m.Update(tb, cols, ids, vals)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *wal.MemFS) {
	t.Helper()
	sch, defs := mkSystem(t, basicSchema, basicRules)
	fsys := wal.NewMemFS()
	cfg.WAL.FS = fsys
	s, err := New(sch, defs, "wal", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, fsys
}

func TestSubmitCommitsDurably(t *testing.T) {
	s, fsys := newTestServer(t, Config{})
	resp, err := s.Submit(context.Background(), Request{SQL: "insert into t values (1)"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Fired != 1 || resp.FiredByRule["copy"] != 1 {
		t.Errorf("Fired=%d FiredByRule=%v, want the copy rule to fire once", resp.Fired, resp.FiredByRule)
	}
	if resp.Attempts != 1 {
		t.Errorf("Attempts = %d, want 1", resp.Attempts)
	}
	if resp.StateHash == "" {
		t.Error("empty StateHash")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The committed request survives: recover the directory read-only.
	sch := schema.MustParse(basicSchema)
	db, _, err := wal.Recover("wal", sch, fsys)
	if err != nil {
		t.Fatal(err)
	}
	if db.Table("t").Len() != 1 || db.Table("u").Len() != 1 {
		t.Errorf("recovered t=%d u=%d, want 1/1", db.Table("t").Len(), db.Table("u").Len())
	}
}

func TestRuleRollbackIsACommittedOutcome(t *testing.T) {
	sch, defs := mkSystem(t, basicSchema, `
create rule veto on t
when inserted
then rollback
`)
	s, err := New(sch, defs, "wal", Config{WAL: wal.Options{FS: wal.NewMemFS()}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := s.Submit(context.Background(), Request{SQL: "insert into t values (1)"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.RolledBack {
		t.Error("RolledBack = false, want true")
	}
	// The veto undid the insert.
	resp2, err := s.Submit(context.Background(), Request{})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.RolledBack {
		t.Error("empty request rolled back")
	}
}

func TestQueueFullOverload(t *testing.T) {
	g := newGate()
	s, _ := newTestServer(t, Config{
		QueueDepth: 2,
		Engine:     engine.Options{WrapMutator: g.wrap},
	})

	var wg sync.WaitGroup
	submit := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), Request{SQL: "insert into t values (1)"}); err != nil {
				t.Errorf("blocked submit failed: %v", err)
			}
		}()
	}
	submit() // A: occupies the worker, blocked at the gate
	<-g.entered
	submit() // B, C: fill the queue
	submit()
	waitFor(t, func() bool { return s.Stats().QueueLen == 2 })

	_, err := s.Submit(context.Background(), Request{SQL: "insert into t values (9)"})
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != OverloadQueueFull {
		t.Fatalf("Submit on full queue = %v, want *OverloadError(queue-full)", err)
	}
	if oe.QueueLen != 2 || oe.QueueCap != 2 {
		t.Errorf("queue %d/%d, want 2/2", oe.QueueLen, oe.QueueCap)
	}
	// A checkpoint queues like a request and is shed the same way.
	err = s.Checkpoint(context.Background())
	if !errors.As(err, &oe) || oe.Reason != OverloadQueueFull {
		t.Fatalf("Checkpoint on full queue = %v, want *OverloadError(queue-full)", err)
	}

	close(g.release) // let everything through
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.ShedOverload != 2 || st.Accepted != 3 || st.Completed != 3 {
		t.Errorf("ShedOverload=%d Accepted=%d Completed=%d, want 2, 3, 3", st.ShedOverload, st.Accepted, st.Completed)
	}
}

func TestProjectedWaitShedsAtAdmission(t *testing.T) {
	g := newGate()
	s, _ := newTestServer(t, Config{Engine: engine.Options{WrapMutator: g.wrap}})

	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), Request{SQL: "insert into t values (1)"})
		done <- err
	}()
	<-g.entered // worker busy
	s.mu.Lock()
	s.svcEWMA = time.Second // pretend requests take 1s each
	s.mu.Unlock()

	_, err := s.Submit(context.Background(), Request{SQL: "insert into t values (2)", Deadline: 100 * time.Millisecond})
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != OverloadProjectedWait {
		t.Fatalf("Submit = %v, want *OverloadError(projected-wait)", err)
	}
	if oe.ProjectedWait != time.Second || oe.Deadline != 100*time.Millisecond {
		t.Errorf("ProjectedWait=%v Deadline=%v", oe.ProjectedWait, oe.Deadline)
	}

	// A request without a deadline is not shed by projection.
	go func() { _, _ = s.Submit(context.Background(), Request{}) }()
	waitFor(t, func() bool { return s.Stats().QueueLen == 1 })

	close(g.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestExpiredInQueueShedsWithoutExecuting(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	g := newGate()
	s, fsys := newTestServer(t, Config{
		Now:    clk.Now,
		Engine: engine.Options{WrapMutator: g.wrap},
	})

	blocked := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), Request{SQL: "insert into t values (1)"})
		blocked <- err
	}()
	<-g.entered

	// B enqueues with a 20ms deadline, then ages past it in the queue.
	shed := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), Request{SQL: "insert into t values (99)", Deadline: 20 * time.Millisecond})
		shed <- err
	}()
	waitFor(t, func() bool { return s.Stats().QueueLen == 1 })
	clk.Advance(50 * time.Millisecond)

	close(g.release) // A proceeds; B is then dequeued, already expired
	if err := <-blocked; err != nil {
		t.Fatalf("A failed: %v", err)
	}
	err := <-shed
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("B = %v, want *DeadlineError", err)
	}
	if de.Waited < 20*time.Millisecond {
		t.Errorf("Waited = %v, want >= deadline", de.Waited)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.ShedDeadline != 1 {
		t.Errorf("ShedDeadline = %d, want 1", st.ShedDeadline)
	}

	// B never executed: the durable state has A's row but not 99.
	sch := schema.MustParse(basicSchema)
	db, _, err := wal.Recover("wal", sch, fsys)
	if err != nil {
		t.Fatal(err)
	}
	if db.Table("t").Len() != 1 {
		t.Errorf("recovered t has %d rows, want 1 (the shed request must not run)", db.Table("t").Len())
	}
}

// Quarantine system: the hostile rule copies t into poison, where the
// fault injector panics on every mutation.
const quarantineSchema = `
table t (v int)
table poison (v int)
table audit (v int)
`

const quarantineRules = `
create rule hostile on t
when inserted
then insert into poison select v from inserted

create rule audit on t
when inserted
then insert into audit select v from inserted
`

func newQuarantineServer(t *testing.T, cfg Config) (*Server, *faultinject.Injector) {
	t.Helper()
	sch, defs := mkSystem(t, quarantineSchema, quarantineRules)
	in := faultinject.New(faultinject.Config{PanicTable: "poison"})
	cfg.WAL.FS = wal.NewMemFS()
	cfg.Engine.WrapMutator = in.Wrap
	s, err := New(sch, defs, "wal", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, in
}

func TestQuarantineTripsAndDegrades(t *testing.T) {
	s, _ := newQuarantineServer(t, Config{QuarantineThreshold: 2, DisableProbing: true})
	defer s.Close()
	ctx := context.Background()

	// Two consecutive panics attribute to the hostile rule and trip it.
	for i := 0; i < 2; i++ {
		_, err := s.Submit(ctx, Request{SQL: "insert into t values (1)"})
		var xe *engine.ExecError
		if !errors.As(err, &xe) || xe.Rule != "hostile" {
			t.Fatalf("attempt %d = %v, want *ExecError from hostile", i, err)
		}
	}
	h := s.Health()
	if got := h.Report.Quarantined; len(got) != 1 || got[0] != "hostile" {
		t.Fatalf("Quarantined = %v, want [hostile]", got)
	}
	if !h.Degraded {
		t.Error("Degraded = false: hostile is significant for poison")
	}

	// Degraded-mode guarantees: poison is affected, t and audit are not.
	byTable := map[string]TableGuarantee{}
	for _, g := range h.Report.Tables {
		byTable[g.Table] = g
	}
	if byTable["poison"].Unaffected {
		t.Error("poison marked unaffected despite quarantining its writer")
	}
	if !byTable["audit"].Unaffected || !byTable["t"].Unaffected {
		t.Errorf("audit/t should be unaffected: %+v", h.Report.Tables)
	}

	// Service continues without the hostile rule: same request now
	// commits, and the audit rule still fires.
	resp, err := s.Submit(ctx, Request{SQL: "insert into t values (2)"})
	if err != nil {
		t.Fatalf("post-quarantine submit: %v", err)
	}
	if resp.FiredByRule["audit"] != 1 || resp.FiredByRule["hostile"] != 0 {
		t.Errorf("FiredByRule = %v, want audit only", resp.FiredByRule)
	}

	// The report is deterministic: rendering twice is byte-identical.
	if a, b := s.Health().Report.String(), s.Health().Report.String(); a != b {
		t.Error("report rendering is not stable")
	}
	if !strings.Contains(h.Report.String(), "table poison: DEGRADED") {
		t.Errorf("report missing degraded line:\n%s", h.Report.String())
	}
}

// TestQuarantineMixedCaseRuleName: a programmatically defined rule keeps
// the case it was given, while the engine (and so the breaker) reports
// the name NewSet normalized. Quarantine must deactivate the rule, scrub
// priority references to it, and survive a name-preserving swap all the
// same.
func TestQuarantineMixedCaseRuleName(t *testing.T) {
	sch, defs := mkSystem(t, quarantineSchema, quarantineRules)
	defs[0].Name = "Hostile"
	defs[1].Follows = []string{" HOSTILE"}
	in := faultinject.New(faultinject.Config{PanicTable: "poison"})
	s, err := New(sch, defs, "wal", Config{
		WAL:                 wal.Options{FS: wal.NewMemFS()},
		Engine:              engine.Options{WrapMutator: in.Wrap},
		QuarantineThreshold: 2,
		DisableProbing:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		_, err := s.Submit(ctx, Request{SQL: "insert into t values (1)"})
		var xe *engine.ExecError
		if !errors.As(err, &xe) || xe.Rule != "hostile" {
			t.Fatalf("attempt %d = %v, want *ExecError from hostile", i, err)
		}
	}
	serves := func(when string) {
		t.Helper()
		if got := s.Health().Report.Quarantined; len(got) != 1 || got[0] != "hostile" {
			t.Fatalf("%s: Quarantined = %v, want [hostile]", when, got)
		}
		resp, err := s.Submit(ctx, Request{SQL: "insert into t values (2)"})
		if err != nil {
			t.Fatalf("%s: the quarantined rule still runs: %v", when, err)
		}
		if resp.FiredByRule["audit"] != 1 || resp.FiredByRule["hostile"] != 0 {
			t.Errorf("%s: FiredByRule = %v, want audit only", when, resp.FiredByRule)
		}
	}
	serves("after the trip")
	if err := s.SwapRules(ctx, defs, nil); err != nil {
		t.Fatal(err)
	}
	serves("after a name-preserving swap")
}

func TestQuarantineProbeReopensAndRecovers(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	s, in := newQuarantineServer(t, Config{
		QuarantineThreshold: 1,
		Now:                 clk.Now,
	})
	defer s.Close()
	ctx := context.Background()

	// Trip on the first fault (threshold 1).
	if _, err := s.Submit(ctx, Request{SQL: "insert into t values (1)"}); err == nil {
		t.Fatal("expected panic-driven failure")
	}
	if q := s.Health().Report.Quarantined; len(q) != 1 {
		t.Fatalf("Quarantined = %v", q)
	}

	// Before the probe time, the rule stays out: requests commit.
	if _, err := s.Submit(ctx, Request{SQL: "insert into t values (2)"}); err != nil {
		t.Fatal(err)
	}

	// Past the probe time the rule is readmitted half-open; it is still
	// hostile, so the probe fails and the breaker re-opens with the
	// next backoff (20ms).
	clk.Advance(11 * time.Millisecond)
	if _, err := s.Submit(ctx, Request{SQL: "insert into t values (3)"}); err == nil {
		t.Fatal("probe of a still-hostile rule should fail")
	}
	if q := s.Health().Report.Quarantined; len(q) != 1 {
		t.Fatalf("breaker should re-open, Quarantined = %v", q)
	}

	// The rule is cured (injector disarmed); the next due probe fires
	// it successfully and the breaker closes.
	clk.Advance(21 * time.Millisecond)
	in.Disarm()
	resp, err := s.Submit(ctx, Request{SQL: "insert into t values (4)"})
	if err != nil {
		t.Fatalf("curing probe: %v", err)
	}
	if resp.FiredByRule["hostile"] != 1 {
		t.Errorf("FiredByRule = %v, want hostile restored and firing", resp.FiredByRule)
	}
	h := s.Health()
	if len(h.Report.Quarantined) != 0 || h.Degraded {
		t.Errorf("breaker should close after a successful probe: %+v", h.Report)
	}
}

func TestDurabilityFaultReopensAndRetries(t *testing.T) {
	sch, defs := mkSystem(t, basicSchema, basicRules)

	// Probe run: count the fs operations server open consumes, so the
	// fault can be aimed at the first request's log writes.
	probe := faultinject.New(faultinject.Config{})
	ps, err := New(sch, defs, "wal", Config{WAL: wal.Options{FS: probe.WrapFS(wal.NewMemFS())}})
	if err != nil {
		t.Fatal(err)
	}
	openCalls := probe.FSCalls()
	_ = ps.Close()

	in := faultinject.New(faultinject.Config{FSFailAt: openCalls + 1})
	s, err := New(sch, defs, "wal", Config{
		WAL:          wal.Options{FS: in.WrapFS(wal.NewMemFS())},
		DurableRetry: retry.Policy{Initial: time.Microsecond, MaxAttempts: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Submit(context.Background(), Request{SQL: "insert into t values (1)"})
	if err != nil {
		t.Fatalf("Submit should survive one transient fs fault: %v", err)
	}
	if resp.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2 (one durability retry)", resp.Attempts)
	}
	if st := s.Stats(); st.Reopens != 1 {
		t.Errorf("Reopens = %d, want 1", st.Reopens)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestGracefulDrainCompletesQueuedWork(t *testing.T) {
	g := newGate()
	s, fsys := newTestServer(t, Config{Engine: engine.Options{WrapMutator: g.wrap}})

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), Request{SQL: "insert into t values (1)"}); err != nil {
				t.Errorf("queued submit failed during graceful drain: %v", err)
			}
		}()
	}
	<-g.entered
	waitFor(t, func() bool { return s.Stats().QueueLen == 2 })

	drained := make(chan error, 1)
	go func() { drained <- s.Shutdown(context.Background()) }()
	// Readiness flips immediately: new work is refused while queued
	// work still completes.
	waitFor(t, func() bool { return !s.Health().Ready })
	if _, err := s.Submit(context.Background(), Request{SQL: "insert into t values (9)"}); err == nil {
		t.Fatal("Submit after drain start should fail")
	} else {
		var ce *ClosedError
		if !errors.As(err, &ce) || ce.State != StateDraining {
			t.Fatalf("Submit = %v, want *ClosedError(draining)", err)
		}
	}

	close(g.release)
	wg.Wait()
	if err := <-drained; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st := s.Health().State; st != StateClosed {
		t.Errorf("state = %s, want closed", st)
	}

	// All three committed and the final checkpoint landed.
	sch := schema.MustParse(basicSchema)
	db, info, err := wal.Recover("wal", sch, fsys)
	if err != nil {
		t.Fatal(err)
	}
	if db.Table("t").Len() != 3 {
		t.Errorf("recovered t=%d, want 3", db.Table("t").Len())
	}
	if info.Gen < 1 {
		t.Errorf("final checkpoint should rotate the generation, gen=%d", info.Gen)
	}
}

func TestDrainDeadlineShedsQueue(t *testing.T) {
	g := newGate()
	s, fsys := newTestServer(t, Config{Engine: engine.Options{WrapMutator: g.wrap}})

	inFlight := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), Request{SQL: "insert into t values (1)"})
		inFlight <- err
	}()
	<-g.entered
	queued := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), Request{SQL: "insert into t values (2)"})
		queued <- err
	}()
	waitFor(t, func() bool { return s.Stats().QueueLen == 1 })

	// The drain deadline has already passed: the watchdog cancels the
	// in-flight request and sheds the queue, but the drain still only
	// completes once the worker reaches a cancellation point.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Shutdown(ctx) }()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.forceShed
	})
	close(g.release)

	if err := <-drained; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	var ce *engine.CancelledError
	if err := <-inFlight; !errors.As(err, &ce) {
		t.Errorf("in-flight = %v, want *CancelledError", err)
	}
	var cle *ClosedError
	if err := <-queued; !errors.As(err, &cle) {
		t.Errorf("queued = %v, want *ClosedError", err)
	}

	// Neither request's effects are durable; the state is still a
	// consistent durable point (the final checkpoint of an empty tail).
	sch := schema.MustParse(basicSchema)
	db, _, err := wal.Recover("wal", sch, fsys)
	if err != nil {
		t.Fatal(err)
	}
	if db.Table("t").Len() != 0 {
		t.Errorf("recovered t=%d, want 0 (shed work never happened)", db.Table("t").Len())
	}
}

func TestSubmitDeadlineCancelsExecution(t *testing.T) {
	// A livelocking rule burns the step budget; a short deadline stops
	// it at a consideration boundary, and the request is rolled back.
	sch, defs := mkSystem(t, "table t (v int)", `
create rule spin on t
when inserted
then insert into t values (1)
`)
	s, err := New(sch, defs, "wal", Config{
		WAL:    wal.Options{FS: wal.NewMemFS()},
		Engine: engine.Options{MaxSteps: 1 << 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, err = s.Submit(context.Background(), Request{SQL: "insert into t values (0)", Deadline: 30 * time.Millisecond})
	var ce *engine.CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("Submit = %v, want *CancelledError", err)
	}
	// The server is healthy and the next request commits.
	resp, err := s.Submit(context.Background(), Request{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Considered != 0 {
		t.Errorf("Considered = %d after rollback, want 0", resp.Considered)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
