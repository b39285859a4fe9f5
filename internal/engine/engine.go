// Package engine executes Starburst rule processing with the exact
// semantics of Section 2 of the paper: net-effect transitions, transition
// tables, rule assertion points, priority-constrained choice among
// triggered rules, per-rule "transition since last considered"
// bookkeeping, untriggering, and rollback.
//
// The engine is the execution-time counterpart of the static analyzer: it
// is used by examples and by the execution-graph model checker
// (internal/execgraph) that provides ground truth for the analyzer's
// conservative verdicts.
package engine

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/bits"
	"runtime/debug"

	"activerules/internal/compile"
	"activerules/internal/rules"
	"activerules/internal/sqlmini"
	"activerules/internal/storage"
	"activerules/internal/transition"
)

// ErrMaxSteps is returned by Assert when rule processing exceeds the
// configured step budget, the runtime symptom of a (potentially)
// nonterminating rule set.
var ErrMaxSteps error = budgetError{}

// budgetError is ErrMaxSteps's type: a comparable value, so == and
// errors.Is (and LivelockError.Is) keep working, that carries its wire
// code like the rest of the taxonomy (errors.go).
type budgetError struct{}

func (budgetError) Error() string {
	return "engine: rule processing exceeded the step budget (possible nontermination)"
}

// ObservableEvent is one environment-visible action (Section 3:
// Observable): a data retrieval or a rollback, in execution order.
type ObservableEvent struct {
	Rule      string
	Statement string
	Rows      [][]storage.Value // SELECT results; nil for rollback
	Rollback  bool
}

// String renders the event compactly for logs and comparisons.
func (ev ObservableEvent) String() string {
	if ev.Rollback {
		return ev.Rule + ": rollback"
	}
	out := ev.Rule + ": " + ev.Statement + " ->"
	for _, row := range ev.Rows {
		out += " ("
		for i, v := range row {
			if i > 0 {
				out += ","
			}
			out += v.String()
		}
		out += ")"
	}
	return out
}

// Result summarizes one rule-processing run at an assertion point.
type Result struct {
	Considered  int  // rule considerations (condition evaluations)
	Fired       int  // actions executed (condition held)
	RolledBack  bool // a rollback action aborted the transaction
	Observables []ObservableEvent
	// FiredByRule counts action executions per rule, for profiling and
	// reports; nil when nothing fired.
	FiredByRule map[string]int
}

// Mutator receives the data modifications of statement execution, one
// call per statement (re-exported from sqlmini so fault-injection
// wrappers can be threaded through Options without importing the SQL
// layer).
type Mutator = sqlmini.Mutator

// Options configure an Engine.
type Options struct {
	// MaxSteps bounds the number of rule considerations per assertion
	// point; 0 means the default of 10000.
	MaxSteps int
	// Strategy picks among eligible rules; nil means FirstByName, the
	// deterministic default.
	Strategy Strategy
	// Trace, when non-nil, receives one TraceEvent per processing step.
	Trace func(TraceEvent)
	// WrapMutator, when non-nil, wraps the engine's recording mutator for
	// every user script and rule action — the seam for deterministic
	// fault injection (internal/faultinject). The wrapper sees exactly
	// the statements that change rows, each with all its rows.
	WrapMutator func(Mutator) Mutator
	// Interpret selects the reference interpreter, the oracle the
	// differential tests compare the compiled program against. By
	// default rule conditions and actions run as closures compiled once
	// per rule set (internal/compile), ExecUser's texts as closures
	// compiled once per token key, and triggered-rule discovery is
	// delta-driven: mutations mark candidate rules through a
	// per-(table, op-kind) index. With Interpret, sqlmini.Evaluator runs
	// all of it. The two are observably identical.
	Interpret bool
	// Deprecated: ignored; every engine compiles unless Interpret is set.
	Compiled bool
	// Journal, when non-nil, receives transaction boundaries for
	// write-ahead logging (internal/wal): Commit at every quiescent
	// assertion point and from Engine.Commit (followed by Begin), Abort
	// when a rollback action fires. Mutation-level records flow
	// separately, through the database's storage.Observer hook. A
	// journal failure surfaces as a *DurabilityError; the in-memory
	// state is unaffected. Clone never propagates the journal: explorer
	// forks are speculative and must not write durable records.
	Journal Journal
}

// Journal receives transaction boundaries for durable logging. All
// methods may be called only between considerations; implementations
// need not be safe for concurrent use (the engine is single-threaded).
type Journal interface {
	// Begin marks a new engine-transaction start: the point a later
	// Abort rolls back to.
	Begin() error
	// Commit marks a durable point: everything logged since the previous
	// durable point must survive a crash.
	Commit() error
	// Abort marks a rollback action: the durable state reverts to the
	// last Begin.
	Abort() error
}

// livelockWindow is the number of final budget steps (all of them, when
// MaxSteps is smaller) during which AssertContext tracks state
// recurrence to upgrade ErrMaxSteps into a *LivelockError with a
// concrete witness cycle. Tracking costs one state fingerprint per step,
// which is why it only runs under budget pressure.
const livelockWindow = 256

// Engine processes rules against a database. It is single-threaded.
type Engine struct {
	set  *rules.Set
	db   *storage.DB
	opts Options

	// The history of the open transaction is the database's own
	// (storage.DB.History): the engine records nothing beside it.
	// marks[i] is the history position up to which rule i has processed
	// the transition (Section 2): its transition predicate is evaluated
	// over the net effect of the history suffix from marks[i].
	marks []int

	// tabs[i] is rule i's table in db, bound once (and again in a fork,
	// which has tables of its own) so that the per-rule, per-step reads
	// of a table's last change hash no name.
	tabs []*storage.Table

	// memo[i] is rule i's memoized pending net (see pendingNet).
	memo []pendingMemo

	// tx is the storage savepoint taken at transaction start: rollback
	// is RollbackTo(tx), Commit releases it, and each takes the next.
	tx storage.Savepoint

	// assertStart is the history position where the current assertion
	// point's initial transition began.
	assertStart int

	// inFlight is true while rule processing at an assertion point is
	// suspended by an error or cancellation: marks are mid-flight and the
	// next Assert/AssertContext resumes instead of re-seeing the
	// transition from assertStart.
	inFlight bool

	// prog and cand are set unless Options.Interpret: the set's compiled
	// closures (shared, immutable) and this engine's candidate bitset for
	// delta-driven triggering.
	prog *compile.Program
	cand *compile.Candidates

	// every is the scan's rule set in interpreted mode, which has no
	// candidates: every rule of the set, as candidate words (Words).
	every rules.Bits

	// user runs ExecUser's texts compiled once per token key; made on
	// the first ExecUser of a compiled engine, and never shared with a
	// fork.
	user *compile.UserCache

	// Scratch of the firing loop, reused from step to step and never
	// shared (Clone gives a fork empty scratch): the triggered and the
	// eligible rules, the rules a triggered rule outranks (Choose's row),
	// the net-effect computation's tuple states, the transition tables of
	// the rule under consideration, and the compiled closures' context.
	trig, elig []*rules.Rule
	above      rules.Bits
	netScratch transition.Scratch
	td         sqlmini.TransitionData
	env        compile.Env

	// fired[i] counts rule i's firings in the running AssertContext call,
	// and firedRules lists the rules it counts, each once: Result's
	// FiredByRule is built from them, at its exact size, when the call
	// returns (firedByRule). Scratch like the above.
	fired      []int
	firedRules []*rules.Rule

	// netHook, when set, observes every pending-net answer, pendingNet's
	// and the trigger scan's inline memo answers: the net, the trigger
	// bit, and whether it was computed or served from the memo.
	// Tests use it to compare answers with a fresh recomputation and to
	// count computations. Clone carries it to forks.
	netHook func(e *Engine, r *rules.Rule, net *transition.Net, triggered, computed bool)
}

// pendingMemo is one rule's memoized pending net: the net effect, on the
// rule's table, of the history suffix [mark, upTo), computed at the
// history's truncation generation gen, and whether it satisfies the
// rule's transition predicate. The net is immutable while it is the
// slot's. shared is set by Clone, which copies the memo into the fork:
// another engine may then hold the same net, so the slot's next
// computation allocates a net of its own instead of refilling this one,
// and the slot is private again.
type pendingMemo struct {
	net       *transition.Net
	triggered bool
	shared    bool
	mark      int
	upTo      int
	gen       uint64
}

// valid reports whether the memo still holds the pending net of a rule
// at mark whose table last changed at position last, in a history of
// generation gen: see pendingNet.
func (m *pendingMemo) valid(mark, last int, gen uint64) bool {
	return m.net != nil && m.mark == mark && m.gen == gen && last < m.upTo
}

// New creates an engine over db for the rule set and opens its first
// transaction at the current contents. The transaction is a savepoint the
// engine holds on db, so a database serves one engine at a time: New
// panics if one is active (Close the other engine, or pass db.Clone()).
func New(set *rules.Set, db *storage.DB, opts Options) *Engine {
	if depth, _ := db.UndoDepth(); depth != 0 {
		panic("engine: New over a database with an active savepoint (is another engine still open on it?)")
	}
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = 10000
	}
	if opts.Strategy == nil {
		opts.Strategy = FirstByName{}
	}
	e := &Engine{
		set:   set,
		db:    db,
		opts:  opts,
		marks: make([]int, set.Len()),
		memo:  make([]pendingMemo, set.Len()),
	}
	e.bindTables()
	if opts.Interpret {
		e.every = rules.NewBits(set.Len())
		for i := range set.Len() {
			e.every.Add(i)
		}
	} else {
		e.prog = compile.For(set)
		e.cand = e.prog.Matcher().NewCandidates()
	}
	e.above = rules.NewBits(set.Len())
	e.begin()
	return e
}

// bindTables points tabs at the rules' tables in e.db.
func (e *Engine) bindTables() {
	e.tabs = make([]*storage.Table, e.set.Len())
	for i, r := range e.set.Rules() {
		e.tabs[i] = e.db.Table(r.Table)
	}
}

// Compiled reports whether this engine runs the compiled hot path.
func (e *Engine) Compiled() bool { return e.prog != nil }

// Program returns the compiled program, or nil in interpreted mode.
// Engines over one rule set share one program; tests check that
// identity through it.
func (e *Engine) Program() *compile.Program { return e.prog }

// RebuildTriggerIndex recomputes the candidate bitset from scratch out
// of the database's history and the rule marks, discarding the
// incrementally maintained bits. The two paths are observably
// equivalent (the incremental bits are a superset that the triggered
// check filters identically); metamorphic tests drive both.
func (e *Engine) RebuildTriggerIndex() {
	if e.cand != nil {
		e.cand.Rebuild(e.tabs, e.marks)
	}
}

// DB returns the engine's database.
func (e *Engine) DB() *storage.DB { return e.db }

// SetStrategy replaces the choice strategy for subsequent processing.
func (e *Engine) SetStrategy(s Strategy) {
	if s == nil {
		s = FirstByName{}
	}
	e.opts.Strategy = s
}

// Set returns the engine's rule set.
func (e *Engine) Set() *rules.Set { return e.set }

// InFlight reports whether rule processing is suspended mid-assertion
// (after an error or cancellation): the next Assert/AssertContext will
// resume it rather than start fresh.
func (e *Engine) InFlight() bool { return e.inFlight }

// mutator builds the recording mutator, applying the fault-injection
// wrapper when configured.
func (e *Engine) mutator() sqlmini.Mutator {
	var m sqlmini.Mutator = recordingMutator{e}
	if e.opts.WrapMutator != nil {
		m = e.opts.WrapMutator(m)
	}
	return m
}

// recordingMutator applies changes to the database, whose history is
// the record of them. In compiled mode it additionally marks candidate
// rules in the delta-driven trigger index: each statement notes its
// (table, kind) once, before its first row enters the history, so a
// recorded operation can never trigger a rule without also marking it
// (DESIGN.md §11.2).
//
// Table names arrive from resolved statements, in the schema's canonical
// form, and key the network as they come (see sqlmini.Mutator).
type recordingMutator struct{ e *Engine }

func (m recordingMutator) Insert(table string, rows [][]storage.Value) (int, error) {
	m.note(table, storage.ChangeInsert, len(rows))
	return m.e.db.InsertRows(table, rows)
}

func (m recordingMutator) Delete(table string, ids []storage.TupleID) error {
	m.note(table, storage.ChangeDelete, len(ids))
	return m.e.db.DeleteRows(table, ids)
}

// Update notes every rule watching any update on the table: a raw update
// does not know which columns will survive net-effect composition, and
// the exact transition predicate filters.
func (m recordingMutator) Update(table string, cols []string, ids []storage.TupleID, vals []storage.Value) error {
	m.note(table, storage.ChangeUpdate, len(ids)*len(cols))
	return m.e.db.UpdateRows(table, cols, ids, vals)
}

// note marks the rules watching kind on table when a statement of n
// rows is about to be applied.
func (m recordingMutator) note(table string, kind storage.ChangeKind, n int) {
	if n > 0 && m.e.cand != nil {
		m.e.cand.Note(table, kind)
	}
}

// ExecUser executes user-generated SQL (outside any rule) with recording,
// building the initial transition for the next assertion point. Source
// may contain multiple ';'-separated statements. SELECT statements return
// their rows in the results; ROLLBACK is not permitted here.
//
// A compiled engine runs the text through a bounded per-engine cache
// (compile.UserCache) keyed by its token stream with the literals
// lifted out. A text whose key the cache holds is lexed and run: it is
// neither parsed, nor resolved, nor compiled. Any other text is parsed
// from the tokens the lexer made, and each statement is resolved and
// compiled before it runs, which costs about what interpreting it once
// would over a small table and less over a large one. An engine with
// Options.Interpret parses, resolves and interprets every statement; the
// two are observably identical.
//
// ExecUser is atomic: if any statement fails (or panics), the database,
// and its history with it, is restored to its state at the call, so a
// failed script leaves no partial transition behind.
func (e *Engine) ExecUser(src string) (out []sqlmini.StmtResult, err error) {
	if e.prog == nil {
		return e.interpretUser(src)
	}
	if e.user == nil {
		e.user = compile.NewUserCache(e.set.Schema())
	}
	err = e.atomically(func() (err error) {
		out, err = e.user.Exec(src, e.db, e.mutator())
		return err
	}, userPanic)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// interpretUser is ExecUser on an engine with Options.Interpret.
func (e *Engine) interpretUser(src string) ([]sqlmini.StmtResult, error) {
	sts, err := sqlmini.ParseStatements(src)
	if err != nil {
		return nil, err
	}
	out := make([]sqlmini.StmtResult, 0, len(sts))
	err = e.atomically(func() error {
		mut := e.mutator()
		for _, st := range sts {
			if _, ok := st.(*sqlmini.Rollback); ok {
				return compile.ErrUserRollback
			}
			if err := sqlmini.ResolveStatement(st, &sqlmini.ResolveContext{Schema: e.set.Schema()}); err != nil {
				return err
			}
			res, err := (&sqlmini.Evaluator{DB: e.db, Mut: mut}).Exec(st)
			if err != nil {
				return err
			}
			out = append(out, res)
		}
		return nil
	}, userPanic)
	if err != nil {
		return nil, err
	}
	return out, nil
}

func userPanic(p *PanicError) error { return fmt.Errorf("engine: user script: %w", p) }

// atomically runs body under a storage savepoint: if body returns an
// error or panics (reported through onPanic), the database and its
// history are restored to their state at the call, the compensating
// mutations reaching the database's observer.
func (e *Engine) atomically(body func() error, onPanic func(*PanicError) error) (err error) {
	sp := e.db.Savepoint()
	defer func() {
		if p := recover(); p != nil {
			err = onPanic(&PanicError{Value: p, Stack: debug.Stack()})
		}
		if err != nil {
			e.db.RollbackTo(sp)
		} else {
			e.db.Release(sp)
		}
	}()
	return body()
}

// emptyNet is the shared net effect of an untouched suffix.
var emptyNet = transition.EmptyNet()

// pendingNet returns the composite transition rule r has not yet seen,
// restricted to r's table — all that r's transition predicate and
// transition tables can depend on — and whether that transition triggers
// r (Section 2). It is the engine's only net-effect computation: the
// trigger scan, Consider and the state fingerprints all read through it.
//
// When the history has no change to r's table past r's mark, the shared
// empty net is returned without any computation. Otherwise the answer is
// memoized per rule. A rule's pending net is a function of its mark, the
// history entries on its table at or after the mark, and the current
// values of the tuples those entries name; every value change on a table
// appends an entry on that table. So a memoized net stays exact while
// r's mark is where it was, no entry has been removed from the history
// (its generation) and none has been appended on r's table since (the
// table's last change precedes the position the net was computed at).
// DESIGN.md §11 "Pending nets are memoized" walks every way the history,
// the marks and the database move.
//
// A stale slot's net is refilled in place unless the slot is shared
// with a fork (Clone marks it): then another engine may hold the same
// net, and a new one is computed, which only this slot holds. Nothing
// else can read a refilled net by then: every row a consideration takes
// out of its transition tables is copied, and td is rebuilt at every
// Consider (DESIGN.md §11.3).
func (e *Engine) pendingNet(r *rules.Rule) (net *transition.Net, triggered bool) {
	i := r.Index()
	t := e.tabs[i]
	mark, last := e.marks[i], t.LastChange()
	computed := false
	if last < mark {
		net = emptyNet
	} else {
		m := &e.memo[i]
		if !m.valid(mark, last, e.db.HistoryGen()) {
			computed = true
			reuse := m.net
			if m.shared {
				reuse = nil
			}
			n := transition.ComputeTable(e.db, mark, t, &e.netScratch, reuse)
			*m = pendingMemo{
				net:       n,
				triggered: n.Triggers(r.TriggeredBy()),
				mark:      mark,
				upTo:      e.db.HistoryLen(),
				gen:       e.db.HistoryGen(),
			}
		}
		net, triggered = m.net, m.triggered
	}
	if e.netHook != nil {
		e.netHook(e, r, net, triggered, computed)
	}
	return net, triggered
}

// TriggeredRules returns the currently triggered rules in definition
// order: those whose transition predicate holds over their pending
// transition (Section 2). The predicate is read from the rule's pending
// net, so a scan recomputes a rule's net only if its mark moved or its
// table was written since the last scan; every other triggered rule
// costs one check of its memo, made inline.
//
// In compiled mode only candidate rules are examined — rules marked by
// a recorded operation of a kind they watch on their table. Candidacy
// over-approximates triggering (DESIGN.md §11 proves a triggered rule
// is always a candidate), and the exact transition predicate is still
// read per candidate, so both modes return identical slices. A
// candidate with no valid memo whose watched kinds have no history entry
// at or past its mark can never become triggered without a new Note, so
// its bit is cleared.
func (e *Engine) TriggeredRules() []*rules.Rule {
	return append([]*rules.Rule(nil), e.triggered()...)
}

// triggered is TriggeredRules into the engine's scratch: the slice is
// valid until the next call.
func (e *Engine) triggered() []*rules.Rule {
	e.trig = e.trig[:0]
	rs, gen, words := e.set.Rules(), e.db.HistoryGen(), e.every
	if e.cand != nil {
		words = e.cand.Words()
	}
	for w, word := range words {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			var triggered bool
			switch m := &e.memo[i]; {
			case m.valid(e.marks[i], e.tabs[i].LastChange(), gen):
				triggered = m.triggered
				if e.netHook != nil {
					e.netHook(e, rs[i], m.net, triggered, false)
				}
			case e.cand != nil && e.cand.StaleAt(i, e.tabs[i], e.marks[i]):
				e.cand.Clear(i)
			default:
				_, triggered = e.pendingNet(rs[i])
			}
			if triggered {
				e.trig = append(e.trig, rs[i])
			}
		}
	}
	return e.trig
}

// EligibleRules returns Choose(TriggeredRules): the triggered rules with
// no triggered rule of higher priority.
func (e *Engine) EligibleRules() []*rules.Rule {
	return e.set.Choose(nil, e.triggered(), e.above)
}

// transitionData materializes, in the engine's scratch, the transition
// tables a rule on the table sees.
func (e *Engine) transitionData(n *transition.Net, table string) *sqlmini.TransitionData {
	td := &e.td
	*td = sqlmini.TransitionData{OldUpdated: td.OldUpdated[:0], NewUpdated: td.NewUpdated[:0]}
	if tn := n.Table(table); tn != nil {
		td.Inserted, td.Deleted = tn.Inserted, tn.Deleted
		for _, up := range tn.Updated {
			td.OldUpdated = append(td.OldUpdated, up.Old)
			td.NewUpdated = append(td.NewUpdated, up.New)
		}
	}
	return td
}

// Consider evaluates rule r now: it fixes r's transition tables from its
// pending transition, advances r's mark, checks the condition, and (if
// the condition holds) executes the action. It reports whether the action
// fired and any observable events, and whether a rollback occurred.
//
// Consider is atomic: if the condition or any action statement fails —
// including by panicking — the database, its history, and r's
// mark are restored to their values at the call, the error is returned
// as a *ExecError, and it is as if the rule had not been chosen. No
// events from the aborted consideration are reported.
//
// Consider does not check that r is eligible; Assert and the model
// checker only call it for eligible rules.
func (e *Engine) Consider(r *rules.Rule) (fired bool, events []ObservableEvent, rolledBack bool, err error) {
	prevMark := e.marks[r.Index()]
	err = e.atomically(func() error {
		net, _ := e.pendingNet(r)
		td := e.transitionData(net, r.Table)
		e.marks[r.Index()] = e.db.HistoryLen()
		// Compiled units run in the engine's one Env, the interpreter in
		// an evaluator of its own.
		var ev *sqlmini.Evaluator
		if e.prog != nil {
			e.env.DB, e.env.Trans, e.env.Mut = e.db, td, nil
		} else {
			ev = &sqlmini.Evaluator{DB: e.db, Trans: td}
		}
		if r.Condition != nil {
			var cond bool
			var err error
			if e.prog != nil {
				cond, err = e.prog.EvalCondition(r.Index(), &e.env)
			} else {
				cond, err = ev.EvalPredicate(r.Condition)
			}
			if err != nil {
				return &ExecError{Rule: r.Name, Cause: err}
			}
			if !cond {
				return nil
			}
		}

		if e.prog != nil {
			e.env.Mut = e.mutator()
		} else {
			ev.Mut = e.mutator()
		}
		fired = true
		for j, st := range r.Action {
			var res sqlmini.StmtResult
			var err error
			if e.prog != nil {
				res, err = e.prog.ExecStatement(r.Index(), j, &e.env)
			} else {
				res, err = ev.Exec(st)
			}
			if err != nil {
				return &ExecError{Rule: r.Name, Statement: st.String(), Cause: err}
			}
			if res.Rolled {
				events = append(events, ObservableEvent{Rule: r.Name, Statement: st.String(), Rollback: true})
				rolledBack = true
				return nil
			}
			if sqlmini.IsObservable(st) {
				events = append(events, ObservableEvent{Rule: r.Name, Statement: st.String(), Rows: res.Rows})
			}
		}
		return nil
	}, func(p *PanicError) error { return &ExecError{Rule: r.Name, Cause: p} })
	if err != nil {
		e.marks[r.Index()] = prevMark
		return false, nil, false, err
	}
	if rolledBack {
		e.rollback()
	}
	return fired, events, rolledBack, nil
}

// rollback returns the database to the transaction start and begins the
// next transaction there. The observer is detached for the undo: unlike
// a failed consideration's compensations, a redo log must not see it —
// the abort record that follows already discards the whole transaction.
func (e *Engine) rollback() {
	obs := e.db.Observer()
	e.db.SetObserver(nil)
	e.db.RollbackTo(e.tx)
	e.db.SetObserver(obs)
	e.begin()
}

// begin opens a transaction at the current database state, with the
// rule bookkeeping of the one that just ended cleared. The transaction
// is the outermost savepoint, so its history starts empty, at position 0.
func (e *Engine) begin() {
	e.tx = e.db.Savepoint()
	for i := range e.marks {
		e.marks[i] = 0
	}
	e.assertStart = 0
	e.inFlight = false
	if e.cand != nil {
		e.cand.Reset() // empty history: nothing can be triggered
	}
}

// BeginAssert prepares rule processing at an assertion point without
// running it: every rule starts out seeing the transition since the last
// assertion point (or transaction start). The execution-graph explorer
// uses this to place the engine in the initial state I of Section 4 and
// then drives Consider itself.
func (e *Engine) BeginAssert() {
	for i := range e.marks {
		e.marks[i] = e.assertStart
	}
}

// Assert runs rule processing at an assertion point (Section 2): rules
// are repeatedly chosen from the eligible set and considered until no
// rule is triggered, a rollback occurs, or the step budget is exhausted
// (ErrMaxSteps, upgraded to *LivelockError when a state recurrence
// proves nontermination). It is AssertContext with a background context.
func (e *Engine) Assert() (Result, error) {
	return e.AssertContext(context.Background())
}

// AssertContext is Assert with cancellation: ctx is checked between
// considerations, so callers can bound wall-clock time with a deadline.
// On cancellation it returns a *CancelledError and leaves processing
// suspended at a consideration boundary.
//
// Error contract (see the taxonomy in errors.go): after any error the
// engine is consistent — completed considerations are durable, the
// failed or unstarted work is absent — and processing is suspended
// (InFlight). A subsequent Assert/AssertContext resumes exactly where it
// stopped with a fresh budget; it does not re-see consumed transitions.
func (e *Engine) AssertContext(ctx context.Context) (res Result, _ error) {
	defer func() { res.FiredByRule = e.firedByRule() }()
	if !e.inFlight {
		e.BeginAssert()
		e.inFlight = true
		e.trace(TraceEvent{Kind: "assert-begin"})
	} else {
		e.trace(TraceEvent{Kind: "assert-resume"})
	}
	trackFrom := max(e.opts.MaxSteps-livelockWindow, 0)
	var seen map[string]int // state fingerprint -> len(chosen) when observed
	var chosen []string     // rules considered since tracking began
	for {
		if cerr := ctx.Err(); cerr != nil {
			e.trace(TraceEvent{Kind: "assert-cancelled", Considered: res.Considered, Fired: res.Fired})
			return res, &CancelledError{Cause: cerr}
		}
		triggered := e.triggered()
		eligible := e.set.Choose(e.elig[:0], triggered, e.above)
		e.elig = eligible
		if len(eligible) == 0 {
			e.assertStart = e.db.HistoryLen()
			e.inFlight = false
			e.trace(TraceEvent{Kind: "assert-end", Considered: res.Considered, Fired: res.Fired})
			return res, e.journal("commit", Journal.Commit)
		}
		// Under budget pressure, watch for a state recurrence: revisiting
		// an execution-graph state proves an infinite path exists, which
		// upgrades the inconclusive ErrMaxSteps to a concrete witness.
		if res.Considered >= trackFrom {
			fp := e.StateFingerprint()
			if first, ok := seen[fp]; ok {
				lerr := &LivelockError{
					Cycle:  append([]string(nil), chosen[first:]...),
					Period: len(chosen) - first,
					Steps:  res.Considered,
				}
				e.trace(TraceEvent{Kind: "assert-error", Considered: res.Considered, Fired: res.Fired})
				return res, lerr
			}
			if seen == nil {
				seen = make(map[string]int)
			}
			seen[fp] = len(chosen)
		}
		if res.Considered >= e.opts.MaxSteps {
			e.trace(TraceEvent{Kind: "assert-error", Considered: res.Considered, Fired: res.Fired})
			return res, ErrMaxSteps
		}
		r := e.opts.Strategy.Pick(eligible)
		if e.opts.Trace != nil { // the name slices are built for the hook alone
			e.trace(TraceEvent{Kind: "choose", Rule: r.Name,
				Triggered: names(triggered), Eligible: names(eligible)})
		}
		if res.Considered >= trackFrom {
			chosen = append(chosen, r.Name)
		}
		fired, events, rolled, err := e.Consider(r)
		if err != nil {
			var rule string
			if xe, ok := err.(*ExecError); ok {
				rule = xe.Rule
			}
			e.trace(TraceEvent{Kind: "assert-error", Rule: rule, Considered: res.Considered, Fired: res.Fired})
			return res, err
		}
		res.Considered++
		if fired {
			res.Fired++
			e.countFiring(r)
			if rolled {
				e.trace(TraceEvent{Kind: "rollback", Rule: r.Name})
			} else {
				e.trace(TraceEvent{Kind: "fire", Rule: r.Name})
			}
		} else {
			e.trace(TraceEvent{Kind: "skip", Rule: r.Name})
		}
		res.Observables = append(res.Observables, events...)
		if rolled {
			res.RolledBack = true
			return res, e.journal("abort", Journal.Abort)
		}
	}
}

// countFiring counts one firing of r toward the running call's
// FiredByRule.
func (e *Engine) countFiring(r *rules.Rule) {
	if e.fired == nil {
		e.fired = make([]int, e.set.Len())
	}
	i := r.Index()
	if e.fired[i] == 0 {
		e.firedRules = append(e.firedRules, r)
	}
	e.fired[i]++
}

// firedByRule returns the firings counted since its last call, per rule
// name, in a map of exactly their size (nil when nothing fired), and
// zeroes the counts.
func (e *Engine) firedByRule() map[string]int {
	if len(e.firedRules) == 0 {
		return nil
	}
	m := make(map[string]int, len(e.firedRules))
	for _, r := range e.firedRules {
		m[r.Name] = e.fired[r.Index()]
		e.fired[r.Index()] = 0
	}
	e.firedRules = e.firedRules[:0]
	return m
}

// journal invokes one transaction-boundary hook on the configured
// journal, wrapping any failure as a *DurabilityError. A nil journal is
// a no-op.
func (e *Engine) journal(op string, call func(Journal) error) error {
	if e.opts.Journal == nil {
		return nil
	}
	if err := call(e.opts.Journal); err != nil {
		return &DurabilityError{Op: op, Cause: err}
	}
	return nil
}

// Rollback aborts the current engine transaction exactly as a rule
// ROLLBACK action would, but driven by the caller: the transaction-start
// state is restored, all rule bookkeeping (marks, the history,
// suspended in-flight processing) is cleared, and the journal — when
// configured — records an abort, reverting the durable state to the
// transaction's begin. The serving layer uses it to give every failed
// request "never happened" semantics: a deadline expiry or a
// quarantine-tripping fault mid-assert must not leave a half-processed
// transition for the next client to trip over.
func (e *Engine) Rollback() error {
	e.rollback()
	return e.journal("abort", Journal.Abort)
}

// Commit ends the transaction: the current state becomes what the next
// rollback returns to and the history is cleared. Committing
// while processing is suspended (InFlight) abandons the unprocessed
// remainder of the transition. With a journal configured, Commit writes
// a durable point followed by a new transaction start; a journal failure
// returns a *DurabilityError (the in-memory commit still happened).
//
// Commit also bounds memory: the database's history (one record per
// mutation) and the iteration-order slots of deleted tuples are held
// until the transaction ends.
func (e *Engine) Commit() error {
	e.db.Release(e.tx)
	e.begin()
	if err := e.journal("commit", Journal.Commit); err != nil {
		return err
	}
	return e.journal("begin", Journal.Begin)
}

// Close releases the engine's hold on its database, keeping the current
// state, so that another engine can be opened over it. It journals
// nothing: call it at a transaction boundary and do not use e afterwards.
func (e *Engine) Close() { e.db.Release(e.tx) }

// Clone returns an independent copy of the engine (database with its
// history, marks) inside the same transaction: a rollback in either restores the
// transaction start without touching the other. The model checker forks
// engines to explore every choice. The clone carries no journal: forks
// are speculative, and their mutations must never reach the durable log
// (the forked database likewise drops the observer).
func (e *Engine) Clone() *Engine {
	for i := range e.memo {
		e.memo[i].shared = true // the memo's nets are now the fork's too
	}
	ne := *e // set and prog are immutable; tx is positional, valid against the fork
	ne.opts.Journal = nil
	ne.db = e.db.Fork()
	ne.bindTables()
	ne.marks = append([]int(nil), e.marks...)
	ne.memo = append([]pendingMemo(nil), e.memo...)
	ne.trig, ne.elig, ne.netScratch, ne.td, ne.env, ne.user = nil, nil, transition.Scratch{}, sqlmini.TransitionData{}, compile.Env{}, nil
	ne.fired, ne.firedRules, ne.above = nil, nil, rules.NewBits(e.set.Len())
	if e.cand != nil {
		ne.cand = e.cand.Clone()
	}
	return &ne
}

// StateFingerprint identifies the execution-graph state (D, TR) of
// Section 4: the database contents plus, per rule, the net effect of its
// pending transition restricted to the rule's table. The restriction
// matches the paper's abstraction: a rule's transition predicate and
// transition tables concern only its own table, so pending changes to
// other tables cannot influence its future behaviour. Two engine states
// with equal fingerprints behave identically for all future rule
// processing.
func (e *Engine) StateFingerprint() string { return string(e.stateStream()) }

// StateHash is the sha256 digest of exactly the bytes of
// StateFingerprint: a fixed-size state identity for callers that store
// or compare states across engines (internal/crashtest's replay oracle).
func (e *Engine) StateHash() [32]byte { return sha256.Sum256(e.stateStream()) }

// stateStream builds the database fingerprint followed by '|' and the
// pending net-effect fingerprint of each rule, in definition order.
func (e *Engine) stateStream() []byte {
	fp := e.db.Fingerprint()
	out := make([]byte, 0, 32+len(e.marks)*33)
	out = append(out, fp[:]...)
	for _, r := range e.set.Rules() {
		net, _ := e.pendingNet(r)
		nf := net.TableFingerprint(r.Table)
		out = append(out, '|')
		out = append(out, nf[:]...)
	}
	return out
}

// TRStateFingerprint identifies the state exactly as the paper's Section
// 4 model does: the database contents plus the set TR of TRIGGERED rules
// with their associated transition tables. Untriggered rules contribute
// nothing, even if they carry a nonempty pending transition.
//
// This is coarser than StateFingerprint: two states equal under
// TRStateFingerprint can in rare cases evolve differently, because an
// untriggered rule's pending transition still determines how future
// operations compose into its unseen net effect (see the masking
// condition, internal/analysis condition 7). The model checker therefore
// memoizes on the finer StateFingerprint; TRStateFingerprint exists to
// validate the paper's Figure 1 commutativity diamond on the paper's own
// state abstraction.
func (e *Engine) TRStateFingerprint() string {
	fp := e.db.Fingerprint()
	out := make([]byte, 0, 64)
	out = append(out, fp[:]...)
	for _, r := range e.set.Rules() {
		net, triggered := e.pendingNet(r)
		if !triggered {
			continue
		}
		nf := net.TableFingerprint(r.Table)
		out = append(out, '|')
		out = append(out, byte(r.Index()), byte(r.Index()>>8))
		out = append(out, nf[:]...)
	}
	return string(out)
}
