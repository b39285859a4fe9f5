package engine

// The reference rule processor: Section 2's rule processing and
// Section 3's Choose written once more, as plainly as the paper states
// them, over sqlmini.Evaluator, for the differential tests to hold the
// engine to. It shares none of the engine's machinery — no history
// positions, undo log, savepoint, pending-net computation, memo,
// candidate index or Choose — so a fault in any of those shows as a
// disagreement instead of being present on both sides:
//
//   - a rule's mark is a whole-database snapshot (DB.Clone) taken when
//     the rule was last considered, and its pending transition is the
//     live table diffed against the snapshot's by tuple identity: a
//     tuple only in the live table is inserted with its current values,
//     one only in the snapshot is deleted with its values there, and one
//     in both whose values differ is updated from the one to the other,
//     which is what [WF90]'s four composition rules net to;
//   - a rule is triggered when that transition meets one of its
//     triggering operations, and eligible when no other triggered rule
//     ranks above it under Set.Higher;
//   - a failed statement, consideration or user script, and a ROLLBACK
//     action, put back a snapshot of the database taken before.
//
// The paper leaves the order of a transition table's rows open; the
// engine lists them in the order the transaction first touched them after
// the rule's mark. So that observables and the identities of the rows an
// action inserts compare exactly, the reference keeps the tuples its
// statements touched, in order, and sorts the diff by it. The list orders
// rows and nothing else: which rows a transition holds, and their values,
// come from the diff alone.

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"activerules/internal/compile"
	"activerules/internal/rules"
	"activerules/internal/schema"
	"activerules/internal/sqlmini"
	"activerules/internal/storage"
)

// reference processes rules against a database of its own. It honours
// Options' MaxSteps, Strategy and Trace, and ignores the rest.
type reference struct {
	set  *rules.Set
	db   *storage.DB
	opts Options

	// txStart is the database at transaction start, never written: a
	// rollback continues from a clone of it.
	txStart *storage.DB
	// touched lists, in order, the tuple each primitive of the open
	// transaction changed.
	touched []refTouch
	// marks[i] is where rule i was last considered; assertStart is where
	// the current assertion point's transition began.
	marks       []refPoint
	assertStart refPoint
	inFlight    bool
}

type refTouch struct {
	table string
	id    storage.TupleID
}

// refPoint is one moment of the transaction: the database then, which
// nothing writes, and how many touches preceded it.
type refPoint struct {
	db      *storage.DB
	touched int
}

// newReference opens a reference over db, which it owns from then on.
func newReference(set *rules.Set, db *storage.DB, opts Options) *reference {
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = 10000
	}
	if opts.Strategy == nil {
		opts.Strategy = FirstByName{}
	}
	r := &reference{set: set, db: db, opts: opts, marks: make([]refPoint, set.Len())}
	r.begin()
	return r
}

// now snapshots the present moment.
func (r *reference) now() refPoint {
	return refPoint{db: r.db.Clone(), touched: len(r.touched)}
}

// restore puts the database and the touch list back to p.
func (r *reference) restore(p refPoint) {
	r.db = p.db.Clone()
	r.touched = r.touched[:p.touched]
}

// begin opens a transaction at the current state: every rule and the
// next assertion point start from it.
func (r *reference) begin() {
	r.txStart, r.touched = r.db.Clone(), nil
	p := refPoint{db: r.txStart}
	for i := range r.marks {
		r.marks[i] = p
	}
	r.assertStart, r.inFlight = p, false
}

func (r *reference) DB() *storage.DB { return r.db }

// Clone forks the reference inside the same transaction.
func (r *reference) Clone() *reference {
	nr := *r
	nr.db = r.db.Clone()
	nr.touched = slices.Clone(r.touched)
	nr.marks = slices.Clone(r.marks)
	return &nr
}

// Commit makes the current state the transaction start.
func (r *reference) Commit() error {
	r.begin()
	return nil
}

// Rollback returns to the transaction start.
func (r *reference) Rollback() error {
	r.db = r.txStart.Clone()
	r.begin()
	return nil
}

// refMutator applies a statement's changes and notes the tuples they touch.
type refMutator struct{ r *reference }

func (m refMutator) Insert(table string, rows [][]storage.Value) (int, error) {
	first := m.r.db.NextID()
	n, err := m.r.db.InsertRows(table, rows)
	for k := range n {
		m.r.touched = append(m.r.touched, refTouch{table, first + storage.TupleID(k)})
	}
	return n, err
}

func (m refMutator) Delete(table string, ids []storage.TupleID) error {
	m.note(table, ids)
	return m.r.db.DeleteRows(table, ids)
}

func (m refMutator) Update(table string, cols []string, ids []storage.TupleID, vals []storage.Value) error {
	m.note(table, ids)
	return m.r.db.UpdateRows(table, cols, ids, vals)
}

func (m refMutator) note(table string, ids []storage.TupleID) {
	for _, id := range ids {
		m.r.touched = append(m.r.touched, refTouch{table, id})
	}
}

// ExecUser parses, resolves and interprets user SQL; a failing script
// leaves the database as it was.
func (r *reference) ExecUser(src string) ([]sqlmini.StmtResult, error) {
	sts, err := sqlmini.ParseStatements(src)
	if err != nil {
		return nil, err
	}
	before := r.now()
	out := make([]sqlmini.StmtResult, 0, len(sts))
	for _, st := range sts {
		if _, ok := st.(*sqlmini.Rollback); ok {
			err = compile.ErrUserRollback
		} else if err = sqlmini.ResolveStatement(st, &sqlmini.ResolveContext{Schema: r.set.Schema()}); err == nil {
			var res sqlmini.StmtResult
			res, err = (&sqlmini.Evaluator{DB: r.db, Mut: refMutator{r}}).Exec(st)
			out = append(out, res)
		}
		if err != nil {
			r.restore(before)
			return nil, err
		}
	}
	return out, nil
}

// refTransition is a rule's pending transition on its table.
type refTransition struct {
	inserted, deleted      [][]storage.Value
	oldUpdated, newUpdated [][]storage.Value
	updatedCols            map[string]bool
}

// pending diffs rule's table at its mark against the live table.
func (r *reference) pending(rule *rules.Rule) refTransition {
	mark := r.marks[rule.Index()]
	then, live := mark.db.Table(rule.Table), r.db.Table(rule.Table)
	first := map[storage.TupleID]int{}
	for i := len(r.touched) - 1; i >= mark.touched; i-- {
		if t := r.touched[i]; t.table == rule.Table {
			first[t.id] = i
		}
	}
	var changed []storage.TupleID
	then.Scan(func(tu *storage.Tuple) bool {
		if now := live.Get(tu.ID); now == nil || !slices.Equal(now.Vals, tu.Vals) {
			changed = append(changed, tu.ID)
		}
		return true
	})
	live.Scan(func(tu *storage.Tuple) bool {
		if then.Get(tu.ID) == nil {
			changed = append(changed, tu.ID)
		}
		return true
	})
	for _, id := range changed {
		if _, ok := first[id]; !ok {
			panic(fmt.Sprintf("reference: tuple %d of %s changed with no statement touching it", id, rule.Table))
		}
	}
	sort.Slice(changed, func(i, j int) bool { return first[changed[i]] < first[changed[j]] })
	tr := refTransition{updatedCols: map[string]bool{}}
	cols := live.Def().Columns
	for _, id := range changed {
		old, now := then.Get(id), live.Get(id)
		switch {
		case old == nil:
			tr.inserted = append(tr.inserted, slices.Clone(now.Vals))
		case now == nil:
			tr.deleted = append(tr.deleted, slices.Clone(old.Vals))
		default:
			tr.oldUpdated = append(tr.oldUpdated, slices.Clone(old.Vals))
			tr.newUpdated = append(tr.newUpdated, slices.Clone(now.Vals))
			for c := range cols {
				if old.Vals[c] != now.Vals[c] {
					tr.updatedCols[cols[c].Name] = true
				}
			}
		}
	}
	return tr
}

// triggers is the transition predicate: the transition holds one of the
// rule's triggering operations.
func (tr refTransition) triggers(rule *rules.Rule) bool {
	for _, ts := range rule.Triggers {
		switch ts.Kind {
		case schema.OpInsert:
			if len(tr.inserted) > 0 {
				return true
			}
		case schema.OpDelete:
			if len(tr.deleted) > 0 {
				return true
			}
		case schema.OpUpdate:
			for c := range tr.updatedCols {
				if len(ts.Columns) == 0 || slices.ContainsFunc(ts.Columns, func(s string) bool { return strings.EqualFold(s, c) }) {
					return true
				}
			}
		}
	}
	return false
}

// TriggeredRules returns the triggered rules in definition order.
func (r *reference) TriggeredRules() []*rules.Rule {
	var out []*rules.Rule
	for _, rule := range r.set.Rules() {
		if r.pending(rule).triggers(rule) {
			out = append(out, rule)
		}
	}
	return out
}

// eligible is Choose(triggered), pairwise: the triggered rules no other
// triggered rule has priority over.
func (r *reference) eligible(triggered []*rules.Rule) []*rules.Rule {
	var out []*rules.Rule
	for _, cand := range triggered {
		if !slices.ContainsFunc(triggered, func(o *rules.Rule) bool { return r.set.Higher(o, cand) }) {
			out = append(out, cand)
		}
	}
	return out
}

func (r *reference) EligibleRules() []*rules.Rule { return r.eligible(r.TriggeredRules()) }

// BeginAssert lets every rule see the transition since the last
// assertion point.
func (r *reference) BeginAssert() {
	for i := range r.marks {
		r.marks[i] = r.assertStart
	}
}

// Consider fixes rule's transition tables, moves its mark to now, and
// evaluates its condition and (when it holds) its action. A failure puts
// the database and the mark back; a ROLLBACK returns to the transaction
// start.
func (r *reference) Consider(rule *rules.Rule) (fired bool, events []ObservableEvent, rolledBack bool, err error) {
	tr := r.pending(rule)
	td := &sqlmini.TransitionData{Inserted: tr.inserted, Deleted: tr.deleted, OldUpdated: tr.oldUpdated, NewUpdated: tr.newUpdated}
	prev, start := r.marks[rule.Index()], r.now()
	r.marks[rule.Index()] = start
	ev := &sqlmini.Evaluator{DB: r.db, Trans: td}
	fail := func(e error) (bool, []ObservableEvent, bool, error) {
		r.restore(start)
		r.marks[rule.Index()] = prev
		return false, nil, false, e
	}
	if rule.Condition != nil {
		cond, err := ev.EvalPredicate(rule.Condition)
		if err != nil {
			return fail(&ExecError{Rule: rule.Name, Cause: err})
		}
		if !cond {
			return false, nil, false, nil
		}
	}
	ev.Mut = refMutator{r}
	for _, st := range rule.Action {
		res, err := ev.Exec(st)
		if err != nil {
			return fail(&ExecError{Rule: rule.Name, Statement: st.String(), Cause: err})
		}
		if res.Rolled {
			events = append(events, ObservableEvent{Rule: rule.Name, Statement: st.String(), Rollback: true})
			r.Rollback()
			return true, events, true, nil
		}
		if sqlmini.IsObservable(st) {
			events = append(events, ObservableEvent{Rule: rule.Name, Statement: st.String(), Rows: res.Rows})
		}
	}
	return true, events, false, nil
}

func (r *reference) trace(ev TraceEvent) {
	if r.opts.Trace != nil {
		r.opts.Trace(ev)
	}
}

// Assert runs rule processing at an assertion point under the engine's
// documented contract: a fresh or resumed point, the step budget with
// its livelock upgrade over the last livelockWindow steps, FiredByRule
// and the trace events.
func (r *reference) Assert() (res Result, _ error) {
	firedBy := map[string]int{}
	defer func() {
		if len(firedBy) > 0 {
			res.FiredByRule = firedBy
		}
	}()
	if !r.inFlight {
		r.BeginAssert()
		r.inFlight = true
		r.trace(TraceEvent{Kind: "assert-begin"})
	} else {
		r.trace(TraceEvent{Kind: "assert-resume"})
	}
	trackFrom := max(r.opts.MaxSteps-livelockWindow, 0)
	seen := map[string]int{}
	var chosen []string
	for {
		triggered := r.TriggeredRules()
		eligible := r.eligible(triggered)
		if len(eligible) == 0 {
			r.assertStart, r.inFlight = r.now(), false
			r.trace(TraceEvent{Kind: "assert-end", Considered: res.Considered, Fired: res.Fired})
			return res, nil
		}
		if res.Considered >= trackFrom {
			key := r.StateKey()
			if first, ok := seen[key]; ok {
				r.trace(TraceEvent{Kind: "assert-error", Considered: res.Considered, Fired: res.Fired})
				return res, &LivelockError{Cycle: slices.Clone(chosen[first:]), Period: len(chosen) - first, Steps: res.Considered}
			}
			seen[key] = len(chosen)
		}
		if res.Considered >= r.opts.MaxSteps {
			r.trace(TraceEvent{Kind: "assert-error", Considered: res.Considered, Fired: res.Fired})
			return res, ErrMaxSteps
		}
		rule := r.opts.Strategy.Pick(eligible)
		r.trace(TraceEvent{Kind: "choose", Rule: rule.Name, Triggered: rules.Names(triggered), Eligible: rules.Names(eligible)})
		if res.Considered >= trackFrom {
			chosen = append(chosen, rule.Name)
		}
		fired, events, rolled, err := r.Consider(rule)
		if err != nil {
			r.trace(TraceEvent{Kind: "assert-error", Rule: rule.Name, Considered: res.Considered, Fired: res.Fired})
			return res, err
		}
		res.Considered++
		switch {
		case !fired:
			r.trace(TraceEvent{Kind: "skip", Rule: rule.Name})
		case rolled:
			r.trace(TraceEvent{Kind: "rollback", Rule: rule.Name})
		default:
			r.trace(TraceEvent{Kind: "fire", Rule: rule.Name})
		}
		if fired {
			res.Fired++
			firedBy[rule.Name]++
		}
		res.Observables = append(res.Observables, events...)
		if rolled {
			res.RolledBack = true
			return res, nil
		}
	}
}

// PendingTables renders rule's pending transition tables, sorted.
func (r *reference) PendingTables(rule *rules.Rule) string {
	tr := r.pending(rule)
	return renderTransition(tr.inserted, tr.deleted, tr.oldUpdated, tr.newUpdated)
}

// StateKey identifies the state (D, TR) of Section 4: the database
// contents and every rule's pending transition on its table.
func (r *reference) StateKey() string {
	fp := r.db.Fingerprint()
	var sb strings.Builder
	sb.Write(fp[:])
	for _, rule := range r.set.Rules() {
		sb.WriteString("|" + r.PendingTables(rule))
	}
	return sb.String()
}

// renderTransition renders transition tables as sorted lines, so that
// the rendering is the tables' contents whatever the rows' order.
func renderTransition(inserted, deleted, oldUpdated, newUpdated [][]storage.Value) string {
	var lines []string
	row := func(vals []storage.Value) string {
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = fmt.Sprintf("%d:%s", v.Kind, v)
		}
		return "(" + strings.Join(parts, ", ") + ")"
	}
	for _, vals := range inserted {
		lines = append(lines, "inserted "+row(vals))
	}
	for _, vals := range deleted {
		lines = append(lines, "deleted "+row(vals))
	}
	for i := range oldUpdated {
		lines = append(lines, "updated "+row(oldUpdated[i])+" -> "+row(newUpdated[i]))
	}
	sort.Strings(lines)
	return strings.Join(lines, "; ")
}
