package analysis

// Condition-aware refinement (predicate abstraction over sqlmini).
//
// The Section 5/6 analyses are computed from syntactic read/write sets,
// so they report triggering edges and noncommutativity conflicts that
// no execution can realize. This file discharges some of them
// semantically, using the internal/absint abstract domain:
//
//   - A triggering edge ri -> rj is PRUNED when rj's condition demands
//     a transition-table row that ri's action provably cannot supply.
//   - A rule whose condition is statically unsatisfiable is DEAD: its
//     consideration is always a no-op, so it is discharged from the
//     triggering graph and commutes with every rule.
//   - A Lemma 6.1 noncommutativity reason is DISCHARGED when the two
//     rules' predicates are disjoint on the contested columns (or the
//     contested operation is invisible to the contested read).
//
// Soundness is by construction: refinement only removes warnings —
// edges, cyclic SCCs, noncommutativity reasons — and each removal is
// justified by an over-approximation argument spelled out in DESIGN.md
// ("Refinement soundness"). The differential suite
// (refine_differential_test.go) checks every refined verdict against
// exhaustive execution-graph exploration.

import (
	"fmt"
	"sort"
	"strings"

	"activerules/internal/absint"
	"activerules/internal/rules"
	"activerules/internal/schema"
	"activerules/internal/sqlmini"
)

// PrunedEdge records one triggering edge removed by refinement, with a
// human-readable justification.
type PrunedEdge struct {
	From, To string
	Why      string
}

// RefinementDischarge records a rule discharged from the triggering
// graph by refinement (a dead rule), with justification.
type RefinementDischarge struct {
	Rule string
	Why  string
}

// CommuteUpgrade records an unordered pair whose conservative
// noncommutativity verdict was upgraded to "commutes" by refinement,
// with one justification per discharged Lemma 6.1 reason.
type CommuteUpgrade struct {
	A, B string
	Why  []string
}

// SetRefinement enables (or disables) condition-aware refinement on the
// analyzer. Enabling it builds the abstract summaries eagerly; either
// way the verdict table and the termination memo start over (both
// depend on it). It returns the analyzer for chaining.
func (a *Analyzer) SetRefinement(on bool) *Analyzer {
	a.verdicts, a.term, a.ref = nil, nil, nil
	if on {
		a.ref = buildRefinement(a.set, a.graph())
	}
	return a
}

// Refined reports whether refinement is enabled.
func (a *Analyzer) Refined() bool { return a.ref != nil }

// refinement holds the precomputed abstract summaries for one rule set.
// All fields except the upgrade log are immutable after
// buildRefinement.
type refinement struct {
	set *rules.Set

	effects [][]*absint.StmtEffect  // by rule index
	ctxs    [][]*absint.ReadContext // by rule index
	dead    []bool                  // condition statically unsatisfiable
	deadWhy []string                // justification, parallel to dead

	// updJoin[t.c] is the join of every rule's update SET values for
	// t.c; present only when some rule updates t.c. It bounds the value
	// a column can be "rescued" to after an insert.
	updJoin map[schema.ColumnRef]absint.Abs

	// alwaysWrites[t.c] holds when every update statement on t (across
	// all rules) includes c in its SET list — then the last writer of a
	// row determines c's current value.
	alwaysWrites map[schema.ColumnRef]bool

	// updaters[t] lists rule indices with at least one UPDATE statement
	// on t, sorted.
	updaters map[string][]int

	// witness[j] is the condition witness chosen for rule j (nil when
	// no witness prunes anything), and pruned maps (from,to) index
	// pairs to the pruning justification.
	witness []*absint.Witness
	pruned  map[[2]int]string

	upgrades map[[2]int]CommuteUpgrade
}

func buildRefinement(set *rules.Set, g *TriggeringGraph) *refinement {
	sch := set.Schema()
	rs := set.Rules()
	n := len(rs)
	ref := &refinement{
		set:          set,
		effects:      make([][]*absint.StmtEffect, n),
		ctxs:         make([][]*absint.ReadContext, n),
		dead:         make([]bool, n),
		deadWhy:      make([]string, n),
		updJoin:      map[schema.ColumnRef]absint.Abs{},
		alwaysWrites: map[schema.ColumnRef]bool{},
		updaters:     map[string][]int{},
		witness:      make([]*absint.Witness, n),
		pruned:       map[[2]int]string{},
		upgrades:     map[[2]int]CommuteUpgrade{},
	}

	// Pass 1: per-rule effect and read-context summaries, dead rules.
	for i, r := range rs {
		ref.effects[i] = absint.StatementEffects(sch, r.Action)
		ref.ctxs[i] = absint.RuleReadContexts(sch, r.Condition, r.Action)
		if r.Condition != nil && absint.CondUnsat(r.Condition, false) {
			ref.dead[i] = true
			ref.deadWhy[i] = "condition is statically unsatisfiable; considering " + r.Name + " is always a no-op"
		}
	}

	// Pass 2: global update structure.
	updatesByTable := map[string][]*absint.StmtEffect{}
	for i := range rs {
		sawUpdate := map[string]bool{}
		for _, eff := range ref.effects[i] {
			if eff.Kind != absint.EffUpdate {
				continue
			}
			updatesByTable[eff.Table] = append(updatesByTable[eff.Table], eff)
			if !sawUpdate[eff.Table] {
				sawUpdate[eff.Table] = true
				ref.updaters[eff.Table] = append(ref.updaters[eff.Table], i)
			}
			for col, abs := range eff.SetVals {
				cr := schema.ColRef(eff.Table, col)
				if prev, ok := ref.updJoin[cr]; ok {
					ref.updJoin[cr] = prev.Join(abs)
				} else {
					ref.updJoin[cr] = abs
				}
			}
		}
	}
	for table, effs := range updatesByTable {
		common := map[string]int{}
		for _, eff := range effs {
			for col := range eff.SetVals {
				common[col]++
			}
		}
		for col, cnt := range common {
			if cnt == len(effs) {
				ref.alwaysWrites[schema.ColRef(table, col)] = true
			}
		}
	}

	// Pass 3: per-rule witness choice and edge pruning. For each rule
	// rj, pick the single condition witness that prunes the most
	// in-edges (a single witness keeps the provider-extraction argument
	// sound; intersecting the provider sets of several witnesses is
	// not). Ties break toward the earliest witness in condition order,
	// so the choice is deterministic.
	for j, rj := range rs {
		if ref.dead[j] {
			continue // node discharge subsumes in-edge pruning
		}
		var inEdges []int
		for i, ri := range rs {
			if g.HasEdge(ri, rj) {
				inEdges = append(inEdges, i)
			}
		}
		if len(inEdges) == 0 {
			continue
		}
		var best *absint.Witness
		var bestPruned []int
		for _, w := range absint.TransWitnesses(rj.Condition) {
			w := w
			if !ref.witnessUsable(&w, rs, g, rj) {
				continue
			}
			var prunedIdx []int
			for _, i := range inEdges {
				if !ref.provides(i, &w) {
					prunedIdx = append(prunedIdx, i)
				}
			}
			if len(prunedIdx) > len(bestPruned) {
				best, bestPruned = &w, prunedIdx
			}
		}
		if best == nil {
			continue
		}
		ref.witness[j] = best
		desc := witnessDesc(best)
		for _, i := range bestPruned {
			ref.pruned[[2]int{i, j}] = fmt.Sprintf(
				"condition of %s requires a row of %s; %s", rj.Name, desc, ref.cannotSupply(i, best))
		}
	}
	return ref
}

// witnessUsable reports whether a witness may drive edge pruning. For
// update-view witnesses (new-updated / old-updated) every rule updating
// the table must have a base triggering edge to rj: the provider
// extraction argument identifies the row's last (or membership-causing)
// updater as an infinitely-firing provider, and soundness needs that
// provider's edge to exist in the unpruned graph. Insert and delete
// view references guarantee this structurally — referencing the view
// requires the matching trigger kind, and every performer of that kind
// has an edge — but an updater need not write rj's trigger columns.
func (ref *refinement) witnessUsable(w *absint.Witness, rs []*rules.Rule, g *TriggeringGraph, rj *rules.Rule) bool {
	if w.Trans != sqlmini.TransNewUpdated && w.Trans != sqlmini.TransOldUpdated {
		return true
	}
	for _, i := range ref.updaters[w.Table] {
		if !g.HasEdge(rs[i], rj) {
			return false
		}
	}
	return true
}

// provides reports whether rule i can supply a row satisfying witness w
// in a fresh per-rule suffix (one that starts empty at the consuming
// rule's consideration).
func (ref *refinement) provides(i int, w *absint.Witness) bool {
	switch w.Trans {
	case sqlmini.TransInserted:
		// A suffix-local inserted-view row is created only by an INSERT
		// (insert-then-update stays in the inserted view with the new
		// values; insert-then-delete vanishes). The row's final column
		// values come from the insert itself or a later update by any
		// rule, so a statement is doomed only if both are out of range.
		for _, eff := range ref.effects[i] {
			if eff.Kind == absint.EffInsert && eff.Table == w.Table && !ref.insertDoomed(eff, w) {
				return true
			}
		}
		return false
	case sqlmini.TransDeleted:
		// Only a DELETE of a pre-existing row populates the deleted
		// view (deleting a suffix-inserted row nets to nothing). The
		// view shows values from the rule's last consideration mark, so
		// no value-based test applies — membership only.
		for _, eff := range ref.effects[i] {
			if eff.Kind == absint.EffDelete && eff.Table == w.Table {
				return true
			}
		}
		return false
	case sqlmini.TransNewUpdated, sqlmini.TransOldUpdated:
		// Only an UPDATE of a not-suffix-inserted row populates the
		// update views. For new-updated, when every update statement on
		// the table writes column c, the last writer determines c's
		// current value, enabling a value-based test; old-updated shows
		// mark-time values, membership only.
		for _, eff := range ref.effects[i] {
			if eff.Kind != absint.EffUpdate || eff.Table != w.Table {
				continue
			}
			if w.Trans == sqlmini.TransOldUpdated || !ref.updateDoomed(eff, w) {
				return true
			}
		}
		return false
	}
	return true // unknown view: never prune
}

// insertDoomed reports that no row produced by this INSERT statement —
// even after updates by any rule — can satisfy the witness constraints.
func (ref *refinement) insertDoomed(eff *absint.StmtEffect, w *absint.Witness) bool {
	for _, col := range w.Cons.SortedCols() {
		need := w.Cons[col]
		could := eff.InsertVals.Get(col)
		if rescue, ok := ref.updJoin[schema.ColRef(w.Table, col)]; ok {
			could = could.Join(rescue)
		}
		if could.Disjoint(need) {
			return true
		}
	}
	return false
}

// updateDoomed reports that a row last written by this UPDATE statement
// cannot satisfy the witness constraints on its always-written columns.
func (ref *refinement) updateDoomed(eff *absint.StmtEffect, w *absint.Witness) bool {
	for _, col := range w.Cons.SortedCols() {
		if !ref.alwaysWrites[schema.ColRef(w.Table, col)] {
			continue // column may survive from before the suffix: no test
		}
		if eff.SetVals.Get(col).Disjoint(w.Cons[col]) {
			return true
		}
	}
	return false
}

// cannotSupply renders the reason rule i is not a provider of w.
func (ref *refinement) cannotSupply(i int, w *absint.Witness) string {
	name := ref.set.Rules()[i].Name
	var phrase string
	switch w.Trans {
	case sqlmini.TransInserted:
		phrase = "insert into " + w.Table
	case sqlmini.TransDeleted:
		phrase = "delete from " + w.Table
	default:
		phrase = "update of " + w.Table
	}
	member := false
	for _, eff := range ref.effects[i] {
		if eff.Table != w.Table {
			continue
		}
		switch {
		case w.Trans == sqlmini.TransInserted && eff.Kind == absint.EffInsert,
			w.Trans == sqlmini.TransDeleted && eff.Kind == absint.EffDelete,
			(w.Trans == sqlmini.TransNewUpdated || w.Trans == sqlmini.TransOldUpdated) && eff.Kind == absint.EffUpdate:
			member = true
		}
	}
	if !member {
		return fmt.Sprintf("%s performs no %s", name, phrase)
	}
	return fmt.Sprintf("no %s by %s can reach the required values", phrase, name)
}

// witnessDesc renders a witness for justifications, e.g.
// "inserted(w) where flag ∈ {1} and v ∈ [60,inf)".
func witnessDesc(w *absint.Witness) string {
	d := w.Trans.String() + "(" + w.Table + ")"
	var parts []string
	for _, col := range w.Cons.SortedCols() {
		if w.Cons[col].IsTop() {
			continue
		}
		parts = append(parts, col+" in "+w.Cons[col].String())
	}
	if len(parts) > 0 {
		d += " where " + strings.Join(parts, " and ")
	}
	return d
}

func (ref *refinement) sortedPrunedEdges() []PrunedEdge {
	rs := ref.set.Rules()
	out := make([]PrunedEdge, 0, len(ref.pruned))
	for key, why := range ref.pruned {
		out = append(out, PrunedEdge{From: rs[key[0]].Name, To: rs[key[1]].Name, Why: why})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

func (ref *refinement) deadDischarges() []RefinementDischarge {
	var out []RefinementDischarge
	for i, r := range ref.set.Rules() {
		if ref.dead[i] {
			out = append(out, RefinementDischarge{Rule: r.Name, Why: ref.deadWhy[i]})
		}
	}
	return out // definition order; names unique
}

// edgePruned reports (and justifies) a pruned triggering edge.
func (ref *refinement) edgePruned(from, to *rules.Rule) (string, bool) {
	why, ok := ref.pruned[[2]int{from.Index(), to.Index()}]
	return why, ok
}

func (ref *refinement) recordUpgrade(ri, rj *rules.Rule, whys []string) {
	a, b := ri, rj
	if a.Index() > b.Index() {
		a, b = b, a
	}
	key := [2]int{a.Index(), b.Index()}
	if _, ok := ref.upgrades[key]; !ok {
		ref.upgrades[key] = CommuteUpgrade{A: a.Name, B: b.Name, Why: whys}
	}
}

// Upgrades returns every commute upgrade recorded so far, sorted by
// pair. Nil when refinement is off.
func (a *Analyzer) Upgrades() []CommuteUpgrade {
	if a.ref == nil {
		return nil
	}
	out := make([]CommuteUpgrade, 0, len(a.ref.upgrades))
	for _, up := range a.ref.upgrades {
		out = append(out, up)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// ---------------------------------------------------------------------
// Lemma 6.1 reason discharge.
// ---------------------------------------------------------------------

// dischargeReasons tries to discharge every noncommutativity reason for
// the pair. It returns the reasons that survive and a justification for
// each discharged one. An empty remainder upgrades the pair verdict.
func (a *Analyzer) dischargeReasons(ri, rj *rules.Rule, reasons []NoncommuteReason) (remaining []NoncommuteReason, whys []string) {
	ref := a.ref
	if ref.dead[ri.Index()] || ref.dead[rj.Index()] {
		dead := ri
		if !ref.dead[ri.Index()] {
			dead = rj
		}
		return nil, []string{fmt.Sprintf("%s is dead: %s", dead.Name, ref.deadWhy[dead.Index()])}
	}
	byName := map[string]*rules.Rule{ri.Name: ri, rj.Name: rj}
	for _, r := range reasons {
		from, to := byName[r.From], byName[r.To]
		if from == nil || to == nil {
			remaining = append(remaining, r)
			continue
		}
		why, ok := a.dischargeReason(from, to, r)
		if ok {
			whys = append(whys, fmt.Sprintf("(%d) %s", r.Cond, why))
		} else {
			remaining = append(remaining, r)
		}
	}
	return remaining, whys
}

func (a *Analyzer) dischargeReason(from, to *rules.Rule, r NoncommuteReason) (string, bool) {
	switch r.Cond {
	case 1:
		// The triggering is spurious: when only from's effects populate
		// to's fresh per-rule suffix, to's condition is false, so the
		// extra consideration is a no-op and the orders converge.
		if why, ok := a.ref.edgePruned(from, to); ok {
			return why, true
		}
	case 3:
		return a.dischargeCond3(from, to)
	case 4:
		return a.dischargeCond4(from, to)
	case 5:
		return a.dischargeCond5(from, to)
	}
	// Conditions 2 and 7 are discharged only via dead rules (handled by
	// the caller).
	return "", false
}

// pairStable returns the columns of table t that no UPDATE statement of
// either rule writes — columns whose value is invariant across the
// two-rule window.
func (a *Analyzer) pairStable(from, to *rules.Rule, table string) map[string]bool {
	t := a.set.Schema().Table(table)
	if t == nil {
		return nil
	}
	stable := map[string]bool{}
	for _, c := range t.ColumnNames() {
		stable[c] = true
	}
	for _, r := range []*rules.Rule{from, to} {
		for _, eff := range a.ref.effects[r.Index()] {
			if eff.Kind == absint.EffUpdate && eff.Table == table {
				for c := range eff.SetVals {
					delete(stable, c)
				}
			}
		}
	}
	return stable
}

// pairUpdJoin joins the SET values both rules can write to t.c —
// the values an inserted row's column can be "rescued" to within the
// pair window. The bool reports whether any such update exists.
func (a *Analyzer) pairUpdJoin(from, to *rules.Rule, table, col string) (absint.Abs, bool) {
	var acc absint.Abs
	found := false
	for _, r := range []*rules.Rule{from, to} {
		for _, eff := range a.ref.effects[r.Index()] {
			if eff.Kind != absint.EffUpdate || eff.Table != table {
				continue
			}
			v, ok := eff.SetVals[col]
			if !ok {
				continue
			}
			if found {
				acc = acc.Join(v)
			} else {
				acc, found = v, true
			}
		}
	}
	return acc, found
}

// stmtsOf returns the rule's statement effects of one kind on a table.
func (a *Analyzer) stmtsOf(r *rules.Rule, kind absint.EffectKind, table string) []*absint.StmtEffect {
	var out []*absint.StmtEffect
	for _, eff := range a.ref.effects[r.Index()] {
		if eff.Kind == kind && eff.Table == table {
			out = append(out, eff)
		}
	}
	return out
}

// insertExcluded reports that no row produced by the INSERT statement —
// including pair-window update rescues — can satisfy scope.
func (a *Analyzer) insertExcluded(from, to *rules.Rule, ins *absint.StmtEffect, scope absint.Constraints) bool {
	for _, k := range scope.SortedCols() {
		could := ins.InsertVals.Get(k)
		if rescue, ok := a.pairUpdJoin(from, to, ins.Table, k); ok {
			could = could.Join(rescue)
		}
		if could.Disjoint(scope[k]) {
			return true
		}
	}
	return false
}

// scopesDisjointOnStable reports that the two row scopes are disjoint
// on some pair-stable column: the row sets they select can never
// intersect during the pair window.
func scopesDisjointOnStable(stable map[string]bool, s1, s2 absint.Constraints) bool {
	for _, k := range s1.SortedCols() {
		if stable[k] && s1[k].Disjoint(s2.Get(k)) {
			return true
		}
	}
	return false
}

// dischargeCond3 shows that from's writes cannot affect anything to
// reads: every performed operation of from is checked against every
// read context of to on the same table, with a per-kind argument. A
// defensive completeness check demands the read contexts cover the
// full syntactic read set; operations with no backing
// statement summary (e.g. the fictional Obs writes of observable rules)
// fail conservatively.
func (a *Analyzer) dischargeCond3(from, to *rules.Rule) (string, bool) {
	for _, op := range a.view.of(from).performsSorted {
		var ctxs []*absint.ReadContext
		covered := map[string]bool{}
		for _, ctx := range a.ref.ctxs[to.Index()] {
			if ctx.Table == op.Table {
				ctxs = append(ctxs, ctx)
				for c := range ctx.Cols {
					covered[c] = true
				}
			}
		}
		// Completeness: the contexts must account for every syntactic
		// read of this table, else a column reference went unbound (or
		// the read lives outside sqlmini, like the Obs view) and no
		// discharge is safe. Both sets come from one sqlmini.Inspect
		// walk, so a clause it skipped would be missing from both;
		// inspect_test.go's oracle rules that out.
		readsTable := false
		for _, cr := range a.view.of(to).readsSorted {
			if cr.Table != op.Table {
				continue
			}
			readsTable = true
			if !covered[cr.Column] {
				return "", false
			}
		}
		if !readsTable {
			continue // this op cannot touch to's reads at all
		}
		for _, ctx := range ctxs {
			if ctx.Scope.HasBottom() {
				continue // the context can never select a row
			}
			if !a.opInvisibleToCtx(from, to, op, ctx) {
				return "", false
			}
		}
	}
	return fmt.Sprintf("no write of %s reaches a row %s reads (disjoint or invisible scopes)", from.Name, to.Name), true
}

// opInvisibleToCtx is the per-(operation kind × read view) discharge
// matrix for condition 3.
func (a *Analyzer) opInvisibleToCtx(from, to *rules.Rule, op schema.Op, ctx *absint.ReadContext) bool {
	stable := a.pairStable(from, to, op.Table)
	switch op.Kind {
	case schema.OpInsert:
		switch ctx.Trans {
		case sqlmini.TransDeleted, sqlmini.TransNewUpdated, sqlmini.TransOldUpdated:
			// Inserts are invisible to these views: insert-then-update
			// nets to an insert, insert-then-delete nets to nothing.
			return true
		}
		// Base table or inserted view: every inserted row must fall
		// outside the context's scope, update rescues included.
		stmts := a.stmtsOf(from, absint.EffInsert, op.Table)
		if len(stmts) == 0 {
			return false // op without statement backing (e.g. Obs)
		}
		for _, ins := range stmts {
			if !a.insertExcluded(from, to, ins, ctx.Scope) {
				return false
			}
		}
		return true
	case schema.OpUpdate:
		if ctx.Trans == sqlmini.TransDeleted {
			// Updates never add to the deleted view, and deleted-view
			// rows show mark-time values, not current ones.
			return true
		}
		// The updated rows and the read rows must be provably disjoint
		// on a column neither rule writes.
		stmts := a.stmtsOf(from, absint.EffUpdate, op.Table)
		matched := false
		for _, st := range stmts {
			if _, ok := st.SetVals[op.Column]; !ok {
				continue // different column's op backs another statement
			}
			matched = true
			if st.Scope.HasBottom() {
				continue // statement can never select a row
			}
			if !scopesDisjointOnStable(stable, ctx.Scope, st.Scope) &&
				!scopesDisjointOnStable(stable, st.Scope, ctx.Scope) {
				return false
			}
		}
		return matched
	case schema.OpDelete:
		switch ctx.Trans {
		case sqlmini.TransDeleted, sqlmini.TransOldUpdated:
			// A delete adds rows to the deleted view (and mark-time
			// values are beyond the abstraction): not dischargeable.
			return false
		}
		stmts := a.stmtsOf(from, absint.EffDelete, op.Table)
		if len(stmts) == 0 {
			return false
		}
		for _, st := range stmts {
			if st.Scope.HasBottom() {
				continue
			}
			if !scopesDisjointOnStable(stable, ctx.Scope, st.Scope) &&
				!scopesDisjointOnStable(stable, st.Scope, ctx.Scope) {
				return false
			}
		}
		return true
	}
	return false
}

// dischargeCond4 shows that from's inserted rows can never fall within
// the scope of to's deletes or updates (rescue updates included), so
// the relative order of the insert and the delete/update is invisible.
func (a *Analyzer) dischargeCond4(from, to *rules.Rule) (string, bool) {
	for _, op := range a.view.of(from).performsSorted {
		if op.Kind != schema.OpInsert {
			continue
		}
		var toWrites []*absint.StmtEffect
		toTouches := false
		for _, opJ := range a.view.of(to).performsSorted {
			if opJ.Table == op.Table && (opJ.Kind == schema.OpDelete || opJ.Kind == schema.OpUpdate) {
				toTouches = true
			}
		}
		if !toTouches {
			continue
		}
		toWrites = append(a.stmtsOf(to, absint.EffDelete, op.Table), a.stmtsOf(to, absint.EffUpdate, op.Table)...)
		if len(toWrites) == 0 {
			return "", false // op without statement backing
		}
		ins := a.stmtsOf(from, absint.EffInsert, op.Table)
		if len(ins) == 0 {
			return "", false
		}
		for _, insStmt := range ins {
			for _, w := range toWrites {
				if w.Scope.HasBottom() {
					continue
				}
				if !a.insertExcluded(from, to, insStmt, w.Scope) {
					return "", false
				}
			}
		}
	}
	return fmt.Sprintf("rows inserted by %s never fall in the delete/update scope of %s", from.Name, to.Name), true
}

// dischargeCond5 shows that the two rules' updates of shared columns
// act on provably disjoint row sets (disjoint scopes on a pair-stable
// column), so their order is irrelevant.
func (a *Analyzer) dischargeCond5(from, to *rules.Rule) (string, bool) {
	perfTo := a.view.performs(to)
	for _, op := range a.view.of(from).performsSorted {
		if op.Kind != schema.OpUpdate || !perfTo.Contains(op) {
			continue
		}
		stable := a.pairStable(from, to, op.Table)
		fromStmts := a.stmtsOf(from, absint.EffUpdate, op.Table)
		toStmts := a.stmtsOf(to, absint.EffUpdate, op.Table)
		fromMatched, toMatched := false, false
		for _, sf := range fromStmts {
			if _, ok := sf.SetVals[op.Column]; !ok {
				continue
			}
			fromMatched = true
			for _, st := range toStmts {
				if _, ok := st.SetVals[op.Column]; !ok {
					continue
				}
				toMatched = true
				if sf.Scope.HasBottom() || st.Scope.HasBottom() {
					continue
				}
				if !scopesDisjointOnStable(stable, sf.Scope, st.Scope) &&
					!scopesDisjointOnStable(stable, st.Scope, sf.Scope) {
					return "", false
				}
			}
		}
		if !fromMatched || !toMatched {
			return "", false // ops without statement backing
		}
	}
	return fmt.Sprintf("updates of %s and %s act on disjoint rows (scopes disjoint on a stable column)", from.Name, to.Name), true
}
