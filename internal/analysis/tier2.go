package analysis

// Tier-2 termination: chase-style discharge of cyclic triggering
// components (DESIGN.md §12).
//
// Theorem 5.1 accepts a rule set only when TG_R is acyclic. The chase-
// termination literature (Meier/Schmidt/Lausen; Gerlach/Carral) widens
// the accepted class by stratifying the dependency graph and analyzing
// only the cyclic cores. This file does the analogue for production
// rules: the condensation of the (refinement-pruned) triggering graph
// is stratified topologically, and each cyclic SCC is attacked with
// per-rule certificates proving that some rule on every cycle fires
// WITH EFFECT only finitely often — the paper's Section 5 notion of a
// discharged rule, derived automatically from internal/absint instead
// of interactively from the user.
//
// Three certificate kinds, each a well-founded measure argument:
//
//   - ranking: every statement of r adjusts one column t.c strictly
//     toward a bound proven from its own WHERE scope, by a step bounded
//     away from zero; no undischarged rule inserts into t or adjusts
//     t.c against the direction. Measure: total remaining distance to
//     the bound, in steps.
//   - delete-only: every statement of r deletes; every insert into a
//     deleted table by an undischarged rule is provably outside the
//     delete scope (and cannot be rescued into it by any update).
//     Measure: rows of the deleted tables that the scopes can select —
//     a deleted row is gone for good.
//   - convergent-update: every statement of r updates t.c, writing
//     values provably disjoint from its own selection scope on c; no
//     undischarged rule writes t.c into that scope. Measure: number of
//     rows with c still inside the scope (the update is idempotent:
//     once converged, a row is never selected again).
//
// Interference checks quantify over the UNDISCHARGED rules of the whole
// analysis universe, not just the SCC: a rule downstream of the SCC can
// replenish a drained table without any triggering edge back into the
// component (see TestDischargeBlockedByDownstreamReplenisher*). Excluding
// already-discharged rules is sound by induction on the discharge
// order: each earlier certificate bounds that rule's effective firings,
// so its total interference is finite and shifts the measure by a
// finite amount (§12 spells this out).

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"activerules/internal/absint"
	"activerules/internal/rules"
	"activerules/internal/sqlmini"
)

// TerminationStatus is the three-valued outcome of the tiered
// termination analysis.
type TerminationStatus int

const (
	// TermUnknown: some cyclic SCC survives every discharge attempt;
	// termination is not guaranteed.
	TermUnknown TerminationStatus = iota
	// TermAcyclic: the (pruned) triggering graph has no cyclic SCC
	// once user-certified and dead rules are removed — Theorem 5.1
	// applies directly.
	TermAcyclic
	// TermCycleDischarged: cyclic SCCs exist, but tier 2 discharged
	// every one with a certificate.
	TermCycleDischarged
)

// String renders the status as shown in reports and JSON.
func (s TerminationStatus) String() string {
	switch s {
	case TermAcyclic:
		return "acyclic"
	case TermCycleDischarged:
		return "cycle-discharged"
	default:
		return "unknown"
	}
}

// MarshalJSON renders the status as its string form.
func (s TerminationStatus) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON accepts the string form emitted by MarshalJSON, so the
// status round-trips through persisted reports (e.g. tenant manifests).
func (s *TerminationStatus) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	switch name {
	case "acyclic":
		*s = TermAcyclic
	case "cycle-discharged":
		*s = TermCycleDischarged
	case "unknown":
		*s = TermUnknown
	default:
		return fmt.Errorf("unknown termination status %q", name)
	}
	return nil
}

// DischargeStep is one tier-2 certificate: a proof that one rule of a
// cyclic SCC fires with effect only finitely often.
type DischargeStep struct {
	// Rule is the discharged rule.
	Rule string `json:"rule"`
	// Kind names the discharge rule: "ranking", "delete-only", or
	// "convergent-update".
	Kind string `json:"kind"`
	// Column (ranking, convergent-update) names the measured column as
	// "table.column".
	Column string `json:"column,omitempty"`
	// Direction (ranking) is "decreasing" or "increasing".
	Direction string `json:"direction,omitempty"`
	// Why states the proof obligation that was checked.
	Why string `json:"why"`
}

// DischargeFailure explains, for one discharge kind, why no rule of a
// blocked SCC could be discharged — anchored to the rule whose attempt
// got furthest, so the user knows what to guard.
type DischargeFailure struct {
	Kind string `json:"kind"`
	Rule string `json:"rule"`
	Why  string `json:"why"`
}

// SCCVerdict is the tier-2 outcome for one cyclic strong component of
// the analyzed triggering graph. IDs are assigned in the deterministic
// component order of CyclicSCCs and are stable across runs and worker
// counts.
type SCCVerdict struct {
	ID int `json:"id"`
	// Stratum is the topological layer of the SCC in the condensation
	// of the analyzed graph (sources are stratum 1) — the chase-style
	// stratification order.
	Stratum int `json:"stratum"`
	// Members are the component's rules, sorted by name.
	Members []string `json:"members"`
	// Discharged reports that no member remains on a feasible cycle.
	Discharged bool `json:"discharged"`
	// Certificate lists the discharge steps that broke the component,
	// in the order they were established.
	Certificate []DischargeStep `json:"certificate,omitempty"`
	// Residual lists members still on a cycle (empty when discharged).
	Residual []string `json:"residual,omitempty"`
	// Failures explains, per discharge kind, why the residual could not
	// be discharged.
	Failures []DischargeFailure `json:"failures,omitempty"`
}

// tier2 is the per-analysis discharge engine. It is built fresh inside
// TerminationOf and writes no analyzer state: the statement effects it
// reasons over are the refinement's immutable summaries when refinement
// is on, and otherwise derived here, per rule, on first use. Verdicts
// stay independent of other analyses.
type tier2 struct {
	a        *Analyzer
	universe []*rules.Rule // rules that actually execute in this analysis
	// discharged is shared with the TerminationOf loop: certificates
	// established earlier exclude their rules from interference checks
	// (sound by induction on discharge order, §12).
	discharged map[string]bool
	effects    map[*rules.Rule][]*absint.StmtEffect // refinement off only
}

func newTier2(a *Analyzer, universe []*rules.Rule, discharged map[string]bool) *tier2 {
	return &tier2{a: a, universe: universe, discharged: discharged,
		effects: map[*rules.Rule][]*absint.StmtEffect{}}
}

// effectsOf returns the abstract effects of r's action statements.
func (e *tier2) effectsOf(r *rules.Rule) []*absint.StmtEffect {
	if e.a.ref != nil {
		return e.a.ref.effects[r.Index()]
	}
	effs, ok := e.effects[r]
	if !ok {
		effs = absint.StatementEffects(e.a.set.Schema(), r.Action)
		e.effects[r] = effs
	}
	return effs
}

// attemptFail records how far one certificate attempt got: shape
// failures rank below interference failures, so the reported blocker is
// the most informative one.
type attemptFail struct {
	stage int
	why   string
}

var dischargeKinds = []string{"ranking", "delete-only", "convergent-update"}

// tryDischarge attempts the three discharge rules in order and returns
// the first certificate that holds, or the per-kind failures.
func (e *tier2) tryDischarge(r *rules.Rule) (DischargeStep, map[string]attemptFail, bool) {
	fails := make(map[string]attemptFail, 3)
	if step, fail := e.tryRanking(r); fail == nil {
		return step, nil, true
	} else {
		fails["ranking"] = *fail
	}
	if step, fail := e.tryDeleteOnly(r); fail == nil {
		return step, nil, true
	} else {
		fails["delete-only"] = *fail
	}
	if step, fail := e.tryConvergent(r); fail == nil {
		return step, nil, true
	} else {
		fails["convergent-update"] = *fail
	}
	return DischargeStep{}, fails, false
}

// interferers yields the undischarged universe rules other than r, in
// definition order.
func (e *tier2) interferers(r *rules.Rule) []*rules.Rule {
	out := make([]*rules.Rule, 0, len(e.universe))
	for _, s := range e.universe {
		if s != r && !e.discharged[s.Name] {
			out = append(out, s)
		}
	}
	return out
}

// tryRanking attempts the ranking-function certificate: every
// statement of r is an UPDATE adjusting one common column t.c strictly
// toward a bound proven from its own WHERE scope, by a step bounded
// away from zero, and no undischarged rule can replenish the supply
// (insert into t) or move t.c against the direction.
func (e *tier2) tryRanking(r *rules.Rule) (DischargeStep, *attemptFail) {
	shapeFail := func(why string) (DischargeStep, *attemptFail) {
		return DischargeStep{}, &attemptFail{stage: 0, why: why}
	}
	if len(r.Action) == 0 {
		return shapeFail("action has no statements to rank")
	}
	var table, col string
	increasing := false
	var worstStep float64 // smallest guaranteed |delta| across statements
	var bound float64     // the approached bound (over all statement scopes)
	for i, st := range r.Action {
		up, ok := st.(*sqlmini.Update)
		if !ok {
			return shapeFail(fmt.Sprintf("statement %d is not an update", i+1))
		}
		if i == 0 {
			table = up.Table
			// Candidate column: the first SET column (in clause order)
			// with a self-relative delta.
			for _, sc := range up.Sets {
				if _, ok := absint.SetDelta(up, sc.Column); ok {
					col = sc.Column
					break
				}
			}
			if col == "" {
				return shapeFail(fmt.Sprintf("no SET column of %s is a self-relative adjustment (c = c ± e)", table))
			}
		} else if up.Table != table {
			return shapeFail(fmt.Sprintf("statement %d updates %s, not %s", i+1, up.Table, table))
		}
		delta, ok := absint.SetDelta(up, col)
		if !ok {
			return shapeFail(fmt.Sprintf("statement %d does not adjust %s.%s relative to its old value", i+1, table, col))
		}
		if !delta.NumOnly() {
			return shapeFail(fmt.Sprintf("statement %d: step %s is not provably numeric and non-null", i+1, delta))
		}
		lo, hi, _, _, _ := delta.NumBounds()
		var inc bool
		var step float64
		switch {
		case hi < 0:
			inc, step = false, -hi
		case lo > 0:
			inc, step = true, lo
		default:
			return shapeFail(fmt.Sprintf("statement %d: step %s is not bounded away from zero", i+1, delta))
		}
		if i == 0 {
			increasing = inc
			worstStep = step
		} else if inc != increasing {
			return shapeFail(fmt.Sprintf("statement %d moves %s.%s in the opposite direction", i+1, table, col))
		} else if step < worstStep {
			worstStep = step
		}
		scope := absint.RowConstraints(up.Where, up.Table)
		bnd := scope.Get(col)
		if !bnd.NumOnly() {
			return shapeFail(fmt.Sprintf("statement %d: scope does not pin %s.%s to numbers (%s)", i+1, table, col, bnd))
		}
		blo, bhi, _, _, _ := bnd.NumBounds()
		switch {
		case !increasing && math.IsInf(blo, -1):
			return shapeFail(fmt.Sprintf("statement %d decreases %s.%s but its scope has no lower bound", i+1, table, col))
		case increasing && math.IsInf(bhi, 1):
			return shapeFail(fmt.Sprintf("statement %d increases %s.%s but its scope has no upper bound", i+1, table, col))
		}
		b := blo
		if increasing {
			b = bhi
		}
		if i == 0 || (!increasing && b < bound) || (increasing && b > bound) {
			bound = b
		}
	}
	// Global interference: over every undischarged rule that executes in
	// this analysis, not just the SCC — a downstream rule can replenish
	// t with no edge back into the component.
	for _, s := range e.interferers(r) {
		for _, eff := range e.effectsOf(s) {
			if eff.Table != table {
				continue
			}
			switch eff.Kind {
			case absint.EffInsert:
				return DischargeStep{}, &attemptFail{stage: 1,
					why: fmt.Sprintf("undischarged rule %s inserts into %s and can replenish the ranked rows", s.Name, table)}
			case absint.EffUpdate:
				if _, sets := eff.SetVals[col]; !sets {
					continue
				}
				if fail := e.rankingWriteOK(s, table, col, increasing); fail != "" {
					return DischargeStep{}, &attemptFail{stage: 1,
						why: fmt.Sprintf("undischarged rule %s %s", s.Name, fail)}
				}
			}
		}
	}
	dir, verb, side := "decreasing", "decreases", "lower"
	if increasing {
		dir, verb, side = "increasing", "increases", "upper"
	}
	return DischargeStep{
		Rule: r.Name, Kind: "ranking",
		Column: table + "." + col, Direction: dir,
		Why: fmt.Sprintf("every firing strictly %s %s.%s by at least %s toward the proven %s bound %s; no undischarged rule inserts into %s or moves %s.%s the other way",
			verb, table, col, absint.FormatNum(worstStep), side, absint.FormatNum(bound), table, table, col),
	}, nil
}

// rankingWriteOK checks that every update of col by s is a
// self-relative adjustment that cannot move the column against the
// ranked direction (a zero or null delta is fine: it never increases
// the measure). Returns a failure description, or "".
func (e *tier2) rankingWriteOK(s *rules.Rule, table, col string, increasing bool) string {
	for _, st := range s.Action {
		up, ok := st.(*sqlmini.Update)
		if !ok || up.Table != table {
			continue
		}
		hasCol := false
		for _, sc := range up.Sets {
			if sc.Column == col {
				hasCol = true
			}
		}
		if !hasCol {
			continue
		}
		delta, ok := absint.SetDelta(up, col)
		if !ok {
			return fmt.Sprintf("writes %s.%s non-relatively and may reset the measure", up.Table, col)
		}
		lo, hi, _, _, num := delta.NumBounds()
		if num && ((increasing && lo < 0) || (!increasing && hi > 0)) {
			return fmt.Sprintf("may move %s.%s against the ranked direction (step %s)", up.Table, col, delta)
		}
	}
	return ""
}

// tryDeleteOnly attempts the delete-only certificate: every statement
// of r deletes, and every insert into a deleted table by an
// undischarged rule is provably outside the delete scope on some
// column — where "outside" must survive every undischarged update of
// that column (the rescue join), so an excluded row can never be moved
// into the scope.
func (e *tier2) tryDeleteOnly(r *rules.Rule) (DischargeStep, *attemptFail) {
	effs := e.effectsOf(r)
	if len(effs) == 0 {
		return DischargeStep{}, &attemptFail{stage: 0, why: "action performs no deletes"}
	}
	for i, eff := range effs {
		if eff.Kind != absint.EffDelete {
			return DischargeStep{}, &attemptFail{stage: 0,
				why: fmt.Sprintf("statement %d does not delete (%s effect)", i+1, eff.Kind)}
		}
	}
	others := e.interferers(r)
	var tables []string
	seen := map[string]bool{}
	for _, eff := range effs {
		if !seen[eff.Table] {
			seen[eff.Table] = true
			tables = append(tables, eff.Table)
		}
		for _, s := range others {
			for _, oeff := range e.effectsOf(s) {
				if oeff.Kind != absint.EffInsert || oeff.Table != eff.Table {
					continue
				}
				if !e.insertExcludedFromScope(oeff, eff.Scope, others) {
					return DischargeStep{}, &attemptFail{stage: 1,
						why: fmt.Sprintf("undischarged rule %s inserts into %s and the rows may re-enter the delete scope", s.Name, eff.Table)}
				}
			}
		}
	}
	sort.Strings(tables)
	return DischargeStep{
		Rule: r.Name, Kind: "delete-only",
		Why: fmt.Sprintf("action only deletes (from %s); no undischarged rule can put a deletable row back, so every effective firing permanently shrinks the supply",
			strings.Join(tables, ", ")),
	}, nil
}

// insertExcludedFromScope reports that every row the insert produces is
// provably outside scope on some column, even after every undischarged
// update of that column (whose written values are joined in — the same
// rescue-join argument refine.go uses for edge pruning).
func (e *tier2) insertExcludedFromScope(ins *absint.StmtEffect, scope absint.Constraints, others []*rules.Rule) bool {
	for _, col := range scope.SortedCols() {
		could := ins.InsertVals.Get(col)
		for _, s := range others {
			for _, oeff := range e.effectsOf(s) {
				if oeff.Kind == absint.EffUpdate && oeff.Table == ins.Table {
					if w, ok := oeff.SetVals[col]; ok {
						could = could.Join(w)
					}
				}
			}
		}
		if could.Disjoint(scope.Get(col)) {
			return true
		}
	}
	return false
}

// tryConvergent attempts the convergent-update (cardinality)
// certificate: every statement of r updates one common column t.c,
// writing values provably disjoint from the union of the statements'
// selection scopes on c, and no undischarged rule writes t.c into that
// scope (by update or insert). Re-applying the update to a converged
// row is impossible, so the count of unconverged rows strictly
// decreases on every effective firing.
func (e *tier2) tryConvergent(r *rules.Rule) (DischargeStep, *attemptFail) {
	shapeFail := func(why string) (DischargeStep, *attemptFail) {
		return DischargeStep{}, &attemptFail{stage: 0, why: why}
	}
	effs := e.effectsOf(r)
	if len(effs) == 0 {
		return shapeFail("action performs no updates")
	}
	var table, col string
	for i, eff := range effs {
		if eff.Kind != absint.EffUpdate {
			return shapeFail(fmt.Sprintf("statement %d does not update (%s effect)", i+1, eff.Kind))
		}
		if i == 0 {
			table = eff.Table
			// Candidate column: the first SET column (sorted) whose own
			// scope already excludes the written values.
			for _, c := range eff.SetCols() {
				if eff.SetVals.Get(c).Disjoint(eff.Scope.Get(c)) {
					col = c
					break
				}
			}
			if col == "" {
				return shapeFail(fmt.Sprintf("no SET column's written values are provably outside the update's own scope on %s", table))
			}
		} else if eff.Table != table {
			return shapeFail(fmt.Sprintf("statement %d updates %s, not %s", i+1, eff.Table, table))
		}
		if _, ok := eff.SetVals[col]; !ok {
			return shapeFail(fmt.Sprintf("statement %d does not write %s.%s", i+1, table, col))
		}
	}
	// The unconverged region: union of the statements' scopes on col.
	region := absint.Bottom()
	for _, eff := range effs {
		region = region.Join(eff.Scope.Get(col))
	}
	written := absint.Bottom()
	for i, eff := range effs {
		w := eff.SetVals.Get(col)
		if !w.Disjoint(region) {
			return shapeFail(fmt.Sprintf("statement %d may write %s.%s back into the update scope (%s vs %s)",
				i+1, table, col, w, region))
		}
		written = written.Join(w)
	}
	for _, s := range e.interferers(r) {
		for _, eff := range e.effectsOf(s) {
			if eff.Table != table {
				continue
			}
			switch eff.Kind {
			case absint.EffInsert:
				if !eff.InsertVals.Get(col).Disjoint(region) {
					return DischargeStep{}, &attemptFail{stage: 1,
						why: fmt.Sprintf("undischarged rule %s may insert rows with %s.%s inside the update scope", s.Name, table, col)}
				}
			case absint.EffUpdate:
				if w, ok := eff.SetVals[col]; ok && !w.Disjoint(region) {
					return DischargeStep{}, &attemptFail{stage: 1,
						why: fmt.Sprintf("undischarged rule %s may write %s.%s back into the update scope", s.Name, table, col)}
				}
			}
		}
	}
	return DischargeStep{
		Rule: r.Name, Kind: "convergent-update",
		Column: table + "." + col,
		Why: fmt.Sprintf("every firing moves %s.%s from %s to %s, and no undischarged rule writes it back: the count of unconverged rows strictly decreases",
			table, col, region, written),
	}, nil
}

// bestFailures aggregates, per discharge kind, the most advanced
// failure over the residual members — deterministic: members are
// name-sorted and the first rule at the maximal stage wins.
func bestFailures(attempts map[string]map[string]attemptFail, residual []string) []DischargeFailure {
	var out []DischargeFailure
	for _, kind := range dischargeKinds {
		best := DischargeFailure{Kind: kind}
		bestStage := -1
		for _, name := range residual {
			fail, ok := attempts[name][kind]
			if !ok {
				continue
			}
			if fail.stage > bestStage {
				bestStage = fail.stage
				best.Rule, best.Why = name, fail.why
			}
		}
		if bestStage >= 0 {
			out = append(out, best)
		}
	}
	return out
}
