package analysis

// The reference analyzer: the paper's analyses of one rule set written
// once, from the definitions, over maps and naive fixpoints, caching
// nothing of its own. The differential tests of oracle_test.go hold the
// analyzer to it — verdicts, shard plans, lint results and their text.
//
// Trust boundary. The reference re-derives everything structural: TG_R
// and its strong components (Theorem 5.1), R1 and R2 (Definition 6.5),
// the Confluence Requirement (Theorem 6.7), Sig (Definition 7.1), the Obs
// view (Theorem 8.1), the shard partition, RL003 and RL004, and the text
// of plans and lint results. It takes as inputs, each owned elsewhere:
// Lemma 6.1 per pair, through Analyzer.Commute on an analyzer of its own
// (TestVerdictTableMatchesLemma, commute_test.go); refinement's absint
// judgments (pruned edges, dead rules, upgrades); the tier-2 certificates
// (tryDischarge, bestFailures); the user's Certification; and the RL001,
// RL002, RL005, RL006 and RL007 detectors.

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"

	"activerules/internal/rules"
	"activerules/internal/schema"
)

// buildTriggeringGraphNaive is TG_R by its definition, every rule pair
// intersected: ri -> rj iff Performs(ri) meets Triggered-By(rj). It is
// the reference's graph and the ablation baseline of the indexed build.
func buildTriggeringGraphNaive(set *rules.Set) *TriggeringGraph {
	g := &TriggeringGraph{set: set, adj: make([][]int, set.Len())}
	for _, ri := range set.Rules() {
		for _, rj := range set.Triggers(ri) {
			g.adj[ri.Index()] = append(g.adj[ri.Index()], rj.Index())
		}
	}
	return g
}

// reference is the analyses over a's rule set, reading a's inputs.
type reference struct {
	a      *Analyzer
	set    *rules.Set
	tg     *TriggeringGraph // TG_R
	pruned [][]*rules.Rule  // TG_R without certified and refinement-pruned edges, by rule index
	obs    string           // Theorem 8.1's table, on an Obs view
	ext    []*rules.Rule    // the rules an Obs view extends
}

func newReference(a *Analyzer) *reference {
	r := &reference{a: a, set: a.set, tg: buildTriggeringGraphNaive(a.set), pruned: make([][]*rules.Rule, a.set.Len())}
	all := a.set.Rules()
	for i, row := range r.tg.adj {
		for _, j := range row {
			cut := a.cert.EdgeDischarged(all[i].Name, all[j].Name)
			if a.ref != nil && !cut {
				_, cut = a.ref.edgePruned(all[i], all[j])
			}
			if !cut {
				r.pruned[i] = append(r.pruned[i], all[j])
			}
		}
	}
	return r
}

// withObs is the reference over Theorem 8.1's view of the members: each
// observable member also performs (I, obs) and reads obs.c, for a table
// obs the schema does not have. Its Lemma 6.1 verdicts come from an
// analyzer on that view with a verdict table of its own.
func (r *reference) withObs(members []*rules.Rule) *reference {
	o := *r
	for o.obs = "obs"; r.set.Schema().HasTable(o.obs); o.obs = "_" + o.obs {
	}
	o.ext = slices.DeleteFunc(slices.Clone(members), func(x *rules.Rule) bool { return !x.Observable() })
	o.a = r.a.derive(r.a.view.withObs(o.obs, o.ext), r.a.ref)
	return &o
}

// sig is Definition 7.1 within the members (in definition order): the
// members performing an operation on a table of T', closed under "may not
// commute with a member". A candidate is put to the members in definition
// order and joins at the first that may not commute with it, so the pairs
// examined are the ones DESIGN.md §6 fixes.
func (r *reference) sig(members []*rules.Rule, tables []string) []*rules.Rule {
	want := map[string]bool{}
	for _, t := range tables {
		want[strings.ToLower(t)] = true
	}
	in := make([]bool, r.set.Len()) // by rule index
	for _, x := range members {
		in[x.Index()] = want[r.obs] && slices.Contains(r.ext, x)
		for op := range x.Performs() {
			in[x.Index()] = in[x.Index()] || want[op.Table]
		}
	}
	for changed := true; changed; {
		changed = false
		for _, x := range members {
			for _, y := range members {
				if in[x.Index()] || !in[y.Index()] {
					continue
				}
				if ok, _ := r.a.Commute(x, y); !ok {
					in[x.Index()], changed = true, true
				}
			}
		}
	}
	return r.listed(func(x *rules.Rule) bool { return in[x.Index()] }) // members only
}

// r1r2 is Definition 6.5 for the unordered pair (ri, rj), by naive
// closure: R1 gains every r ≠ rj that a member of R1 triggers and that has
// priority over a member of R2, R2 likewise with the roles swapped, until
// neither changes.
func (r *reference) r1r2(ri, rj *rules.Rule) (r1, r2 []*rules.Rule) {
	in1, in2 := map[*rules.Rule]bool{ri: true}, map[*rules.Rule]bool{rj: true}
	grow := func(in, other map[*rules.Rule]bool, excluded *rules.Rule) (changed bool) {
		for y := range in {
			for _, j := range r.tg.adj[y.Index()] {
				x := r.set.Rules()[j]
				for z := range other {
					if !in[x] && x != excluded && r.set.Higher(x, z) {
						in[x], changed = true, true
					}
				}
			}
		}
		return changed
	}
	for grow(in1, in2, rj) || grow(in2, in1, ri) {
	}
	return r.listed(func(x *rules.Rule) bool { return in1[x] }), r.listed(func(x *rules.Rule) bool { return in2[x] })
}

// listed is the rules in a set, in definition order; nil for none.
func (r *reference) listed(in func(*rules.Rule) bool) (out []*rules.Rule) {
	for _, x := range r.set.Rules() {
		if in(x) {
			out = append(out, x)
		}
	}
	return out
}

// sortedRuleNames is the rules' names, sorted.
func sortedRuleNames(rs []*rules.Rule) []string {
	out := rules.Names(rs)
	sort.Strings(out)
	return out
}

// violation is the Confluence Requirement for one unordered pair: every
// rule of R1 commutes with every rule of R2. It reports the first culprits
// with ri and rj leading their sets (the pair itself first: Corollary
// 6.8's common case) and the rest in definition order.
func (r *reference) violation(ri, rj *rules.Rule) *Violation {
	r1, r2 := r.r1r2(ri, rj)
	lead := func(first *rules.Rule, set []*rules.Rule) []*rules.Rule {
		return append([]*rules.Rule{first}, slices.DeleteFunc(slices.Clone(set), func(x *rules.Rule) bool { return x == first })...)
	}
	for _, c1 := range lead(ri, r1) {
		for _, c2 := range lead(rj, r2) {
			if ok, reasons := r.a.Commute(c1, c2); !ok {
				return &Violation{PairI: ri.Name, PairJ: rj.Name, R1: sortedRuleNames(r1), R2: sortedRuleNames(r2),
					CulpritA: c1.Name, CulpritB: c2.Name, Reasons: reasons}
			}
		}
	}
	return nil
}

// confluence is Theorem 6.7 over the members: term, and the Confluence
// Requirement for every unordered pair of them, in member order.
func (r *reference) confluence(members []*rules.Rule, term *TerminationVerdict) *ConfluenceVerdict {
	v := &ConfluenceVerdict{Termination: term}
	for i, ri := range members {
		for _, rj := range members[i+1:] {
			if r.set.Unordered(ri, rj) {
				v.PairsChecked++
				if viol := r.violation(ri, rj); viol != nil {
					v.Violations = append(v.Violations, *viol)
				}
			}
		}
	}
	v.RequirementHolds = len(v.Violations) == 0
	v.Guaranteed = v.RequirementHolds && term.Guaranteed
	if r.a.ref != nil {
		v.Upgrades = r.a.Upgrades()
	}
	return v
}

// observable is Theorem 8.1 over the members: Theorem 7.2 with respect to
// {Obs} on the Obs view, with term standing for the members' termination
// and Sig(Obs) processed on its own.
func (r *reference) observable(members []*rules.Rule, term *TerminationVerdict) *ObservableVerdict {
	o := r.withObs(members)
	sig := o.sig(members, []string{o.obs})
	return &ObservableVerdict{ObsTable: o.obs, ObservableRules: sortedRuleNames(o.ext), Termination: term,
		Partial: &PartialConfluenceVerdict{Tables: []string{o.obs}, Sig: sig, Confluence: o.confluence(sig, r.termination(sig))}}
}

// cyclic is the strong components of the pruned TG_R over the universe's
// rules not discharged, by mutual reachability, that sustain a cycle: two
// rules or more, or one with a self-loop. Members are sorted by name,
// components by their first member. stratum is each rule's layer in the
// condensation of all the components: 1 for a source, else one more than
// its deepest predecessor.
func (r *reference) cyclic(universe []*rules.Rule, discharged map[string]bool) (cyclic [][]*rules.Rule, stratum map[*rules.Rule]int) {
	live := slices.DeleteFunc(slices.Clone(universe), func(x *rules.Rule) bool { return discharged[x.Name] })
	alive, reach := make([]bool, r.set.Len()), make([][]bool, r.set.Len()) // by rule index
	for _, x := range live {
		alive[x.Index()], reach[x.Index()] = true, make([]bool, r.set.Len())
	}
	var visit func(x, y int) // by DFS
	visit = func(x, y int) {
		for _, z := range r.pruned[y] {
			if alive[z.Index()] && !reach[x][z.Index()] {
				reach[x][z.Index()] = true
				visit(x, z.Index())
			}
		}
	}
	comp := map[*rules.Rule]int{}
	for i, x := range live {
		visit(x.Index(), x.Index())
		comp[x] = i
	}
	for _, x := range live {
		for _, y := range live {
			if reach[x.Index()][y.Index()] && reach[y.Index()][x.Index()] {
				comp[y] = min(comp[x], comp[y])
			}
		}
	}
	layer := make([]int, len(live))
	for changed := true; changed; {
		changed = false
		for x, cx := range comp {
			for _, y := range r.pruned[x.Index()] {
				if cy, ok := comp[y]; ok && cy != cx && layer[cy] <= layer[cx] {
					layer[cy], changed = layer[cx]+1, true
				}
			}
		}
	}
	members := map[int][]*rules.Rule{}
	stratum = map[*rules.Rule]int{}
	for _, x := range live {
		members[comp[x]] = append(members[comp[x]], x)
		stratum[x] = layer[comp[x]] + 1
	}
	for _, c := range members {
		if len(c) > 1 || reach[c[0].Index()][c[0].Index()] {
			sort.Slice(c, func(i, j int) bool { return c[i].Name < c[j].Name })
			cyclic = append(cyclic, c)
		}
	}
	sort.Slice(cyclic, func(i, j int) bool { return cyclic[i][0].Name < cyclic[j][0].Name })
	return cyclic, stratum
}

// termination is Theorem 5.1 over exactly the subset processed on its
// own, after the analyzer's discharges (DESIGN.md §12): the
// user's and refinement's dead rules, then the tier-2 certificates, tried
// on every member of every cyclic component, round after round until a
// round discharges nothing. The components of the first round are the
// verdict's SCCs. The pruned graph and the sample cycles are left to
// sameTermination.
func (r *reference) termination(subset []*rules.Rule) *TerminationVerdict {
	a := r.a
	v := &TerminationVerdict{DischargedEdges: a.cert.DischargedEdges()}
	if a.ref != nil {
		v.Refined, v.RefinementDischarged, v.PrunedEdges = true, a.ref.deadDischarges(), a.ref.sortedPrunedEdges()
	}
	discharged := map[string]bool{}
	for _, x := range r.set.Rules() {
		if a.cert.Discharged(x.Name) {
			discharged[x.Name] = true
			v.UserDischarged = append(v.UserDischarged, x.Name)
		}
	}
	for _, d := range v.RefinementDischarged {
		discharged[d.Rule] = true
	}
	initial, stratum := r.cyclic(subset, discharged)
	sccID := map[string]int{}
	v.SCCs = make([]SCCVerdict, len(initial))
	for i, c := range initial {
		v.SCCs[i] = SCCVerdict{ID: i + 1, Stratum: stratum[c[0]], Members: rules.Names(c)}
		for _, x := range c {
			sccID[x.Name] = i + 1
		}
	}
	eng := newTier2(a, subset, discharged)
	attempts := map[string]map[string]attemptFail{}
	for sccs := initial; ; {
		var steps []DischargeStep
		for _, c := range sccs {
			for _, x := range c {
				if step, fails, ok := eng.tryDischarge(x); ok {
					steps = append(steps, step)
				} else {
					attempts[x.Name] = fails
				}
			}
		}
		if len(steps) == 0 {
			v.CyclicSCCs = sccs
			break
		}
		for _, step := range steps {
			if !discharged[step.Rule] {
				discharged[step.Rule] = true
				v.AutoDischarged = append(v.AutoDischarged, step.Rule)
				if id := sccID[step.Rule]; id > 0 {
					v.SCCs[id-1].Certificate = append(v.SCCs[id-1].Certificate, step)
				}
			}
		}
		sccs, _ = r.cyclic(subset, discharged)
	}
	for i := range v.SCCs {
		sv := &v.SCCs[i]
		for _, x := range slices.Concat(v.CyclicSCCs...) {
			if sccID[x.Name] == sv.ID {
				sv.Residual = append(sv.Residual, x.Name)
			}
		}
		sort.Strings(sv.Residual)
		sv.Discharged = len(sv.Residual) == 0
		if !sv.Discharged {
			sv.Failures = bestFailures(attempts, sv.Residual)
		}
	}
	v.Status = TermAcyclic
	if len(v.CyclicSCCs) > 0 {
		v.Status = TermUnknown
	} else if len(initial) > 0 {
		v.Status = TermCycleDischarged
	}
	v.Guaranteed = v.Status != TermUnknown
	return v
}

// sameTermination reports how the analyzer's verdict g departs from the
// reference's w. Its graph must be the pruned TG_R, and each sample cycle
// a simple cycle of that graph through the first member of its residual
// component, within it; which cycle is a choice the paper leaves open.
// Those two fields are then copied into w, and the rest compared.
func (r *reference) sameTermination(g, w *TerminationVerdict) error {
	for _, x := range r.set.Rules() {
		if s := g.Graph.Successors(x); !slices.Equal(s, r.pruned[x.Index()]) {
			return fmt.Errorf("%s's successors are %v, want %v", x.Name, ruleNames(s), ruleNames(r.pruned[x.Index()]))
		}
	}
	if len(g.SampleCycles) != len(w.CyclicSCCs) {
		return fmt.Errorf("%d sample cycles for %d cyclic components", len(g.SampleCycles), len(w.CyclicSCCs))
	}
	for i, cyc := range g.SampleCycles {
		c := w.CyclicSCCs[i]
		if len(cyc) == 0 {
			return fmt.Errorf("an empty sample cycle for %v", ruleNames(c))
		}
		for k, x := range cyc {
			if cyc[0] != c[0] || !slices.Contains(c, x) || slices.Index(cyc, x) != k ||
				!slices.Contains(r.pruned[x.Index()], cyc[(k+1)%len(cyc)]) {
				return fmt.Errorf("sample cycle %v is no simple cycle from %s within %v", ruleNames(cyc), c[0].Name, ruleNames(c))
			}
		}
	}
	w.Graph, w.SampleCycles = g.Graph, g.SampleCycles
	if !reflect.DeepEqual(g, w) {
		return fmt.Errorf("verdict\n%+v\nwant\n%+v", g, w)
	}
	return nil
}

// referencePlan is a shard plan with its blockers listed; its JSON is the
// form ShardPlan's must take.
type referencePlan struct {
	Shards   []ShardGroup   `json:"shards"`
	Blockers []ShardBlocker `json:"blockers,omitempty"`
}

// shardPlan is the maximal partition of the tables by its definition
// (DESIGN.md §10.1): every table starts alone, and groups merge until no
// blocker's tables lie in two. A rule's footprint (the tables it triggers
// on, reads and writes), the tables it is significant for, and the two
// footprints of a priority-ordered pair are blockers when they hold two
// tables or more. A shard runs the rules whose footprint it holds, and is
// confluent by Theorem 7.2 over its Sig.
func (r *reference) shardPlan() *referencePlan {
	all, plan := r.set.Rules(), &referencePlan{}
	var tables []string          // in the schema's order
	group := map[string]string{} // table -> a table of its group
	foot := map[*rules.Rule]map[string]bool{}
	significant := map[*rules.Rule]map[string]bool{}
	for _, t := range r.set.Schema().SortedTables() {
		tables = append(tables, strings.ToLower(t.Name))
		group[tables[len(tables)-1]] = tables[len(tables)-1]
	}
	for _, x := range all {
		foot[x], significant[x] = map[string]bool{strings.ToLower(x.Table): true}, map[string]bool{}
		for op := range x.Performs() {
			foot[x][op.Table] = true
		}
		for ref := range x.Reads() {
			foot[x][ref.Table] = true
		}
	}
	for _, t := range tables {
		for _, x := range r.sig(all, []string{t}) {
			significant[x][t] = true
		}
	}
	block := func(kind, rule string, sets ...map[string]bool) {
		var ts []string
		for _, t := range tables {
			if slices.ContainsFunc(sets, func(set map[string]bool) bool { return set[t] }) {
				ts = append(ts, t)
			}
		}
		if len(ts) > 1 {
			plan.Blockers = append(plan.Blockers, ShardBlocker{Kind: kind, Rule: rule, Tables: ts})
		}
	}
	for _, x := range all {
		block(BlockFootprint, x.Name, foot[x])
		block(BlockSignificance, x.Name, significant[x])
		for _, lo := range all {
			if r.set.Higher(x, lo) {
				block(BlockPriority, x.Name+">"+lo.Name, foot[x], foot[lo])
			}
		}
	}
	slices.SortFunc(plan.Blockers, func(x, y ShardBlocker) int {
		return cmp.Or(cmp.Compare(x.Kind, y.Kind), cmp.Compare(x.Rule, y.Rule),
			cmp.Compare(strings.Join(x.Tables, ","), strings.Join(y.Tables, ",")))
	})
	for merged := true; merged; {
		merged = false
		for _, b := range plan.Blockers {
			for _, t := range b.Tables {
				if from, to := group[t], group[b.Tables[0]]; from != to {
					for u := range group {
						if group[u] == from {
							group[u] = to
						}
					}
					merged = true
				}
			}
		}
	}
	shard := map[string]int{} // group -> shard number, by first table
	for _, t := range tables {
		k, ok := shard[group[t]]
		if !ok {
			k, shard[group[t]], plan.Shards = len(plan.Shards), len(plan.Shards), append(plan.Shards, ShardGroup{})
		}
		plan.Shards[k].Tables = append(plan.Shards[k].Tables, t)
	}
	for i := range plan.Shards {
		g := &plan.Shards[i]
		for _, x := range all {
			if slices.Contains(g.Tables, strings.ToLower(x.Table)) {
				g.Rules = append(g.Rules, x.Name)
			}
		}
		sort.Strings(g.Rules)
		sig := r.sig(all, g.Tables)
		g.Sig, g.Confluent = sortedRuleNames(sig), r.confluence(sig, r.termination(sig)).Guaranteed
	}
	return plan
}

// text renders the plan through fmt, as ShardPlan.String must.
func (p *referencePlan) text() string {
	var b strings.Builder
	nrules, ntables := 0, 0
	for _, g := range p.Shards {
		nrules += len(g.Rules)
		ntables += len(g.Tables)
	}
	fmt.Fprintf(&b, "shard plan: %d shard(s) over %d table(s), %d rule(s)\n", len(p.Shards), ntables, nrules)
	for i, g := range p.Shards {
		fmt.Fprintf(&b, "shard %d: tables [%s] rules [%s] sig [%s] confluent=%v\n",
			i, strings.Join(g.Tables, " "), strings.Join(g.Rules, " "), strings.Join(g.Sig, " "), g.Confluent)
	}
	if len(p.Blockers) == 0 {
		b.WriteString("blockers: none (every table is independently servable)\n")
		return b.String()
	}
	b.WriteString("blockers (what prevents a finer partition):\n")
	for _, bl := range p.Blockers {
		fmt.Fprintf(&b, "  %s\n", blockerText(bl))
	}
	return b.String()
}

// blockerText renders a blocker through fmt, as ShardBlocker.String must.
func blockerText(b ShardBlocker) string {
	format := map[string]string{
		BlockFootprint:    "rule %s triggers on / reads / writes tables [%s]",
		BlockSignificance: "rule %s is significant for tables [%s]",
		BlockPriority:     "priority %s links tables [%s]",
	}[b.Kind]
	if format == "" {
		format = b.Kind + " %s [%s]"
	}
	return fmt.Sprintf(format, b.Rule, strings.Join(b.Tables, " "))
}

// lint is Lint by the definitions: RL003 and RL004 below; RL001, RL002
// and RL005–RL007 from the analyzer's detectors, those on cycles reading
// the reference's refined termination verdict; all stable-sorted by
// (Line, Col, Code, Rule) and counted by severity.
func (r *reference) lint() *LintResult {
	ra := r.a.withRefinement()
	refV := newReference(ra).termination(ra.set.Rules())
	ds := append(ra.lintDeadRules(), ra.lintSelfDeactivating()...)
	ds = append(append(ds, r.rl003()...), r.rl004()...)
	ds = append(append(ds, ra.lintInfeasibleCycles(refV)...), ra.lintCycleDischarges(refV)...)
	slices.SortStableFunc(ds, func(x, y Diagnostic) int {
		return cmp.Or(cmp.Compare(x.Line, y.Line), cmp.Compare(x.Col, y.Col), cmp.Compare(x.Code, y.Code), cmp.Compare(x.Rule, y.Rule))
	})
	n := map[Severity]int{}
	for _, d := range ds {
		n[d.Severity]++
	}
	return &LintResult{Diagnostics: ds, Errors: n[SevError], Warnings: n[SevWarning], Infos: n[SevInfo]}
}

// rl003 is RL003 by its definition: a clause ordering hi above lo is
// redundant when a third rule mid has hi > mid > lo in the closure of P,
// and the witness is the first such mid in definition order. Declarers in
// definition order, each's precedes clauses before its follows clauses.
func (r *reference) rl003() []Diagnostic {
	var out []Diagnostic
	clause := func(declarer, hi, lo *rules.Rule, text string) {
		for _, mid := range r.set.Rules() {
			if mid != hi && mid != lo && r.set.Higher(hi, mid) && r.set.Higher(mid, lo) {
				out = append(out, Diagnostic{Code: "RL003", Severity: SevWarning, Rule: declarer.Name, Line: declarer.Line, Col: declarer.Col,
					Message: fmt.Sprintf("%q on rule %s is redundant: %s already precedes %s via %s", text, declarer.Name, hi.Name, lo.Name, mid.Name),
					Hint:    "remove the redundant clause"})
				return
			}
		}
	}
	for _, x := range r.set.Rules() {
		for _, name := range x.Precedes {
			if o := r.set.Rule(name); o != nil {
				clause(x, x, o, "precedes "+o.Name)
			}
		}
		for _, name := range x.Follows {
			if o := r.set.Rule(name); o != nil {
				clause(x, o, x, "follows "+o.Name)
			}
		}
	}
	return out
}

// rl004 is RL004 by its definition: an update (U, t.c) a rule performs
// that no rule reads t.c for or is triggered by. Rules in definition
// order, each's updates in Performs order.
func (r *reference) rl004() []Diagnostic {
	var out []Diagnostic
	for _, x := range r.set.Rules() {
		for _, op := range x.Performs().Sorted() {
			if op.Kind != schema.OpUpdate {
				continue
			}
			consumed := false
			for _, y := range r.set.Rules() {
				consumed = consumed || y.Reads().Contains(schema.ColRef(op.Table, op.Column)) || y.TriggeredBy().Contains(op)
			}
			if !consumed {
				out = append(out, Diagnostic{Code: "RL004", Severity: SevInfo, Rule: x.Name, Line: x.Line, Col: x.Col,
					Message: fmt.Sprintf("rule %s updates %s.%s, but no rule reads that column or is triggered by it (dead store within the rule system)",
						x.Name, op.Table, op.Column),
					Hint: "drop the assignment if the column only matters to rules"})
			}
		}
	}
	return out
}

// lintText renders a lint result through fmt, as RenderLintText must.
func lintText(lr *LintResult, file string) string {
	if file == "" {
		file = "<rules>"
	}
	var b strings.Builder
	for _, d := range lr.Diagnostics {
		fmt.Fprintf(&b, "%s:%d:%d: %s %s [%s]: %s\n", file, d.Line, d.Col, d.Severity, d.Code, d.Rule, d.Message)
		for _, n := range d.Notes {
			fmt.Fprintf(&b, "    note: %s\n", n)
		}
		if d.Hint != "" {
			fmt.Fprintf(&b, "    hint: %s\n", d.Hint)
		}
	}
	if len(lr.Diagnostics) == 0 {
		return b.String() + "no lint findings\n"
	}
	fmt.Fprintf(&b, "%d findings (%d errors, %d warnings, %d info)\n", len(lr.Diagnostics), lr.Errors, lr.Warnings, lr.Infos)
	return b.String()
}
