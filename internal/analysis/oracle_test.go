package analysis

// The loops this package ran before its pair relations became bit rows,
// kept verbatim as oracles: the member-by-member Sig fixpoint, the
// []bool construction of Definition 6.5, the map-and-sort shard planner
// and the fmt renderer of its plan, the all-rules RL003 witness scan,
// the per-column RL004 scan and the fmt renderer of lint results. The
// differential tests below hold the word-wise code to them — results,
// and for Sig the exact sequence of pairs handed to Lemma 6.1, since
// with refinement on the first examination of a pair is part of the
// rendered report (DESIGN.md §6, "Examined pairs are observable").
//
// Two more oracles are the analyses before they shared work: the
// termination analysis that rebuilt the pruned graph and ran Tarjan over
// the whole subset on every call, and the Obs view with a verdict table
// of its own.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"activerules/internal/ruledef"
	"activerules/internal/rules"
	"activerules/internal/schema"
	"activerules/internal/workload"
)

// sigWithinScalar is the fixpoint one atomic load at a time.
func (a *Analyzer) sigWithinScalar(members []*rules.Rule, tables []string) []*rules.Rule {
	want := map[string]bool{}
	for _, t := range tables {
		want[strings.ToLower(t)] = true
	}
	in := make([]bool, a.set.Len())
	for _, r := range members {
		for op := range a.view.performs(r) {
			if want[op.Table] {
				in[r.Index()] = true
				break
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, r := range members {
			if in[r.Index()] {
				continue
			}
			for _, r2 := range members {
				if !in[r2.Index()] {
					continue
				}
				if ok, _ := a.Commute(r, r2); !ok {
					in[r.Index()] = true
					changed = true
					break
				}
			}
		}
	}
	var out []*rules.Rule
	for _, r := range members {
		if in[r.Index()] {
			out = append(out, r)
		}
	}
	return out
}

// buildR1R2Scalar is Definition 6.5 over []bool and Higher.
func (a *Analyzer) buildR1R2Scalar(ri, rj *rules.Rule) (r1, r2 []*rules.Rule) {
	n := a.set.Len()
	in1 := make([]bool, n)
	in2 := make([]bool, n)
	in1[ri.Index()] = true
	in2[rj.Index()] = true
	g := a.graph()

	grow := func(in []bool, other []bool, excluded int) bool {
		changed := false
		for _, r1cand := range a.set.Rules() {
			if !in[r1cand.Index()] {
				continue
			}
			for _, r := range g.Successors(r1cand) {
				if in[r.Index()] || r.Index() == excluded {
					continue
				}
				// r must have priority over some member of the other set.
				for _, r2cand := range a.set.Rules() {
					if other[r2cand.Index()] && a.set.Higher(r, r2cand) {
						in[r.Index()] = true
						changed = true
						break
					}
				}
			}
		}
		return changed
	}
	for {
		c1 := grow(in1, in2, rj.Index())
		c2 := grow(in2, in1, ri.Index())
		if !c1 && !c2 {
			break
		}
	}
	for _, r := range a.set.Rules() {
		if in1[r.Index()] {
			r1 = append(r1, r)
		}
		if in2[r.Index()] {
			r2 = append(r2, r)
		}
	}
	return r1, r2
}

// blockerStringFmt is ShardBlocker.String through fmt.
func blockerStringFmt(b ShardBlocker) string {
	switch b.Kind {
	case BlockFootprint:
		return fmt.Sprintf("rule %s triggers on / reads / writes tables [%s]", b.Rule, strings.Join(b.Tables, " "))
	case BlockSignificance:
		return fmt.Sprintf("rule %s is significant for tables [%s]", b.Rule, strings.Join(b.Tables, " "))
	case BlockPriority:
		return fmt.Sprintf("priority %s links tables [%s]", b.Rule, strings.Join(b.Tables, " "))
	default:
		return fmt.Sprintf("%s %s [%s]", b.Kind, b.Rule, strings.Join(b.Tables, " "))
	}
}

// oraclePlan is a shard plan with its blockers as a list, as the map
// oracle builds it; its JSON is the form ShardPlan's must take.
type oraclePlan struct {
	Shards   []ShardGroup   `json:"shards"`
	Blockers []ShardBlocker `json:"blockers,omitempty"`
}

// listed is p with its blockers listed.
func listed(p *ShardPlan) *oraclePlan { return &oraclePlan{p.Shards, p.Blockers()} }

// planStringFmt is (*ShardPlan).String through fmt and an unsized
// builder.
func planStringFmt(p *oraclePlan) string {
	var b strings.Builder
	nrules := 0
	ntables := 0
	for _, g := range p.Shards {
		nrules += len(g.Rules)
		ntables += len(g.Tables)
	}
	fmt.Fprintf(&b, "shard plan: %d shard(s) over %d table(s), %d rule(s)\n", len(p.Shards), ntables, nrules)
	for i, g := range p.Shards {
		fmt.Fprintf(&b, "shard %d: tables [%s] rules [%s] sig [%s] confluent=%v\n",
			i, strings.Join(g.Tables, " "), strings.Join(g.Rules, " "),
			strings.Join(g.Sig, " "), g.Confluent)
	}
	if len(p.Blockers) == 0 {
		b.WriteString("blockers: none (every table is independently servable)\n")
	} else {
		b.WriteString("blockers (what prevents a finer partition):\n")
		for _, bl := range p.Blockers {
			fmt.Fprintf(&b, "  %s\n", blockerStringFmt(bl))
		}
	}
	return b.String()
}

// lintShadowedPrioritiesScalar is RL003 with the witness found by a
// scan over every rule and the message built by fmt.
func (a *Analyzer) lintShadowedPrioritiesScalar() []Diagnostic {
	var out []Diagnostic
	rs := a.set.Rules()
	emit := func(declarer, hi, lo *rules.Rule, clause string) {
		for _, mid := range rs {
			if mid == hi || mid == lo {
				continue
			}
			if a.set.Higher(hi, mid) && a.set.Higher(mid, lo) {
				out = append(out, at(declarer, Diagnostic{
					Code: "RL003", Severity: SevWarning,
					Message: fmt.Sprintf("%q on rule %s is redundant: %s already precedes %s via %s",
						clause, declarer.Name, hi.Name, lo.Name, mid.Name),
					Hint: "remove the redundant clause",
				}))
				return
			}
		}
	}
	for _, r := range rs {
		for _, name := range r.Precedes {
			if other := a.set.Rule(name); other != nil {
				emit(r, r, other, "precedes "+other.Name)
			}
		}
		for _, name := range r.Follows {
			if other := a.set.Rule(name); other != nil {
				emit(r, other, r, "follows "+other.Name)
			}
		}
	}
	return out
}

// lintDeadStoresScalar is RL004 with a scan over every rule for every
// updated column.
func (a *Analyzer) lintDeadStoresScalar() []Diagnostic {
	var out []Diagnostic
	rs := a.set.Rules()
	consumed := func(op schema.Op) bool {
		cr := schema.ColRef(op.Table, op.Column)
		for _, r := range rs {
			if a.view.reads(r).Contains(cr) || r.TriggeredBy().Contains(op) {
				return true
			}
		}
		return false
	}
	for _, r := range rs {
		for _, op := range a.view.performs(r).Sorted() {
			if op.Kind != schema.OpUpdate || consumed(op) {
				continue
			}
			out = append(out, at(r, Diagnostic{
				Code: "RL004", Severity: SevInfo,
				Message: fmt.Sprintf("rule %s updates %s.%s, but no rule reads that column or is triggered by it (dead store within the rule system)",
					r.Name, op.Table, op.Column),
				Hint: "drop the assignment if the column only matters to rules",
			}))
		}
	}
	return out
}

// lintScalar is Lint with the scalar RL003 and RL004, an unsized result
// grown one finding at a time, the termination verdict computed per
// detector, and the reflective stable sort.
func (a *Analyzer) lintScalar() *LintResult {
	ra := a.withRefinement()
	lr := &LintResult{}
	lr.add(ra.lintDeadRules()...)
	lr.add(ra.lintSelfDeactivating()...)
	lr.add(ra.lintShadowedPrioritiesScalar()...)
	lr.add(ra.lintDeadStoresScalar()...)
	lr.add(ra.lintInfeasibleCycles(ra.terminationOf(nil))...)
	lr.add(ra.lintCycleDischarges(ra.terminationOf(nil))...)
	sort.SliceStable(lr.Diagnostics, func(i, j int) bool {
		di, dj := lr.Diagnostics[i], lr.Diagnostics[j]
		if di.Line != dj.Line {
			return di.Line < dj.Line
		}
		if di.Col != dj.Col {
			return di.Col < dj.Col
		}
		if di.Code != dj.Code {
			return di.Code < dj.Code
		}
		return di.Rule < dj.Rule
	})
	return lr
}

// renderLintTextFmt is RenderLintText through fmt and an unsized builder.
func renderLintTextFmt(lr *LintResult, file string) string {
	if file == "" {
		file = "<rules>"
	}
	var sb strings.Builder
	for _, d := range lr.Diagnostics {
		fmt.Fprintf(&sb, "%s:%d:%d: %s %s [%s]: %s\n", file, d.Line, d.Col, d.Severity, d.Code, d.Rule, d.Message)
		for _, n := range d.Notes {
			fmt.Fprintf(&sb, "    note: %s\n", n)
		}
		if d.Hint != "" {
			fmt.Fprintf(&sb, "    hint: %s\n", d.Hint)
		}
	}
	if len(lr.Diagnostics) == 0 {
		sb.WriteString("no lint findings\n")
	} else {
		fmt.Fprintf(&sb, "%d findings (%d errors, %d warnings, %d info)\n",
			len(lr.Diagnostics), lr.Errors, lr.Warnings, lr.Infos)
	}
	return sb.String()
}

// shardPlanMaps is the planner over table names: a map and a sort per
// footprint and per priority blocker, the scalar Sig per table.
func (a *Analyzer) shardPlanMaps() *oraclePlan {
	tables := make([]string, 0, a.set.Schema().NumTables())
	for _, t := range a.set.Schema().SortedTables() {
		tables = append(tables, strings.ToLower(t.Name))
	}
	slot := make(map[string]int, len(tables))
	for i, t := range tables {
		slot[t] = i
	}
	sigOf := make([][]*rules.Rule, len(tables))
	for i, t := range tables {
		sigOf[i] = a.sigWithinScalar(a.set.Rules(), []string{t})
	}
	parent := make([]int, len(tables))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(x, y int) { parent[find(x)] = find(y) }

	var blockers []ShardBlocker
	weld := func(kind, rule string, ts []string) {
		if len(ts) < 2 {
			return
		}
		for _, t := range ts[1:] {
			union(slot[ts[0]], slot[t])
		}
		blockers = append(blockers, ShardBlocker{Kind: kind, Rule: rule, Tables: ts})
	}
	sortedKeys := func(m map[string]bool) []string {
		out := make([]string, 0, len(m))
		for t := range m {
			if _, ok := slot[t]; ok {
				out = append(out, t)
			}
		}
		sort.Strings(out)
		return out
	}

	footOf := make([][]string, a.set.Len())
	for _, r := range a.set.Rules() {
		foot := map[string]bool{strings.ToLower(r.Table): true}
		for op := range a.view.performs(r) {
			foot[op.Table] = true
		}
		for ref := range a.view.reads(r) {
			foot[ref.Table] = true
		}
		ts := sortedKeys(foot)
		footOf[r.Index()] = ts
		weld(BlockFootprint, r.Name, ts)
	}
	sigTables := make(map[int][]string)
	for i, t := range tables {
		for _, r := range sigOf[i] {
			sigTables[r.Index()] = append(sigTables[r.Index()], t)
		}
	}
	for _, r := range a.set.Rules() {
		weld(BlockSignificance, r.Name, sigTables[r.Index()])
	}
	for _, ri := range a.set.Rules() {
		for _, rj := range a.set.Rules() {
			if ri.Index() < rj.Index() && a.set.Ordered(ri, rj) {
				joint := map[string]bool{}
				for _, t := range footOf[ri.Index()] {
					joint[t] = true
				}
				for _, t := range footOf[rj.Index()] {
					joint[t] = true
				}
				hi, lo := ri, rj
				if a.set.Higher(rj, ri) {
					hi, lo = rj, ri
				}
				weld(BlockPriority, hi.Name+">"+lo.Name, sortedKeys(joint))
			}
		}
	}

	groupsByRoot := map[int][]string{}
	for i, t := range tables {
		root := find(i)
		groupsByRoot[root] = append(groupsByRoot[root], t)
	}
	var groups [][]string
	for _, g := range groupsByRoot {
		sort.Strings(g)
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })

	plan := &oraclePlan{}
	for _, g := range groups {
		member := map[string]bool{}
		for _, t := range g {
			member[t] = true
		}
		var ruleNames []string
		for _, r := range a.set.Rules() {
			if len(footOf[r.Index()]) > 0 && member[footOf[r.Index()][0]] {
				ruleNames = append(ruleNames, r.Name)
			}
		}
		sort.Strings(ruleNames)
		sig := a.sigWithinScalar(a.set.Rules(), g)
		v := &PartialConfluenceVerdict{Tables: g, Sig: sig, Confluence: a.confluenceOver(sig, a.TerminationOf(sig))}
		plan.Shards = append(plan.Shards, ShardGroup{
			Tables:    g,
			Rules:     ruleNames,
			Sig:       v.SigNames(),
			Confluent: v.Guaranteed(),
		})
	}
	sort.Slice(blockers, func(i, j int) bool {
		if blockers[i].Kind != blockers[j].Kind {
			return blockers[i].Kind < blockers[j].Kind
		}
		if blockers[i].Rule != blockers[j].Rule {
			return blockers[i].Rule < blockers[j].Rule
		}
		return strings.Join(blockers[i].Tables, ",") < strings.Join(blockers[j].Tables, ",")
	})
	plan.Blockers = blockers
	return plan
}

// oracleSet is one rule set of the differential corpus.
type oracleSet struct {
	name   string
	set    *rules.Set
	refine bool
	cert   *Certification // nil for none
}

// analyzer returns a fresh analyzer for the set under its certification.
func (c oracleSet) analyzer() *Analyzer { return New(c.set, c.cert).SetRefinement(c.refine) }

// oracleCorpus is 24 generated sets (the benchmark generator's config at
// priority densities 0.1 and 0.5, refinement alternating with the seed
// within each density), a certified variant of one generated set per
// density, the seven shipped systems, refinement on and off, arrowNames,
// a certified observer set, and a nonterminating grower.
func oracleCorpus(t *testing.T) []oracleSet {
	t.Helper()
	var out []oracleSet
	for _, prio := range []float64{0.1, 0.5} {
		for seed := int64(1); seed <= 12; seed++ {
			g := verdictWorkloadAt(t, seed, 24+int(seed)*6, prio)
			out = append(out, oracleSet{fmt.Sprintf("gen/seed=%d/prio=%.1f", seed, prio), g.Set, seed%2 == 0, nil})
		}
		g := verdictWorkloadAt(t, 1, 30, prio)
		out = append(out, oracleSet{fmt.Sprintf("gen/seed=1/prio=%.1f/certified", prio), g.Set, prio > 0.3,
			certifyAround(g.Set, "r0", "r1", "r2")})
	}
	observer := compile(t, "table a (v int)\ntable b (v int)\n",
		"create rule copy on a when inserted then insert into b select v from inserted\n\n"+
			"create rule watch on b when inserted then select v from inserted\n", nil).set
	out = append(out, oracleSet{"observer/certified", observer, false, certifyAround(observer, "watch")})
	// A shard whose Sig cannot be shown to terminate although its
	// Confluence Requirement holds, and a shard with an empty Sig.
	grower := compile(t, "table a (v int)\ntable c (v int)\n",
		"create rule grow on a when inserted then insert into a select v + 1 from inserted\n", nil).set
	out = append(out, oracleSet{"grower", grower, false, nil})
	out = append(out, oracleSet{"arrow-names", arrowNames(t), false, nil})
	out = append(out, oracleSet{"arrow-ties", arrowTies(t), false, nil})
	for _, name := range []string{"bank", "converge", "countdown", "drain", "flipflop", "lintdemo", "powernet"} {
		set := fixtureSet(t, name)
		out = append(out, oracleSet{name, set, false, nil}, oracleSet{name + "/refined", set, true, nil})
	}
	return out
}

// fixtureSet compiles the shipped system testdata/<name>.
func fixtureSet(t *testing.T, name string) *rules.Set {
	t.Helper()
	schemaSrc, err := os.ReadFile("../../testdata/" + name + "/schema.sdl")
	if err != nil {
		t.Fatal(err)
	}
	rulesSrc, err := os.ReadFile("../../testdata/" + name + "/rules.srl")
	if err != nil {
		t.Fatal(err)
	}
	defs, err := ruledef.Parse(string(rulesSrc))
	if err != nil {
		t.Fatal(err)
	}
	set, err := rules.NewSet(schema.MustParse(string(schemaSrc)), defs)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// certifyAround certifies as commuting every pair the named rules may not
// commute in, which cuts them out of their may-not-commute components.
func certifyAround(set *rules.Set, names ...string) *Certification {
	a := New(set, nil)
	cert := NewCertification()
	for _, name := range names {
		r := set.Rule(name)
		for _, s := range set.Rules() {
			if ok, _ := a.Commute(r, s); !ok {
				cert.CertifyCommutes(r.Name, s.Name)
			}
		}
	}
	return cert
}

// arrowNames is a programmatic set, with no source spans, whose rule
// names contain '>' and characters %q escapes: rule i is on table ti and
// inserts into the next table, precedes every later rule, and the last
// also follows the first. Priority blockers named "hi>lo" then list
// apart from their emission order ("a>>a>b" before "a>a>"), and RL003
// quotes clauses such as "precedes b\"q".
func arrowNames(t *testing.T) *rules.Set {
	t.Helper()
	names := []string{"a", "a>", "a>b", "ab", `b"q`, "É"}
	var sch strings.Builder
	for i := range names {
		fmt.Fprintf(&sch, "table t%d (v int)\n", i)
	}
	sch.WriteString("table sink (v int)\n")
	defs := make([]rules.Definition, len(names))
	for i, name := range names {
		next := "sink"
		if i+1 < len(names) {
			next = fmt.Sprintf("t%d", i+1)
		}
		defs[i] = rules.Definition{
			Name:     name,
			Table:    fmt.Sprintf("t%d", i),
			Triggers: []rules.TriggerSpec{{Kind: schema.OpInsert}},
			Action:   []string{"insert into " + next + " values (1)"},
			Precedes: names[i+1:],
		}
	}
	defs[len(names)-1].Follows = names[:1]
	set, err := rules.NewSet(schema.MustParse(sch.String()), defs)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// arrowTies is a programmatic set with two priority edges both named
// "a>b>c": a over b>c, and a>b over c. Each rule is alone on its table,
// so only the tables tell the two blockers apart, and they list a>b's
// ([m n]) before a's ([p q]), against their emission order.
func arrowTies(t *testing.T) *rules.Set {
	t.Helper()
	def := func(name, table, precedes string) rules.Definition {
		d := rules.Definition{
			Name:     name,
			Table:    table,
			Triggers: []rules.TriggerSpec{{Kind: schema.OpInsert}},
			Action:   []string{"insert into " + table + " values (1)"},
		}
		if precedes != "" {
			d.Precedes = []string{precedes}
		}
		return d
	}
	set, err := rules.NewSet(schema.MustParse("table m (v int)\ntable n (v int)\ntable p (v int)\ntable q (v int)\n"),
		[]rules.Definition{def("a", "p", "b>c"), def("b>c", "q", ""), def("a>b", "m", "c"), def("c", "n", "")})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// examined is one Lemma 6.1 evaluation as computeHook sees it.
type examined struct {
	obsView bool
	lo, hi  int
}

// hooked returns a fresh analyzer for the set and the log its
// computeHook appends to.
func (c oracleSet) hooked() (*Analyzer, *[]examined) {
	a := c.analyzer()
	log := &[]examined{}
	a.computeHook = func(view *Analyzer, lo, hi *rules.Rule) {
		*log = append(*log, examined{view != a, lo.Index(), hi.Index()})
	}
	return a, log
}

// TestSigMatchesScalarOracle: for every single table of every corpus
// set, and for the member-restricted Obs closure of the restricted
// analysis, the word-wise fixpoint returns the scalar one's rules and
// hands Lemma 6.1 the same pairs in the same order — from a cold verdict
// table and from one a Confluence pass has warmed.
func TestSigMatchesScalarOracle(t *testing.T) {
	for _, c := range oracleCorpus(t) {
		for _, warm := range []bool{false, true} {
			got, gotLog := c.hooked()
			want, wantLog := c.hooked()
			if warm {
				got.Confluence()
				want.Confluence()
				if !reflect.DeepEqual(*gotLog, *wantLog) {
					t.Fatalf("%s: two Confluence passes examined different pairs", c.name)
				}
			}
			for _, tb := range c.set.Schema().SortedTables() {
				g, w := got.Sig([]string{tb.Name}), want.sigWithinScalar(want.set.Rules(), []string{tb.Name})
				if !reflect.DeepEqual(ruleNames(g), ruleNames(w)) {
					t.Fatalf("%s warm=%v: Sig({%s}) = %v, scalar %v", c.name, warm, tb.Name, ruleNames(g), ruleNames(w))
				}
				if !reflect.DeepEqual(*gotLog, *wantLog) {
					t.Fatalf("%s warm=%v: after Sig({%s}) the examined pairs differ:\n got %v\nwant %v", c.name, warm, tb.Name, *gotLog, *wantLog)
				}
			}

			// observableOver's call: the Obs view, members a proper subset.
			ops := schema.NewOpSet()
			for _, r := range c.set.Rules() {
				if r.Index()%3 == 0 {
					ops.AddAll(r.TriggeredBy())
				}
			}
			members := got.ReachableRules(ops)
			var observable []*rules.Rule
			for _, r := range members {
				if r.Observable() {
					observable = append(observable, r)
				}
			}
			obs := freshObsName(c.set.Schema())
			gotExt := got.derive(got.view.withObs(obs, observable), got.ref)
			wantExt := want.derive(want.view.withObs(obs, observable), want.ref)
			g, w := gotExt.sigWithin(members, []string{obs}), wantExt.sigWithinScalar(members, []string{obs})
			if !reflect.DeepEqual(ruleNames(g), ruleNames(w)) || !reflect.DeepEqual(*gotLog, *wantLog) {
				t.Fatalf("%s warm=%v: Sig(Obs) within %d of %d members = %v, scalar %v; examined\n got %v\nwant %v",
					c.name, warm, len(members), c.set.Len(), ruleNames(g), ruleNames(w), *gotLog, *wantLog)
			}
			if len(*gotLog) == 0 && c.set.Len() > 3 {
				t.Errorf("%s warm=%v: nothing was examined", c.name, warm)
			}
		}
	}
}

// TestBuildR1R2MatchesScalarOracle: equal R1 and R2 for every unordered
// pair of every corpus set.
func TestBuildR1R2MatchesScalarOracle(t *testing.T) {
	grew := 0
	for _, c := range oracleCorpus(t) {
		a := New(c.set, nil).SetRefinement(c.refine)
		for _, p := range c.set.UnorderedPairs() {
			g1, g2 := a.BuildR1R2(p[0], p[1])
			w1, w2 := a.buildR1R2Scalar(p[0], p[1])
			if !reflect.DeepEqual(ruleNames(g1), ruleNames(w1)) || !reflect.DeepEqual(ruleNames(g2), ruleNames(w2)) {
				t.Fatalf("%s: pair (%s, %s): R1 %v R2 %v, scalar R1 %v R2 %v", c.name, p[0].Name, p[1].Name,
					ruleNames(g1), ruleNames(g2), ruleNames(w1), ruleNames(w2))
			}
			if len(g1)+len(g2) > 2 {
				grew++
			}
		}
	}
	if grew == 0 {
		t.Error("no pair of the corpus grew R1 or R2: the construction's loop went untested")
	}
}

// TestShardPlanMatchesMapOracle: the slot-merge planner produces the
// map-and-sort planner's plan — shards, Blockers() and their order, JSON
// — and renders it byte for byte as fmt renders the oracle's. Where no
// rule name contains '>', the blockers are emitted already in listing
// order; on arrowNames they are not, and the sort puts them there. A
// certified set must plan differently from its uncertified self, so the
// component split is exercised; the corpus must hold one whose
// certification changes a shard's Sig.
func TestShardPlanMatchesMapOracle(t *testing.T) {
	priority, arrowed, sigMoved := 0, 0, 0
	for _, c := range oracleCorpus(t) {
		a := c.analyzer()
		emittedSorted := false
		a.blockersHook = func(p *ShardPlan) { emittedSorted = slices.IsSortedFunc(p.blockers, p.compareRefs) }
		got := a.ShardPlan()
		if slices.ContainsFunc(c.set.Rules(), func(r *rules.Rule) bool { return strings.Contains(r.Name, ">") }) {
			arrowed++
			if emittedSorted {
				t.Errorf("%s: names with '>' were emitted in listing order; the set no longer tests the sort", c.name)
			}
		} else if !emittedSorted {
			t.Errorf("%s: blockers were not emitted in listing order", c.name)
		}
		want := c.analyzer().shardPlanMaps()
		if !reflect.DeepEqual(listed(got), want) {
			t.Fatalf("%s: plans differ:\n--- slots\n%s--- maps\n%s", c.name, planStringFmt(listed(got)), planStringFmt(want))
		}
		if c.cert != nil {
			plain := New(c.set, nil).SetRefinement(c.refine).ShardPlan()
			sigEqual := slices.EqualFunc(got.Shards, plain.Shards, func(x, y ShardGroup) bool { return slices.Equal(x.Sig, y.Sig) })
			if !sigEqual {
				sigMoved++
			}
			if sigEqual && reflect.DeepEqual(got.Blockers(), plain.Blockers()) {
				t.Errorf("%s: the certification changed neither a Sig nor a significance blocker:\n%s", c.name, got)
			}
		}
		if s := got.String(); s != planStringFmt(want) {
			t.Fatalf("%s: rendering differs:\n--- appender\n%s--- fmt\n%s", c.name, s, planStringFmt(want))
		}
		gotJSON, err1 := json.Marshal(got)
		wantJSON, err2 := json.Marshal(want)
		if err1 != nil || err2 != nil || string(gotJSON) != string(wantJSON) {
			t.Fatalf("%s: JSON differs (%v, %v):\n%s\n%s", c.name, err1, err2, gotJSON, wantJSON)
		}
		for _, bl := range got.Blockers() {
			if bl.String() != blockerStringFmt(bl) {
				t.Fatalf("%s: blocker renders %q, fmt %q", c.name, bl.String(), blockerStringFmt(bl))
			}
			if bl.Kind == BlockPriority {
				priority++
			}
		}
	}
	if priority == 0 {
		t.Error("no priority blocker in the corpus")
	}
	if arrowed == 0 {
		t.Error("no set of the corpus has '>' in a rule name")
	}
	if sigMoved == 0 {
		t.Error("no certification of the corpus changed a shard's Sig")
	}
	odd := ShardBlocker{Kind: "quota", Rule: "r", Tables: []string{"a", "b"}}
	if odd.String() != blockerStringFmt(odd) {
		t.Errorf("unknown kind renders %q, fmt %q", odd.String(), blockerStringFmt(odd))
	}
	empty := &ShardPlan{}
	if empty.String() != planStringFmt(&oraclePlan{}) {
		t.Errorf("empty plan renders %q, fmt %q", empty.String(), planStringFmt(&oraclePlan{}))
	}
	if js, err := json.Marshal(empty); err != nil || string(js) != `{"shards":null}` {
		t.Errorf("empty plan's JSON is %s (%v)", js, err)
	}
}

// TestShardPlanStringMatchesBlockers: the blocker lines of String() are
// the String() of each element of Blockers(), in order — the listing and
// the list come from one sort. On arrowNames the blockers are emitted out
// of listing order, so a rendering that skipped the sort fails here.
func TestShardPlanStringMatchesBlockers(t *testing.T) {
	lines := 0
	for _, c := range oracleCorpus(t) {
		plan := c.analyzer().ShardPlan()
		text := plan.String()
		head := "blockers (what prevents a finer partition):\n"
		var want strings.Builder
		if bs := plan.Blockers(); len(bs) == 0 {
			head = "blockers: none (every table is independently servable)\n"
		} else {
			for _, bl := range bs {
				want.WriteString("  " + bl.String() + "\n")
				lines++
			}
		}
		_, got, ok := strings.Cut(text, head)
		if !ok || got != want.String() {
			t.Fatalf("%s: String() lists the blockers as\n%s\nBlockers() renders\n%s", c.name, got, want.String())
		}
	}
	if lines == 0 {
		t.Error("no blocker in the corpus")
	}
}

// TestLintMatchesScalarOracle: on every corpus set, refinement on and
// off, Lint finds the scalar oracle's diagnostics in its order, and the
// appender renders them as fmt did, with and without a file label. The
// corpus must reach every part of a rendering: source spans, notes,
// hints, and an RL003 clause whose quoting escapes a character. It must
// also reach both paths of Lint's merge: a set whose RL003 findings list
// apart from the index order the scalar scan emits them in (Line-0 names
// such as r9 and r10), and a set where some detector's run is out of
// listing order and needs its own sort.
func TestLintMatchesScalarOracle(t *testing.T) {
	var spans, notes, hints, escaped, reordered, unsortedRun int
	for _, c := range oracleCorpus(t) {
		reorders, sorts := false, false
		for _, refine := range []bool{false, true} {
			got := New(c.set, nil).SetRefinement(refine).Lint()
			want := New(c.set, nil).SetRefinement(refine).lintScalar()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s refine=%v: lint differs:\n--- got\n%s--- scalar\n%s", c.name, refine,
					renderLintTextFmt(got, ""), renderLintTextFmt(want, ""))
			}
			ra := New(c.set, nil).SetRefinement(refine).withRefinement()
			runs := ra.lintRuns()
			reorders = reorders || !reflect.DeepEqual(runs[2], ra.lintShadowedPrioritiesScalar())
			sorts = sorts || slices.ContainsFunc(runs[:], func(run []Diagnostic) bool {
				return !slices.IsSortedFunc(run, compareDiagnostics)
			})
			for _, file := range []string{"", "rules.srl"} {
				if s, w := RenderLintText(got, file), renderLintTextFmt(want, file); s != w {
					t.Fatalf("%s refine=%v file=%q: rendering differs:\n--- appender\n%s--- fmt\n%s", c.name, refine, file, s, w)
				}
			}
			for _, d := range got.Diagnostics {
				if d.Line > 0 && d.Col > 0 {
					spans++
				}
				if len(d.Notes) > 0 {
					notes++
				}
				if d.Hint != "" {
					hints++
				}
				if d.Code == "RL003" && strings.Contains(d.Message, `\"`) {
					escaped++
				}
			}
		}
		if reorders {
			reordered++
		}
		if sorts {
			unsortedRun++
		}
	}
	if spans == 0 || notes == 0 || hints == 0 || escaped == 0 {
		t.Errorf("the corpus leaves part of a rendering untested: %d spans, %d with notes, %d with hints, %d escaped clauses",
			spans, notes, hints, escaped)
	}
	if reordered == 0 || unsortedRun == 0 {
		t.Errorf("the corpus leaves part of the merge untested: %d sets list RL003 apart from index order, %d need a run sorted",
			reordered, unsortedRun)
	}
}

// TestObservableViewSharesGraph: the Obs view an observable analysis
// derives from an analyzer that has built nothing yet (refinement off)
// uses the analyzer's triggering graph, not one of its own.
func TestObservableViewSharesGraph(t *testing.T) {
	g := verdictWorkload(t, 7, 24)
	a := New(g.Set, nil)
	var views []*Analyzer
	a.computeHook = func(view *Analyzer, lo, hi *rules.Rule) {
		if view != a {
			views = append(views, view)
		}
	}
	a.ObservableDeterminism()
	if len(views) == 0 {
		t.Fatal("the observable analysis examined no pair on its Obs view")
	}
	if a.tg == nil || views[0].tg != a.tg {
		t.Errorf("the Obs view's triggering graph (%p) is not the analyzer's (%p)", views[0].tg, a.tg)
	}
}

// TestShardBlockerListsAreDisjoint: the table lists of one Blockers()
// result share an array, yet each is its own, and the result is the
// caller's. On gen256, every element of every list is overwritten with its
// blocker's own marker, and then every list is appended to; a list that
// overlapped another, or whose capacity ran into the next, shows a marker
// or an append not its own. Nothing is undone, yet the plan renders, marshals
// and lists its blockers as before.
func TestShardBlockerListsAreDisjoint(t *testing.T) {
	g := verdictWorkload(t, 1000003+256, 256)
	plan := New(g.Set, nil).SetRefinement(true).ShardPlan()
	bs := plan.Blockers()
	if len(bs) < 30000 {
		t.Fatalf("%d blockers: the set is supposed to be densely ordered", len(bs))
	}
	text := plan.String()
	js, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]ShardBlocker, len(bs))
	for i, bl := range bs {
		want[i] = bl
		want[i].Tables = slices.Clone(bl.Tables)
	}

	marker := func(i int) string { return fmt.Sprintf("#%d", i) }
	for i := range bs {
		for k := range bs[i].Tables {
			bs[i].Tables[k] = marker(i)
		}
	}
	for i := range bs {
		grown := append(bs[i].Tables, "appended")
		if grown[len(grown)-1] != "appended" {
			t.Fatalf("blocker %d (%s): the append was lost", i, bs[i].Rule)
		}
	}
	for i := range bs {
		if len(bs[i].Tables) != len(want[i].Tables) {
			t.Fatalf("blocker %d (%s) lists %d tables, want %d", i, bs[i].Rule, len(bs[i].Tables), len(want[i].Tables))
		}
		for _, got := range bs[i].Tables {
			if got != marker(i) {
				t.Fatalf("blocker %d (%s) was written through another's list: %v", i, bs[i].Rule, bs[i].Tables)
			}
		}
	}

	if plan.String() != text {
		t.Fatal("the plan renders differently")
	}
	if got, err := json.Marshal(plan); err != nil || string(got) != string(js) {
		t.Fatalf("the plan's JSON differs (%v)", err)
	}
	if !reflect.DeepEqual(plan.Blockers(), want) {
		t.Fatal("a second Blockers() differs from the first as it was returned")
	}
}

// raceEnabled is set by race_test.go, which only a -race build compiles.
var raceEnabled bool

// TestShardPlanAllocs: rendering a plan takes the buffer and a scratch
// list, whatever the number of blockers; building one has no per-blocker
// term at all, at most one allocation per hundred priority blockers; and
// listing its blockers takes at most a quarter of an allocation per
// priority blocker (the edges' names are one string, the table lists one
// array). The per-blocker costs are the slopes between two totally
// ordered chains, where every pair of rules is a blocker and nothing else
// grows with the pairs.
func TestShardPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	g := verdictWorkload(t, 1000003+256, 256)
	plan := New(g.Set, nil).SetRefinement(true).ShardPlan()
	if len(plan.blockers) < 30000 {
		t.Fatalf("%d blockers: the set is supposed to be densely ordered", len(plan.blockers))
	}
	if got := testing.AllocsPerRun(5, func() { _ = plan.String() }); got > 2 {
		t.Errorf("String() of a %d-blocker plan: %.0f allocations, want at most 2", len(plan.blockers), got)
	}

	type cost struct{ plan, list float64 }
	chain := func(n int) (allocs cost, blockers int) {
		var src strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&src, "create rule r%d on a when inserted then insert into b values (1)\n", i)
			if i+1 < n {
				fmt.Fprintf(&src, "precedes r%d\n", i+1)
			}
			src.WriteString("\n")
		}
		a := compile(t, "table a (v int)\ntable b (v int)\n", src.String(), nil)
		p := a.ShardPlan()
		for _, bl := range p.Blockers() {
			if bl.Kind == BlockPriority {
				blockers++
			}
		}
		allocs.plan = testing.AllocsPerRun(3, func() { a.ShardPlan() })
		allocs.list = testing.AllocsPerRun(3, func() { p.Blockers() })
		return allocs, blockers
	}
	a32, b32 := chain(32)
	a96, b96 := chain(96)
	if b32 != 32*31/2 || b96 != 96*95/2 {
		t.Fatalf("chains of 32 and 96 rules have %d and %d priority blockers", b32, b96)
	}
	slope := func(what string, x32, x96, bound float64) {
		per := (x96 - x32) / float64(b96-b32)
		t.Logf("%s: %.0f allocations for %d priority blockers, %.0f for %d: %.3f per blocker", what, x96, b96, x32, b32, per)
		if per > bound {
			t.Errorf("%s: %.3f allocations per priority blocker, want at most %g", what, per, bound)
		}
	}
	slope("ShardPlan()", a32.plan, a96.plan, 0.01)
	slope("Blockers()", a32.list, a96.list, 0.25)
}

// TestLintAllocs: rendering a lint result takes the buffer and the
// string, whatever the number of findings; and linting takes at most
// one and a quarter allocations per RL003 finding (the message; the
// clause is quoted on the stack and the findings are merged, not
// sorted), measured as the slope between two fully ordered chains,
// where every rule precedes every later one and so every clause but the
// adjacent ones is redundant.
func TestLintAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	g := verdictWorkload(t, 1000003+256, 256)
	lr := New(g.Set, nil).SetRefinement(true).Lint()
	if len(lr.Diagnostics) < 9000 {
		t.Fatalf("%d findings: the set is supposed to be densely ordered", len(lr.Diagnostics))
	}
	if got := testing.AllocsPerRun(5, func() { _ = RenderLintText(lr, "gen256") }); got > 2 {
		t.Errorf("RenderLintText of %d findings: %.0f allocations, want at most 2", len(lr.Diagnostics), got)
	}

	chain := func(n int) (allocs float64, findings int) {
		var src strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&src, "create rule r%d on a when inserted then insert into b values (1)\n", i)
			for j := i + 1; j < n; j++ {
				if j == i+1 {
					src.WriteString("precedes ")
				} else {
					src.WriteString(", ")
				}
				fmt.Fprintf(&src, "r%d", j)
			}
			src.WriteString("\n\n")
		}
		a := compile(t, "table a (v int)\ntable b (v int)\n", src.String(), nil)
		for _, d := range a.Lint().Diagnostics {
			if d.Code == "RL003" {
				findings++
			}
		}
		return testing.AllocsPerRun(3, func() { a.Lint() }), findings
	}
	a32, f32 := chain(32)
	a96, f96 := chain(96)
	if f32 != 31*30/2 || f96 != 95*94/2 {
		t.Fatalf("chains of 32 and 96 rules have %d and %d RL003 findings", f32, f96)
	}
	per := (a96 - a32) / float64(f96-f32)
	t.Logf("%.0f allocations for %d RL003 findings, %.0f for %d: %.2f per finding", a96, f96, a32, f32, per)
	if per > 1.25 {
		t.Errorf("%.2f allocations per RL003 finding, want at most 1.25", per)
	}
}

func verdictWorkloadAt(tb testing.TB, seed int64, n int, prio float64) *workload.Generated {
	tb.Helper()
	cfg := verdictConfig(seed, n)
	cfg.PriorityDensity = prio
	g, err := workload.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// terminationOfOracle is the termination analysis from scratch: the
// pruned graph rebuilt, and every Tarjan run over the whole subset.
func (a *Analyzer) terminationOfOracle(subset []*rules.Rule) *TerminationVerdict {
	g := a.graph()
	droppedEdges := a.cert.DischargedEdges()
	if len(droppedEdges) > 0 {
		g = g.WithoutEdges(func(from, to *rules.Rule) bool {
			return a.cert.EdgeDischarged(from.Name, to.Name)
		})
	}
	if a.refine && a.ref != nil && len(a.ref.pruned) > 0 {
		g = g.WithoutEdges(func(from, to *rules.Rule) bool {
			_, pruned := a.ref.edgePruned(from, to)
			return pruned
		})
	}
	v := &TerminationVerdict{Graph: g, DischargedEdges: droppedEdges}
	if a.refine && a.ref != nil {
		v.Refined = true
		v.RefinementDischarged = a.ref.deadDischarges()
		v.PrunedEdges = a.ref.sortedPrunedEdges()
	}

	// Discharge pass. User discharges and refinement-dead rules apply
	// unconditionally; the tier-2 certificates need the component
	// structure and the set of already-discharged rules (interference
	// checks skip them), so iterate: recompute components, attempt
	// discharges, repeat until stable (tier2.go, DESIGN.md §12).
	discharged := map[string]bool{}
	for _, r := range a.set.Rules() {
		if a.cert.Discharged(r.Name) {
			discharged[r.Name] = true
			v.UserDischarged = append(v.UserDischarged, r.Name)
		}
	}
	for _, d := range v.RefinementDischarged {
		discharged[d.Rule] = true
	}
	excl := func(r *rules.Rule) bool { return discharged[r.Name] }

	// The cyclic SCCs of the pruned graph after the unconditional
	// discharges are the components tier 2 must certify; their IDs,
	// membership, and condensation strata are fixed here, before any
	// automatic discharge, so reports stay stable however the discharge
	// loop proceeds.
	initial := g.CyclicSCCs(subset, excl)
	strata := g.Strata(subset, excl)
	sccID := map[string]int{}
	v.SCCs = make([]SCCVerdict, len(initial))
	for i, comp := range initial {
		v.SCCs[i] = SCCVerdict{ID: i + 1, Stratum: strata[comp[0].Index()], Members: rules.Names(comp)}
		for _, r := range comp {
			sccID[r.Name] = i + 1
		}
	}

	eng := newTier2(a, subset, discharged)
	attempts := map[string]map[string]attemptFail{}
	for {
		sccs := g.CyclicSCCs(subset, excl)
		var steps []DischargeStep
		for _, comp := range sccs {
			for _, r := range comp {
				if step, fails, ok := eng.tryDischarge(r); ok {
					steps = append(steps, step)
				} else {
					attempts[r.Name] = fails
				}
			}
		}
		if len(steps) == 0 {
			v.CyclicSCCs = sccs
			break
		}
		for _, step := range steps {
			if discharged[step.Rule] {
				continue
			}
			discharged[step.Rule] = true
			v.AutoDischarged = append(v.AutoDischarged, step.Rule)
			if id := sccID[step.Rule]; id > 0 {
				v.SCCs[id-1].Certificate = append(v.SCCs[id-1].Certificate, step)
			}
		}
	}

	// Map the residual cyclic components back to their initial SCCs
	// (removing rules only ever splits components, so every residual
	// member belongs to exactly one initial SCC).
	residual := map[int][]string{}
	for _, comp := range v.CyclicSCCs {
		for _, r := range comp {
			id := sccID[r.Name]
			residual[id] = append(residual[id], r.Name)
		}
	}
	for i := range v.SCCs {
		res := residual[v.SCCs[i].ID]
		sort.Strings(res)
		v.SCCs[i].Residual = res
		v.SCCs[i].Discharged = len(res) == 0
		if len(res) > 0 {
			v.SCCs[i].Failures = bestFailures(attempts, res)
		}
	}

	for _, comp := range v.CyclicSCCs {
		if cyc := g.FindCycle(comp); cyc != nil {
			v.SampleCycles = append(v.SampleCycles, cyc)
		}
	}
	switch {
	case len(v.CyclicSCCs) > 0:
		v.Status = TermUnknown
	case len(initial) > 0:
		v.Status = TermCycleDischarged
	default:
		v.Status = TermAcyclic
	}
	v.Guaranteed = v.Status != TermUnknown
	return v
}

// observableOverCold is the observable analysis on a cold Obs view: the
// derived view evaluates every pair it needs in a table of its own.
func (a *Analyzer) observableOverCold(members []*rules.Rule, term *TerminationVerdict) *ObservableVerdict {
	obs := freshObsName(a.set.Schema())
	var observable []*rules.Rule
	for _, r := range members {
		if r.Observable() {
			observable = append(observable, r)
		}
	}
	ext := a.derive(a.view.withObs(obs, observable), a.ref)
	sig := ext.sigWithin(members, []string{obs})
	obsNames := rules.Names(observable)
	sort.Strings(obsNames)
	return &ObservableVerdict{
		ObsTable:        obs,
		ObservableRules: obsNames,
		Partial: &PartialConfluenceVerdict{
			Tables:     []string{obs},
			Sig:        sig,
			Confluence: ext.confluenceOver(sig, a.TerminationOf(sig)),
		},
		Termination: term,
	}
}

// edgeCertified is a set whose cycles a certification breaks in every
// way it can: an edge discharge cuts a two-rule cycle, a rule discharge
// takes a self-loop out, and a third cycle, which shares a rule with the
// cut one, stays.
func edgeCertified(t *testing.T) *rules.Set {
	t.Helper()
	return compile(t, "table a (v int)\ntable b (v int)\ntable c (v int)\ntable e (v int)\n", `
create rule ra on a when inserted then insert into b select v from inserted
create rule rb on b when inserted then insert into a select v from inserted; insert into c select v from inserted
create rule rc on c when inserted then insert into b select v + 1 from inserted where v < 10
create rule re on e when inserted then insert into e select v from inserted
create rule watch on c when inserted then select v from inserted
`, nil).set
}

// terminationSubsets are the subsets an analysis asks termination of —
// every shard Sig (an empty one as nil, as ShardPlan passes it), a
// partial-confluence Sig and Sig(Obs) — and 20 seeded random ones.
func terminationSubsets(c oracleSet) [][]*rules.Rule {
	a := c.analyzer()
	var out [][]*rules.Rule
	for _, g := range a.ShardPlan().Shards {
		var sig []*rules.Rule
		for _, name := range g.Sig {
			sig = append(sig, c.set.Rule(name))
		}
		slices.SortFunc(sig, func(x, y *rules.Rule) int { return x.Index() - y.Index() })
		out = append(out, sig)
	}
	tables := c.set.Schema().TableNames()
	out = append(out, a.PartialConfluence(tables[:min(4, len(tables))]).Sig)
	out = append(out, a.ObservableDeterminism().Partial.Sig)
	rng := rand.New(rand.NewSource(int64(c.set.Len())))
	for i := 0; i < 20; i++ {
		sub := []*rules.Rule{}
		for _, r := range c.set.Rules() {
			if rng.Intn(2) == 0 {
				sub = append(sub, r)
			}
		}
		out = append(out, sub)
	}
	return out
}

// TestTerminationOfMatchesScalarOracle: over the corpus, a set with
// certified edge and rule discharges (refinement on and off), every
// termination verdict an analyzer gives — the full set's, asked before
// and after its subsets', and every subset's — equals the from-scratch
// analysis field for field: SCC IDs, strata, certificates, residuals,
// sample cycles and status.
func TestTerminationOfMatchesScalarOracle(t *testing.T) {
	certified := edgeCertified(t)
	cert := NewCertification().DischargeEdge("rb", "ra").DischargeRule("re")
	corpus := append(oracleCorpus(t),
		oracleSet{"edge-certified", certified, false, cert},
		oracleSet{"edge-certified/refined", certified, true, cert})
	cyclic := 0
	for _, c := range corpus {
		want := c.analyzer()
		subsets := terminationSubsets(c)
		for _, fullFirst := range []bool{true, false} {
			got := c.analyzer()
			if fullFirst {
				if g, w := got.Termination(), want.terminationOfOracle(nil); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: Termination() =\n%+v\nwant\n%+v", c.name, g, w)
				}
			}
			for i, s := range subsets {
				g, w := got.TerminationOf(s), want.terminationOfOracle(s)
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: TerminationOf(subset %d, %v) =\n%+v\nwant\n%+v", c.name, i, ruleNames(s), g, w)
				}
				if len(w.SCCs) > 0 {
					cyclic++
				}
			}
			if g, w := got.Termination(), want.terminationOfOracle(nil); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s (full first %v): Termination() after the subsets =\n%+v\nwant\n%+v", c.name, fullFirst, g, w)
			}
		}
	}
	if cyclic == 0 {
		t.Error("no subset of the corpus holds a cycle")
	}
}

// TestObservableViewMatchesColdView: the Obs view that reads and fills
// the analyzer's verdict table gives the verdict, violations, report and
// upgrades of a cold view with a table of its own — from a cold analyzer
// and from one a Confluence pass has warmed — and the upgrades stay equal
// after a partial-confluence pass that reads what the view published.
// ShardPlan is left out: its union-find examines fewer pairs the warmer
// the table is, so the upgrades it records depend on what ran before it.
func TestObservableViewMatchesColdView(t *testing.T) {
	for _, c := range oracleCorpus(t) {
		for _, warm := range []bool{false, true} {
			got, want := c.analyzer(), c.analyzer()
			if warm {
				got.Confluence()
				want.Confluence()
			}
			g := got.ObservableDeterminism()
			w := want.observableOverCold(want.set.Rules(), want.Termination())
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("%s warm=%v: ObservableDeterminism() =\n%+v\nwant\n%+v", c.name, warm, g, w)
			}
			if !reflect.DeepEqual(g.Violations(), w.Violations()) {
				t.Fatalf("%s warm=%v: violations differ", c.name, warm)
			}
			if gr, wr := ReportObservable(g), ReportObservable(w); gr != wr {
				t.Fatalf("%s warm=%v: report\n%s\nwant\n%s", c.name, warm, gr, wr)
			}
			sameUpgrades := func(after string) {
				if g, w := got.Upgrades(), want.Upgrades(); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s warm=%v: upgrades after the %s pass\n%v\nwant\n%v", c.name, warm, after, g, w)
				}
			}
			sameUpgrades("observable")
			tables := c.set.Schema().TableNames()[:1]
			got.PartialConfluence(tables)
			want.PartialConfluence(tables)
			sameUpgrades("partial-confluence")
		}
	}
}
