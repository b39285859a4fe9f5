package analysis

// The differential tests: the analyzer against the reference of
// reference_test.go, over the corpus below — results, renderings, and for
// Sig the exact sequence of pairs handed to Lemma 6.1, since with
// refinement on the first examination of a pair is part of the rendered
// report (DESIGN.md §6, "Examined pairs are observable").

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"activerules/internal/rules"
	"activerules/internal/schema"
	"activerules/internal/workload"
)

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
			g := verdictWorkloadAt(seed, 24+int(seed)*6, prio)
			out = append(out, oracleSet{fmt.Sprintf("gen/seed=%d/prio=%.1f", seed, prio), g.Set, seed%2 == 0, nil})
		}
		g := verdictWorkloadAt(1, 30, prio)
		out = append(out, oracleSet{fmt.Sprintf("gen/seed=1/prio=%.1f/certified", prio), g.Set, prio > 0.3,
			certifyAround(g.Set, "r0", "r1", "r2")})
	}
	observer := compile(t, "table a (v int)\ntable b (v int)\n",
		"create rule copy on a when inserted then insert into b select v from inserted\n\n"+
			"create rule watch on b when inserted then select v from inserted\n", nil).set
	out = append(out, oracleSet{"observer/certified", observer, false, certifyAround(observer, "watch")})
	// A shard whose Sig cannot be shown to terminate although its
	// Confluence Requirement holds, and a shard with an empty Sig, which
	// terminates and so is confluent.
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
// analysis, the word-wise fixpoint returns the reference's rules and
// hands Lemma 6.1 the same pairs in the same order — from a cold verdict
// table and from one a Confluence pass has warmed.
func TestSigMatchesScalarOracle(t *testing.T) {
	for _, c := range oracleCorpus(t) {
		for _, warm := range []bool{false, true} {
			got, gotLog := c.hooked()
			want, wantLog := c.hooked()
			ref := newReference(want)
			if warm {
				got.Confluence()
				want.Confluence()
				if !reflect.DeepEqual(*gotLog, *wantLog) {
					t.Fatalf("%s: two Confluence passes examined different pairs", c.name)
				}
			}
			for _, tb := range c.set.Schema().SortedTables() {
				g, w := got.Sig([]string{tb.Name}), ref.sig(c.set.Rules(), []string{tb.Name})
				if !reflect.DeepEqual(ruleNames(g), ruleNames(w)) {
					t.Fatalf("%s warm=%v: Sig({%s}) = %v, reference %v", c.name, warm, tb.Name, ruleNames(g), ruleNames(w))
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
			refObs := ref.withObs(members)
			gotExt := got.derive(got.view.withObs(refObs.obs, refObs.ext), got.ref)
			g, w := gotExt.sigWithin(members, []string{refObs.obs}), refObs.sig(members, []string{refObs.obs})
			if !reflect.DeepEqual(ruleNames(g), ruleNames(w)) || !reflect.DeepEqual(*gotLog, *wantLog) {
				t.Fatalf("%s warm=%v: Sig(Obs) within %d of %d members = %v, reference %v; examined\n got %v\nwant %v",
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
		ref := newReference(a)
		for _, p := range c.set.UnorderedPairs() {
			g1, g2 := a.BuildR1R2(p[0], p[1])
			w1, w2 := ref.r1r2(p[0], p[1])
			if !reflect.DeepEqual(ruleNames(g1), ruleNames(w1)) || !reflect.DeepEqual(ruleNames(g2), ruleNames(w2)) {
				t.Fatalf("%s: pair (%s, %s): R1 %v R2 %v, reference R1 %v R2 %v", c.name, p[0].Name, p[1].Name,
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
// reference's plan — shards, Blockers() and their order, JSON — and
// renders it byte for byte as the reference renders it through fmt. Where no
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
		want := newReference(c.analyzer()).shardPlan()
		if listed := (&referencePlan{got.Shards, got.Blockers()}); !reflect.DeepEqual(listed, want) {
			t.Fatalf("%s: plans differ:\n--- slots\n%s--- reference\n%s", c.name, listed.text(), want.text())
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
		if s := got.String(); s != want.text() {
			t.Fatalf("%s: rendering differs:\n--- appender\n%s--- fmt\n%s", c.name, s, want.text())
		}
		gotJSON, err1 := json.Marshal(got)
		wantJSON, err2 := json.Marshal(want)
		if err1 != nil || err2 != nil || string(gotJSON) != string(wantJSON) {
			t.Fatalf("%s: JSON differs (%v, %v):\n%s\n%s", c.name, err1, err2, gotJSON, wantJSON)
		}
		for _, bl := range got.Blockers() {
			if bl.String() != blockerText(bl) {
				t.Fatalf("%s: blocker renders %q, fmt %q", c.name, bl.String(), blockerText(bl))
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
	if odd.String() != blockerText(odd) {
		t.Errorf("unknown kind renders %q, fmt %q", odd.String(), blockerText(odd))
	}
	empty := &ShardPlan{}
	if w := (&referencePlan{}).text(); empty.String() != w {
		t.Errorf("empty plan renders %q, fmt %q", empty.String(), w)
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
// off, Lint finds the reference's diagnostics in its order, and the
// appender renders them as the reference does through fmt, with and
// without a file label. The
// corpus must reach every part of a rendering: source spans, notes,
// hints, and an RL003 clause whose quoting escapes a character. It must
// also reach both paths of Lint's merge: a set whose RL003 findings list
// apart from the index order the reference emits them in (Line-0 names
// such as r9 and r10), and a set where some detector's run is out of
// listing order and needs its own sort.
func TestLintMatchesScalarOracle(t *testing.T) {
	var spans, notes, hints, escaped, reordered, unsortedRun int
	for _, c := range oracleCorpus(t) {
		reorders, sorts := false, false
		for _, refine := range []bool{false, true} {
			got := New(c.set, nil).SetRefinement(refine).Lint()
			ref := newReference(New(c.set, nil).SetRefinement(refine))
			want := ref.lint()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s refine=%v: lint differs:\n--- got\n%s--- reference\n%s", c.name, refine,
					lintText(got, ""), lintText(want, ""))
			}
			runs := New(c.set, nil).SetRefinement(refine).withRefinement().lintRuns()
			reorders = reorders || !reflect.DeepEqual(runs[2], ref.rl003())
			sorts = sorts || slices.ContainsFunc(runs[:], func(run []Diagnostic) bool {
				return !slices.IsSortedFunc(run, compareDiagnostics)
			})
			for _, file := range []string{"", "rules.srl"} {
				if s, w := RenderLintText(got, file), lintText(want, file); s != w {
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

// verdictWorkloadAt is verdictWorkload at a priority density of prio.
func verdictWorkloadAt(seed int64, n int, prio float64) *workload.Generated {
	cfg := verdictConfig(seed, n)
	cfg.PriorityDensity = prio
	return workload.MustGenerate(cfg)
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
// every shard Sig (an empty one included: it is acyclic), a
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
// and after its subsets', and every subset's — equals the reference's
// field for field: the pruned graph, SCC IDs, strata, certificates,
// residuals, sample cycles (checked as cycles) and status.
func TestTerminationOfMatchesScalarOracle(t *testing.T) {
	certified := edgeCertified(t)
	cert := NewCertification().DischargeEdge("rb", "ra").DischargeRule("re")
	corpus := append(oracleCorpus(t),
		oracleSet{"edge-certified", certified, false, cert},
		oracleSet{"edge-certified/refined", certified, true, cert})
	cyclic := 0
	for _, c := range corpus {
		ref := newReference(c.analyzer())
		subsets := terminationSubsets(c)
		for _, fullFirst := range []bool{true, false} {
			got := c.analyzer()
			if fullFirst {
				if err := ref.sameTermination(got.Termination(), ref.termination(c.set.Rules())); err != nil {
					t.Fatalf("%s: Termination(): %v", c.name, err)
				}
			}
			for i, s := range subsets {
				w := ref.termination(s)
				if err := ref.sameTermination(got.TerminationOf(s), w); err != nil {
					t.Fatalf("%s: TerminationOf(subset %d, %v): %v", c.name, i, ruleNames(s), err)
				}
				if len(w.SCCs) > 0 {
					cyclic++
				}
			}
			if err := ref.sameTermination(got.Termination(), ref.termination(c.set.Rules())); err != nil {
				t.Fatalf("%s (full first %v): Termination() after the subsets: %v", c.name, fullFirst, err)
			}
		}
	}
	if cyclic == 0 {
		t.Error("no subset of the corpus holds a cycle")
	}
}

// TestObservableViewMatchesColdView: the Obs view that reads and fills
// the analyzer's verdict table gives the verdict, violations, report and
// upgrades of the reference's Theorem 8.1, whose view has a table of its
// own — from a cold analyzer and from one a Confluence pass has warmed —
// and the upgrades stay equal after a partial-confluence pass that reads
// what the view published.
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
			ref := newReference(want)
			g := got.ObservableDeterminism()
			w := ref.observable(c.set.Rules(), ref.termination(c.set.Rules()))
			err := errors.Join(ref.sameTermination(g.Termination, w.Termination),
				ref.sameTermination(g.Partial.Confluence.Termination, w.Partial.Confluence.Termination))
			if err != nil || !reflect.DeepEqual(g, w) {
				t.Fatalf("%s warm=%v: ObservableDeterminism() =\n%+v\nwant\n%+v\n%v", c.name, warm, g, w, err)
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
			sig := ref.sig(c.set.Rules(), tables)
			ref.confluence(sig, ref.termination(sig))
			sameUpgrades("partial-confluence")
		}
	}
}
