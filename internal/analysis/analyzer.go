package analysis

import (
	"activerules/internal/rules"
	"activerules/internal/schema"
)

// Analyzer runs the static analyses over one compiled rule set, honoring
// a user Certification. Construction materializes the rule view (three
// small sorts per rule); the triggering graph, the pair-verdict table and
// the termination memo (the pruned graph, its cyclic core and the full
// set's verdict) are built lazily, on first use, and then kept for the
// analyzer's life — the table and the memo until SetRefinement. Both
// assume the certification does not change while the analyzer lives.
// An Analyzer is not safe for concurrent use: each goroutine that
// analyzes needs an analyzer of its own.
type Analyzer struct {
	set  *rules.Set
	cert *Certification
	view ruleView
	tg   *TriggeringGraph

	// noCond7 disables the masking refinement (condition 7), restoring
	// the paper's original Lemma 6.1. Only the E9 ablation experiment
	// sets it, to demonstrate that the refinement is necessary for
	// soundness under exact net-effect semantics.
	noCond7 bool

	// ref holds the precomputed abstract summaries of condition-aware
	// refinement (see refine.go); nil when refinement is off. Set via
	// SetRefinement.
	ref *refinement

	// verdicts memoizes Commute per unordered pair (see verdicts.go). An
	// analyzer's inputs (set, certifications, view, refinement) are
	// fixed between SetRefinement calls, so a verdict never changes once
	// published; nil until the first Commute, and again after
	// SetRefinement.
	verdicts *verdictTable

	// term memoizes what every termination verdict starts from (see
	// termination.go); nil until the first one, and reset with verdicts.
	term *termMemo

	// computeHook, when set, observes every commuteUncached run. Tests
	// only: it is how the exact-once tripwire counts Lemma 6.1
	// evaluations, including those of derived views.
	computeHook func(view *Analyzer, lo, hi *rules.Rule)

	// requirementHook, when set, sees every Confluence Requirement check
	// of an unordered pair. Tests only: it is how the once-per-pair
	// tripwire of PartialConfluencePerTable counts them.
	requirementHook func(ri, rj *rules.Rule)

	// blockersHook, when set, sees ShardPlan's plan with its blockers as
	// emitted, before the sort that fixes their order. Tests only: it is
	// how the emitted-in-order tripwire reads them.
	blockersHook func(*ShardPlan)
}

// ruleView is the Performs, Reads and Triggered-By sets the analyses see,
// materialized once per view and indexed by rule: observable-determinism
// analysis (Section 8) extends Performs and Reads with the fictional Obs
// table without touching the rule set. Every entry is immutable, so
// derived views share the entries they do not change.
type ruleView struct {
	facts []ruleFacts
	// tableNo numbers the tables in order of first appearance, for the
	// entries' table signatures.
	tableNo map[string]int
}

// ruleFacts is one rule's sets in the forms Lemma 6.1 needs: the maps
// for membership tests, slices sorted once (table, kind, column) for the
// deterministic iteration that fixes each reported Detail, and two table
// signatures. Every condition of the lemma, in the direction ri to rj,
// needs a table that ri performs an operation on and that rj is
// triggered by, reads or performs an operation on — so when writes(ri)
// misses touches(rj) and writes(rj) misses touches(ri), the pair
// commutes and no condition has to be evaluated.
type ruleFacts struct {
	performs schema.OpSet
	reads    schema.ColSet

	performsSorted    []schema.Op
	readsSorted       []schema.ColumnRef
	triggeredBySorted []schema.Op

	writes, touches tableSig
}

// tableSig is a 128-bit signature of a set of tables: table number k
// sets bit k mod 128. Signatures that do not intersect prove the sets
// disjoint; past 128 tables a collision can only make disjoint sets look
// like they intersect, which costs a full evaluation and nothing else.
type tableSig [2]uint64

func (s *tableSig) add(k int) { s[k/64%2] |= 1 << (k % 64) }

func (s tableSig) intersects(o tableSig) bool { return s[0]&o[0]|s[1]&o[1] != 0 }

// newFacts materializes one rule's entry, numbering the tables it meets
// for the first time.
func (v *ruleView) newFacts(r *rules.Rule, performs schema.OpSet, reads schema.ColSet) ruleFacts {
	f := ruleFacts{
		performs:          performs,
		reads:             reads,
		performsSorted:    performs.Sorted(),
		readsSorted:       reads.Sorted(),
		triggeredBySorted: r.TriggeredBy().Sorted(),
	}
	number := func(table string) int {
		k, ok := v.tableNo[table]
		if !ok {
			k = len(v.tableNo)
			v.tableNo[table] = k
		}
		return k
	}
	for _, op := range f.performsSorted {
		f.writes.add(number(op.Table))
	}
	f.touches = f.writes
	for _, ref := range f.readsSorted {
		f.touches.add(number(ref.Table))
	}
	for _, op := range f.triggeredBySorted {
		f.touches.add(number(op.Table))
	}
	return f
}

func baseView(set *rules.Set) ruleView {
	v := ruleView{facts: make([]ruleFacts, set.Len()), tableNo: map[string]int{}}
	for i, r := range set.Rules() {
		v.facts[i] = v.newFacts(r, r.Performs(), r.Reads())
	}
	return v
}

func (v ruleView) of(r *rules.Rule) *ruleFacts         { return &v.facts[r.Index()] }
func (v ruleView) performs(r *rules.Rule) schema.OpSet { return v.facts[r.Index()].performs }
func (v ruleView) reads(r *rules.Rule) schema.ColSet   { return v.facts[r.Index()].reads }

// withObs extends the view per Theorem 8.1: each of the given
// observable rules also performs (I, obs) and reads obs.c — it
// conceptually timestamps and logs its observable actions in the
// fictional table obs.
func (v ruleView) withObs(obs string, observable []*rules.Rule) ruleView {
	ext := ruleView{
		facts:   append([]ruleFacts(nil), v.facts...),
		tableNo: make(map[string]int, len(v.tableNo)+1),
	}
	for table, k := range v.tableNo {
		ext.tableNo[table] = k
	}
	for _, r := range observable {
		performs := v.performs(r).Clone()
		performs.Add(schema.Insert(obs))
		reads := v.reads(r).Clone()
		reads.Add(schema.ColRef(obs, "c"))
		ext.facts[r.Index()] = ext.newFacts(r, performs, reads)
	}
	return ext
}

// New creates an analyzer for the rule set. cert may be nil (no
// certifications).
func New(set *rules.Set, cert *Certification) *Analyzer {
	if cert == nil {
		cert = NewCertification()
	}
	return &Analyzer{set: set, cert: cert, view: baseView(set)}
}

// SetParallelism has no effect: the analyzer runs on one goroutine. It
// returns the analyzer for chaining.
//
// Deprecated: the pairwise passes are sequential; drop the call.
func (a *Analyzer) SetParallelism(int) *Analyzer { return a }

// Set returns the analyzed rule set.
func (a *Analyzer) Set() *rules.Set { return a.set }

// graph lazily builds the triggering graph. The graph depends only on
// the base Triggered-By/Performs sets: the Obs extension adds only
// (I, Obs) operations, and no rule is triggered by Obs, so the graph is
// shared across views.
func (a *Analyzer) graph() *TriggeringGraph {
	if a.tg == nil {
		a.tg = BuildTriggeringGraph(a.set)
	}
	return a.tg
}

// derive returns a copy of a that sees view v under refinement ref (nil:
// refinement off), with an empty verdict table and termination memo:
// both depend on the refinement, and a pair's verdict on the view too
// (the Obs extension makes observable rules conflict; observableOver
// then points the copy's table at a's for the pairs the extension
// leaves alone). The triggering graph is built first if nothing has
// needed it yet, or the copy and a would each go on to build one.
func (a *Analyzer) derive(v ruleView, ref *refinement) *Analyzer {
	a.graph()
	d := *a
	d.view, d.verdicts, d.term, d.ref = v, nil, nil, ref
	return &d
}

// reordered returns a copy of a over ns, which must be a's rule set with
// priorities added (rules.Set.WithOrdering). Everything else carries
// over: the triggering graph, the view and the refinement summaries
// depend on the rules alone, not on their order. Only the verdict table
// and the termination memo start over.
func (a *Analyzer) reordered(ns *rules.Set) *Analyzer {
	a.graph()
	d := *a
	d.set, d.verdicts, d.term = ns, nil, nil
	return &d
}
