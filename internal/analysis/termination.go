package analysis

import (
	"maps"
	"sort"

	"activerules/internal/rules"
)

// TerminationVerdict is the outcome of the Section 5 analysis plus the
// tier-2 chase-style discharge engine (tier2.go, DESIGN.md §12).
type TerminationVerdict struct {
	// Guaranteed reports that rule processing terminates for every
	// initial database state and user transition (Theorem 5.1, after
	// removing discharged rules from the triggering graph). Equivalent
	// to Status != TermUnknown; kept for existing consumers.
	Guaranteed bool

	// Status is the three-valued tiered verdict: acyclic (Theorem 5.1
	// directly), cycle-discharged (cyclic SCCs existed, all certified),
	// or unknown.
	Status TerminationStatus

	// SCCs holds the tier-2 verdict for every cyclic strong component
	// of the analyzed graph, in deterministic component order, with
	// stable 1-based IDs, condensation strata, and per-component
	// certificates or failure explanations.
	SCCs []SCCVerdict

	// CyclicSCCs are the strong components that still sustain cycles
	// after discharges; these are what the user must inspect (Section 5:
	// "the user is notified of all cycles (or strong components)").
	CyclicSCCs [][]*rules.Rule

	// SampleCycles holds one concrete triggering cycle per cyclic SCC,
	// for readable reports.
	SampleCycles [][]*rules.Rule

	// AutoDischarged lists rules discharged automatically by the tier-2
	// certificates (ranking, delete-only, convergent-update), in the
	// order the discharges were established. The certificates live on
	// SCCs.
	AutoDischarged []string

	// UserDischarged lists the user-certified discharges that were
	// applied.
	UserDischarged []string

	// DischargedEdges lists the user-certified edge discharges removed
	// from the graph before the cycle check.
	DischargedEdges [][2]string

	// Refined reports that condition-aware refinement (SetRefinement)
	// was active for this analysis. The following two fields are only
	// populated when it was.
	Refined bool

	// RefinementDischarged lists rules discharged because their
	// condition is statically unsatisfiable (dead rules).
	RefinementDischarged []RefinementDischarge

	// PrunedEdges lists the triggering edges removed by predicate
	// abstraction, each with its justification, sorted by (From, To).
	PrunedEdges []PrunedEdge

	// Graph is the triggering graph analyzed, for further inspection.
	Graph *TriggeringGraph
}

// Termination analyzes termination of the full rule set (Section 5):
// build TG_R, auto-discharge the delete-only special case, apply user
// discharges, and check the remainder for cycles. The verdict is
// memoized in the termination memo.
func (a *Analyzer) Termination() *TerminationVerdict {
	m := a.termBase()
	if m.full == nil {
		m.full = a.TerminationOf(a.set.Rules())
	}
	return m.full
}

// termMemo is what every termination verdict of an analyzer starts
// from, derived once (DESIGN.md §12.1).
type termMemo struct {
	// head holds the fields every verdict shares: the pruned graph
	// (certified edge discharges and refinement pruning removed) and the
	// discharges behind it.
	head TerminationVerdict
	out  map[string]bool // rules discharged unconditionally: by the user, or dead
	// core holds the rules on a cycle of the pruned graph without out.
	// Every cycle of a subset's graph is one of the full graph's, so
	// every cyclic component of a subset lies within the core.
	core rules.Bits
	full *TerminationVerdict // the full set's verdict, once asked for
}

// termBase returns the analyzer's termination memo, building it on first
// use.
func (a *Analyzer) termBase() *termMemo {
	if a.term != nil {
		return a.term
	}
	g := a.graph()
	droppedEdges := a.cert.DischargedEdges()
	if len(droppedEdges) > 0 {
		g = g.WithoutEdges(func(from, to *rules.Rule) bool {
			return a.cert.EdgeDischarged(from.Name, to.Name)
		})
	}
	if a.ref != nil && len(a.ref.pruned) > 0 {
		g = g.WithoutEdges(func(from, to *rules.Rule) bool {
			_, pruned := a.ref.edgePruned(from, to)
			return pruned
		})
	}
	m := &termMemo{head: TerminationVerdict{Graph: g, DischargedEdges: droppedEdges},
		out: map[string]bool{}, core: rules.NewBits(a.set.Len())}
	if a.ref != nil {
		m.head.Refined = true
		m.head.RefinementDischarged = a.ref.deadDischarges()
		m.head.PrunedEdges = a.ref.sortedPrunedEdges()
	}
	for _, r := range a.set.Rules() {
		if a.cert.Discharged(r.Name) {
			m.out[r.Name] = true
			m.head.UserDischarged = append(m.head.UserDischarged, r.Name)
		}
	}
	for _, d := range m.head.RefinementDischarged {
		m.out[d.Rule] = true
	}
	for _, comp := range g.CyclicSCCs(a.set.Rules(), func(r *rules.Rule) bool { return m.out[r.Name] }) {
		for _, r := range comp {
			m.core.Add(r.Index())
		}
	}
	a.term = m
	return m
}

// TerminationOf analyzes termination of exactly the rules in subset,
// processed on their own, as required for partial confluence (footnote
// 7 of Section 7). An empty subset is acyclic.
func (a *Analyzer) TerminationOf(subset []*rules.Rule) *TerminationVerdict {
	m := a.termBase()
	v := new(TerminationVerdict)
	*v = m.head
	g := v.Graph

	// The subset's cyclic components lie within the core, so Tarjan need
	// only see the subset's core rules; a subset without any is acyclic.
	var onCore []*rules.Rule
	for _, r := range subset {
		if m.core.Has(r.Index()) {
			onCore = append(onCore, r)
		}
	}
	if len(onCore) == 0 {
		v.SCCs = []SCCVerdict{}
		v.Status, v.Guaranteed = TermAcyclic, true
		return v
	}

	// Discharge pass. User discharges and refinement-dead rules apply
	// unconditionally; the tier-2 certificates need the component
	// structure and the set of already-discharged rules (interference
	// checks skip them), so iterate: recompute components, attempt
	// discharges, repeat until stable (tier2.go, DESIGN.md §12).
	discharged := maps.Clone(m.out)
	excl := func(r *rules.Rule) bool { return discharged[r.Name] }

	// The cyclic SCCs of the pruned graph after the unconditional
	// discharges are the components tier 2 must certify; their IDs,
	// membership, and condensation strata are fixed here, before any
	// automatic discharge, so reports stay stable however the discharge
	// loop proceeds. The strata are those of the whole subset's
	// condensation.
	initial := g.CyclicSCCs(onCore, excl)
	sccID := map[string]int{}
	v.SCCs = make([]SCCVerdict, len(initial))
	if len(initial) > 0 {
		strata := g.Strata(subset, excl)
		for i, comp := range initial {
			v.SCCs[i] = SCCVerdict{ID: i + 1, Stratum: strata[comp[0].Index()], Members: rules.Names(comp)}
			for _, r := range comp {
				sccID[r.Name] = i + 1
			}
		}
	}

	eng := newTier2(a, subset, discharged)
	attempts := map[string]map[string]attemptFail{}
	for sccs := initial; ; sccs = g.CyclicSCCs(onCore, excl) {
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
