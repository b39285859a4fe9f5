package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// Stats summarizes the structure of a rule set for the interactive
// environment: triggering-graph shape, priority coverage, commutativity
// profile (with a histogram of which Lemma 6.1 conditions fire), and
// partition structure. It is descriptive only; verdicts come from the
// analyses.
type Stats struct {
	Rules  int
	Tables int

	// Triggering graph (Section 5).
	TriggerEdges int
	SelfLoops    int
	CyclicRules  int // rules in cycle-sustaining SCCs (before discharges)

	// Priorities (Section 3).
	OrderedPairs   int
	UnorderedPairs int

	// Commutativity (Lemma 6.1) over all distinct pairs.
	CommutingPairs    int
	NoncommutingPairs int
	// ConditionCounts[c] counts pairs where condition c fired (a pair
	// may fire several conditions).
	ConditionCounts map[int]int

	// Observable rules (Section 8) and partitions (Section 9).
	ObservableRules  int
	Partitions       int
	LargestPartition int
}

// Stats computes the summary.
func (a *Analyzer) Stats() *Stats {
	s := &Stats{
		Rules:           a.set.Len(),
		Tables:          a.set.Schema().NumTables(),
		ConditionCounts: map[int]int{},
	}
	g := a.graph()
	s.TriggerEdges = g.EdgeCount()
	for _, r := range a.set.Rules() {
		if g.HasEdge(r, r) {
			s.SelfLoops++
		}
		if r.Observable() {
			s.ObservableRules++
		}
	}
	for _, comp := range g.CyclicSCCs(a.set.Rules(), nil) {
		s.CyclicRules += len(comp)
	}
	rs := a.set.Rules()
	for i, ri := range rs {
		for _, rj := range rs[i+1:] {
			if a.set.Ordered(ri, rj) {
				s.OrderedPairs++
			} else {
				s.UnorderedPairs++
			}
			ok, reasons := a.Commute(ri, rj)
			if ok {
				s.CommutingPairs++
			} else {
				s.NoncommutingPairs++
				seen := map[int]bool{}
				for _, r := range reasons {
					if !seen[r.Cond] {
						seen[r.Cond] = true
						s.ConditionCounts[r.Cond]++
					}
				}
			}
		}
	}
	parts := a.Partition()
	s.Partitions = len(parts)
	for _, p := range parts {
		if len(p) > s.LargestPartition {
			s.LargestPartition = len(p)
		}
	}
	return s
}

// ReportStats renders the summary.
func ReportStats(s *Stats) string {
	var sb strings.Builder
	sb.WriteString("RULE SET STATISTICS:\n")
	fmt.Fprintf(&sb, "  rules: %d  tables: %d  observable rules: %d\n",
		s.Rules, s.Tables, s.ObservableRules)
	fmt.Fprintf(&sb, "  triggering graph: %d edges, %d self-loops, %d rules on cycles\n",
		s.TriggerEdges, s.SelfLoops, s.CyclicRules)
	fmt.Fprintf(&sb, "  pairs: %d ordered, %d unordered; %d commute, %d may not\n",
		s.OrderedPairs, s.UnorderedPairs, s.CommutingPairs, s.NoncommutingPairs)
	if len(s.ConditionCounts) > 0 {
		conds := make([]int, 0, len(s.ConditionCounts))
		for c := range s.ConditionCounts {
			conds = append(conds, c)
		}
		sort.Ints(conds)
		sb.WriteString("  noncommutativity conditions (Lemma 6.1):")
		for _, c := range conds {
			fmt.Fprintf(&sb, " %d:%d", c, s.ConditionCounts[c])
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "  partitions: %d (largest %d rules)\n", s.Partitions, s.LargestPartition)
	return sb.String()
}
