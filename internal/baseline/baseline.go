// Package baseline implements an HH91-style unique-fixed-point analyzer,
// the comparison point for the subsumption claim of Section 9 of the
// paper.
//
// Hellerstein & Hsu (IBM RJ 8009, 1991) — like the earlier [Ras90] and
// [ZH90] — analyze production systems without the paper's priority-aware
// refinement: a rule set is guaranteed a unique fixed point when rule
// applications cannot interfere, which in the unprioritized setting means
// every pair of distinct rules must commute (compare Corollary 6.9: with
// P = ∅ the paper's Confluence Requirement degenerates to exactly this).
// The baseline therefore accepts a rule set iff (1) its triggering graph
// is acyclic and (2) every pair of distinct rules commutes under the
// conservative conditions of Lemma 6.1, ignoring priorities entirely.
//
// The paper's analysis properly subsumes this baseline: every
// baseline-accepted set satisfies the Confluence Requirement (all pairs
// commute, so every R1 × R2 check passes), while the paper's analysis
// additionally accepts sets whose conflicts are resolved by priorities.
// The E5 experiment quantifies the gap.
package baseline

import (
	"activerules/internal/analysis"
	"activerules/internal/rules"
)

// Verdict is the baseline analysis outcome.
type Verdict struct {
	// Terminates reports an acyclic triggering graph (no discharges; the
	// baseline has no interactive component).
	Terminates bool
	// AllPairsCommute reports that every pair of distinct rules commutes
	// under Lemma 6.1 with no certifications.
	AllPairsCommute bool
	// FailedPairs lists the noncommuting pairs (by name, a < b).
	FailedPairs [][2]string
}

// UniqueFixedPoint reports the overall verdict: the rule set is
// guaranteed a unique fixed point by the baseline criteria.
func (v *Verdict) UniqueFixedPoint() bool { return v.Terminates && v.AllPairsCommute }

// Analyze runs the baseline analysis.
func Analyze(set *rules.Set) *Verdict {
	a := analysis.New(set, nil)
	v := &Verdict{}

	// Termination: acyclic triggering graph, no discharge heuristics
	// (the baseline has no user in the loop). Reuse the graph directly.
	g := analysis.BuildTriggeringGraph(set)
	v.Terminates = len(g.CyclicSCCs(set.Rules(), nil)) == 0

	rs := set.Rules()
	v.AllPairsCommute = true
	for i, ri := range rs {
		for _, rj := range rs[i+1:] {
			if ok, _ := a.Commute(ri, rj); !ok {
				v.AllPairsCommute = false
				pa, pb := ri.Name, rj.Name
				if pa > pb {
					pa, pb = pb, pa
				}
				v.FailedPairs = append(v.FailedPairs, [2]string{pa, pb})
			}
		}
	}
	return v
}
