package analysis

import (
	"fmt"
	"math/bits"
	"sort"

	"activerules/internal/rules"
)

// Violation is one failure of the Confluence Requirement (Definition
// 6.5): for the unordered pair (PairI, PairJ), the construction produced
// sets R1 and R2 containing a pair (CulpritA ∈ R1, CulpritB ∈ R2) that
// may not commute.
type Violation struct {
	PairI, PairJ string   // the unordered pair under analysis
	R1, R2       []string // the constructed sets (rule names, sorted)
	CulpritA     string   // noncommuting rule from R1
	CulpritB     string   // noncommuting rule from R2
	Reasons      []NoncommuteReason
}

// Suggestions returns the user actions of Section 6.4 that would address
// this violation: certify commutativity of the culprits, or order the
// analyzed pair. (The paper's third option — removing orderings — is
// noted there to be useless and is not suggested.)
func (v *Violation) Suggestions() []string {
	out := []string{
		fmt.Sprintf("certify that %s and %s actually commute", v.CulpritA, v.CulpritB),
		fmt.Sprintf("order %s and %s with a precedes/follows clause", v.PairI, v.PairJ),
	}
	return out
}

// String renders the violation for reports.
func (v *Violation) String() string {
	s := fmt.Sprintf("unordered pair (%s, %s): %s (in R1) and %s (in R2) may not commute",
		v.PairI, v.PairJ, v.CulpritA, v.CulpritB)
	for _, r := range v.Reasons {
		s += "\n    " + r.String()
	}
	return s
}

// ConfluenceVerdict is the outcome of the Section 6 analysis.
type ConfluenceVerdict struct {
	// Guaranteed reports confluence: the Confluence Requirement holds
	// for every unordered pair AND termination is guaranteed
	// (Theorem 6.7 requires both).
	Guaranteed bool

	// RequirementHolds reports that the Confluence Requirement alone
	// holds (every pair check passed), regardless of termination.
	RequirementHolds bool

	// Termination is the embedded termination verdict used.
	Termination *TerminationVerdict

	// Violations lists every failed pair check, for the interactive
	// process of Section 6.4.
	Violations []Violation

	// PairsChecked counts the unordered pairs analyzed.
	PairsChecked int

	// Upgrades lists the pairs whose conservative noncommutativity
	// verdict was upgraded to "commutes" by condition-aware refinement,
	// sorted by pair. Empty unless SetRefinement is active.
	Upgrades []CommuteUpgrade
}

// Confluence analyzes the full rule set for confluence (Theorem 6.7):
// termination (Section 5) plus the Confluence Requirement (Definition
// 6.5) for every unordered pair of rules (Observation 6.2 motivates
// checking all of them).
func (a *Analyzer) Confluence() *ConfluenceVerdict {
	return a.confluenceOver(a.set.Rules(), a.Termination())
}

// confluenceOver checks the Confluence Requirement for every unordered
// pair drawn from members, with the supplied termination verdict.
// Violations are collected in pair order.
func (a *Analyzer) confluenceOver(members []*rules.Rule, term *TerminationVerdict) *ConfluenceVerdict {
	v := &ConfluenceVerdict{Termination: term}
	for i, ri := range members {
		for _, rj := range members[i+1:] {
			if !a.set.Unordered(ri, rj) {
				continue
			}
			v.PairsChecked++
			if viol := a.checkPair(ri, rj); viol != nil {
				v.Violations = append(v.Violations, *viol)
			}
		}
	}
	v.RequirementHolds = len(v.Violations) == 0
	v.Guaranteed = v.RequirementHolds && term.Guaranteed
	if a.ref != nil {
		v.Upgrades = a.Upgrades()
	}
	return v
}

// requirementHolds reports whether the Confluence Requirement holds over
// members: confluenceOver's RequirementHolds, checking the pairs one by
// one in its order and stopping at the first violation. When seen is not
// nil it holds the verdicts of the pairs checked so far, by pairIndex of
// their rule indices (0 unchecked, 1 holds, 2 violated); a pair it knows
// is not checked again, and one checked here is entered in it.
func (a *Analyzer) requirementHolds(members []*rules.Rule, seen []uint8) bool {
	for i, ri := range members {
		for _, rj := range members[i+1:] {
			if !a.set.Unordered(ri, rj) {
				continue
			}
			k, verdict := pairIndex(ri.Index(), rj.Index()), uint8(0) // members are in definition order
			if seen != nil {
				verdict = seen[k]
			}
			if verdict == 0 {
				verdict = 1
				r1, r2 := a.BuildR1R2(ri, rj)
				if c1, _, _ := a.culprits(ri, rj, r1, r2); c1 != nil {
					verdict = 2
				}
				if seen != nil {
					seen[k] = verdict
				}
			}
			if verdict == 2 {
				return false
			}
		}
	}
	return true
}

// BuildR1R2 runs the mutually recursive construction of Definition 6.5
// for an unordered pair (ri, rj):
//
//	R1 ← {ri};  R2 ← {rj}
//	repeat until unchanged:
//	  R1 ← R1 ∪ {r ∈ R | r ∈ Triggers(r1) for some r1 ∈ R1
//	                     and r > r2 ∈ P for some r2 ∈ R2 and r ≠ rj}
//	  R2 ← R2 ∪ {r ∈ R | r ∈ Triggers(r2) for some r2 ∈ R2
//	                     and r > r1 ∈ P for some r1 ∈ R1 and r ≠ ri}
//
// The sets capture the rules that may be forced (by priorities) to run
// between the two sides of the diamond of Figures 3–4.
func (a *Analyzer) BuildR1R2(ri, rj *rules.Rule) (r1, r2 []*rules.Rule) {
	n := a.set.Len()
	in1, in2 := rules.NewBits(n), rules.NewBits(n)
	in1.Add(ri.Index())
	in2.Add(rj.Index())
	g, all := a.graph(), a.set.Rules()

	grow := func(in, other rules.Bits, excluded int) bool {
		changed := false
		for w := range in {
			// Members in definition order, those this pass adds included.
			for rest := in[w]; rest != 0; {
				b := bits.TrailingZeros64(rest)
				for _, r := range g.Successors(all[w<<6|b]) {
					if in.Has(r.Index()) || r.Index() == excluded {
						continue
					}
					// r must have priority over some member of the other set.
					if a.set.HigherRow(r).Intersects(other) {
						in.Add(r.Index())
						changed = true
					}
				}
				rest = in[w] &^ (1<<(b+1) - 1)
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
	return a.rulesOf(in1), a.rulesOf(in2)
}

// rulesOf lists the rules of a bit row, in definition order.
func (a *Analyzer) rulesOf(in rules.Bits) []*rules.Rule {
	var out []*rules.Rule
	for w, word := range in {
		for ; word != 0; word &= word - 1 {
			out = append(out, a.set.Rules()[w<<6|bits.TrailingZeros64(word)])
		}
	}
	return out
}

// checkPair verifies the Confluence Requirement for one unordered pair:
// every rule of R1 must commute with every rule of R2. It returns the
// first violation found, as culprits orders the candidates.
func (a *Analyzer) checkPair(ri, rj *rules.Rule) *Violation {
	r1, r2 := a.BuildR1R2(ri, rj)
	c1, c2, reasons := a.culprits(ri, rj, r1, r2)
	if c1 == nil {
		return nil
	}
	return &Violation{
		PairI: ri.Name, PairJ: rj.Name,
		R1: sortedNames(r1), R2: sortedNames(r2),
		CulpritA: c1.Name, CulpritB: c2.Name,
		Reasons: reasons,
	}
}

// culprits returns the first c1 ∈ R1, c2 ∈ R2 that may not commute, or
// nil ones when every such pair commutes. The most informative culprits
// come first: ri and rj lead their sets, so the pair itself is checked
// before the expansions (Corollary 6.8's common case), and the rest
// follow in definition order.
func (a *Analyzer) culprits(ri, rj *rules.Rule, r1, r2 []*rules.Rule) (c1, c2 *rules.Rule, reasons []NoncommuteReason) {
	if a.requirementHook != nil {
		a.requirementHook(ri, rj)
	}
	for i := -1; i < len(r1); i++ {
		x := ri
		if i >= 0 {
			if x = r1[i]; x == ri {
				continue
			}
		}
		for j := -1; j < len(r2); j++ {
			y := rj
			if j >= 0 {
				if y = r2[j]; y == rj {
					continue
				}
			}
			if x == y {
				continue // a rule commutes with itself
			}
			if ok, reasons := a.Commute(x, y); !ok {
				return x, y, reasons
			}
		}
	}
	return nil, nil, nil
}

func sortedNames(rs []*rules.Rule) []string {
	out := rules.Names(rs)
	sort.Strings(out)
	return out
}

// CheckCorollaries verifies the necessary properties of Corollaries
// 6.8–6.10 for a rule set found confluent, returning a list of
// violations (empty when all hold). It is primarily a self-check used in
// tests: if the analyzer declares confluence, these must all hold.
func (a *Analyzer) CheckCorollaries(v *ConfluenceVerdict) []string {
	if !v.Guaranteed {
		return nil
	}
	var out []string
	rs := a.set.Rules()
	for i, ri := range rs {
		for _, rj := range rs[i+1:] {
			unordered := a.set.Unordered(ri, rj)
			if unordered {
				// Corollary 6.8: unordered rules must commute.
				if ok, _ := a.Commute(ri, rj); !ok {
					out = append(out, fmt.Sprintf("corollary 6.8: unordered %s, %s do not commute", ri.Name, rj.Name))
				}
			}
			// Corollary 6.10: triggering pairs must be ordered.
			if (a.set.CanTrigger(ri, rj) || a.set.CanTrigger(rj, ri)) &&
				unordered && !a.cert.Commutes(ri.Name, rj.Name) {
				out = append(out, fmt.Sprintf("corollary 6.10: %s may trigger %s but they are unordered", ri.Name, rj.Name))
			}
		}
	}
	return out
}
