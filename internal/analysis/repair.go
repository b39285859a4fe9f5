package analysis

import (
	"fmt"

	"activerules/internal/rules"
)

// RepairPlan is the outcome of the automated Section 6.4 loop: a set of
// priority orderings that, applied to the rule set, makes the Confluence
// Requirement hold. The paper notes the process is inherently iterative
// ("a source of non-confluence can appear to move around"), so the plan
// records every round.
type RepairPlan struct {
	// Orderings are the (higher, lower) pairs added, in the order they
	// were chosen.
	Orderings [][2]string
	// Rounds is the number of analyze/repair iterations performed.
	Rounds int
	// Final is the verdict for the repaired rule set.
	Final *ConfluenceVerdict
	// Repaired is the rule set with the orderings applied.
	Repaired *rules.Set
}

// Succeeded reports whether the plan reaches a guaranteed-confluent set.
func (p *RepairPlan) Succeeded() bool { return p.Final != nil && p.Final.Guaranteed }

// AutoRepair runs the interactive confluence process of Section 6.4
// automatically, using only Approach 2 (priority orderings): while the
// Confluence Requirement fails, order the analyzed pair of the first
// violation (higher = the lexicographically smaller name, a deterministic
// tie-break standing in for the user's judgment) and re-analyze.
// Commutativity certifications (Approach 1) require semantic knowledge
// the analyzer does not have, so they remain the caller's job — pass
// them via the analyzer's Certification before calling.
//
// AutoRepair cannot fix termination: if the (discharged) triggering
// graph still has cycles, the plan's Final verdict reports confluence
// requirement status but Succeeded is false.
func (a *Analyzer) AutoRepair(maxRounds int) (*RepairPlan, error) {
	if maxRounds <= 0 {
		maxRounds = 10 * a.set.Len() * a.set.Len()
	}
	plan := &RepairPlan{Repaired: a.set}
	cur := a
	for plan.Rounds = 1; plan.Rounds <= maxRounds; plan.Rounds++ {
		v := cur.Confluence()
		if v.RequirementHolds {
			plan.Final = v
			return plan, nil
		}
		viol := v.Violations[0]
		hi, lo := viol.PairI, viol.PairJ
		if hi > lo {
			hi, lo = lo, hi
		}
		ns, err := plan.Repaired.WithOrdering([2]string{hi, lo})
		if err != nil {
			// The preferred direction closes a priority cycle; try the
			// other one.
			ns, err = plan.Repaired.WithOrdering([2]string{lo, hi})
			if err != nil {
				return plan, fmt.Errorf("analysis: AutoRepair: cannot order %s and %s in either direction: %w",
					viol.PairI, viol.PairJ, err)
			}
			hi, lo = lo, hi
		}
		plan.Orderings = append(plan.Orderings, [2]string{hi, lo})
		plan.Repaired = ns
		cur = cur.reordered(ns)
	}
	plan.Final = cur.Confluence()
	return plan, fmt.Errorf("analysis: AutoRepair did not converge in %d rounds", maxRounds)
}
