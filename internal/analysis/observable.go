package analysis

import (
	"sort"

	"activerules/internal/rules"
	"activerules/internal/schema"
)

// ObservableVerdict is the outcome of the Section 8 analysis.
type ObservableVerdict struct {
	// ObsTable is the name chosen for the fictional Obs table (fresh
	// with respect to the schema).
	ObsTable string

	// ObservableRules lists the rules with observable actions, sorted.
	ObservableRules []string

	// Partial is the partial-confluence verdict with respect to {Obs}
	// computed under the extended Reads/Performs definitions; its Sig is
	// Sig(Obs).
	Partial *PartialConfluenceVerdict

	// Termination is the termination verdict for the FULL rule set;
	// Theorem 8.1 requires no infinite paths in any execution graph for
	// R (not merely for Sig(Obs)).
	Termination *TerminationVerdict
}

// Guaranteed reports that the rule set is observably deterministic
// (Theorem 8.1): the Confluence Requirement holds for Sig(Obs) under the
// extended definitions and the full rule set terminates.
func (v *ObservableVerdict) Guaranteed() bool {
	return v.Partial.Confluence.RequirementHolds && v.Termination.Guaranteed
}

// Violations returns the failed pair checks, for interactive repair.
func (v *ObservableVerdict) Violations() []Violation {
	return v.Partial.Confluence.Violations
}

// freshObsName picks a table name not present in the schema, preferring
// the paper's "obs".
func freshObsName(sch *schema.Schema) string {
	name := "obs"
	for sch.HasTable(name) {
		name = "_" + name
	}
	return name
}

// ObservableDeterminism analyzes whether the order and appearance of
// observable rule actions is independent of the choice among unordered
// triggered rules (Section 8). Following Theorem 8.1, a fictional table
// Obs is added: every observable rule is treated as reading Obs.c and
// performing (I, Obs) (it conceptually timestamps and logs its
// observable actions in Obs). The rule set is observably deterministic
// if it is confluent with respect to {Obs} under these extended
// definitions and terminates.
func (a *Analyzer) ObservableDeterminism() *ObservableVerdict {
	return a.observableOver(a.set.Rules(), a.Termination())
}

// observableOver is ObservableDeterminism over a member subset: the Obs
// extension is applied to the members, Sig(Obs) is computed within
// them, and term (the members' termination verdict) stands in for
// full-set termination. The extension changes only the verdicts of pairs
// of two extended rules, so the view's table is an overlay on a's
// (verdicts.go, DESIGN.md §7).
func (a *Analyzer) observableOver(members []*rules.Rule, term *TerminationVerdict) *ObservableVerdict {
	obs := freshObsName(a.set.Schema())
	var observable []*rules.Rule
	for _, r := range members {
		if r.Observable() {
			observable = append(observable, r)
		}
	}
	ext := a.derive(a.view.withObs(obs, observable), a.ref)
	ext.verdicts = a.table().overlay(a.set.Len(), observable, len(observable) == len(a.set.ObservableRules()))
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

// CheckCorollary82 verifies Corollary 8.2 for a set found observably
// deterministic: distinct observable rules must be ordered (unless the
// user certified them commutative, which the corollary's proof excludes
// via the Confluence Requirement). Returns violations; empty when the
// corollary holds. Primarily a self-check used in tests.
func (a *Analyzer) CheckCorollary82(v *ObservableVerdict) []string {
	if !v.Guaranteed() {
		return nil
	}
	var out []string
	obs := a.set.ObservableRules()
	for i, ri := range obs {
		for _, rj := range obs[i+1:] {
			if a.set.Unordered(ri, rj) && !a.cert.Commutes(ri.Name, rj.Name) {
				out = append(out, "corollary 8.2: observable rules "+ri.Name+" and "+rj.Name+" are unordered")
			}
		}
	}
	return out
}
