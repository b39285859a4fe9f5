package analysis

import (
	"sort"
	"strings"

	"activerules/internal/rules"
)

// PartialConfluenceVerdict is the outcome of the Section 7 analysis:
// confluence with respect to a subset T' of the tables.
type PartialConfluenceVerdict struct {
	// Tables is T', canonicalized and sorted.
	Tables []string

	// Sig is Sig(T') (Definition 7.1): the rules that can directly or
	// indirectly affect the final contents of T', in definition order.
	Sig []*rules.Rule

	// Confluence is the Confluence Requirement + termination verdict
	// over Sig(T') (Theorem 7.2). Guaranteed means the rules in R are
	// confluent with respect to T'.
	Confluence *ConfluenceVerdict
}

// Guaranteed reports that the rule set is partially confluent w.r.t. T'.
func (v *PartialConfluenceVerdict) Guaranteed() bool { return v.Confluence.Guaranteed }

// SigNames returns the names of the significant rules, sorted.
func (v *PartialConfluenceVerdict) SigNames() []string {
	out := rules.Names(v.Sig)
	sort.Strings(out)
	return out
}

// Sig computes the significant rules for T' (Definition 7.1):
//
//	Sig(T') ← {r ∈ R | (I,t), (D,t), or (U,t.c) ∈ Performs(r), t ∈ T'}
//	repeat until unchanged:
//	  Sig(T') ← Sig(T') ∪ {r ∈ R | ∃ r' ∈ Sig(T') : r and r' do not commute}
//
// Commutativity uses the conservative conditions of Lemma 6.1 plus any
// user certifications, under the analyzer's active view (the observable
// analysis supplies an extended view).
func (a *Analyzer) Sig(tables []string) []*rules.Rule {
	return a.sigWithin(a.set.Rules(), tables)
}

// PartialConfluence analyzes confluence with respect to tables T'
// (Theorem 7.2): compute Sig(T'), establish termination of Sig(T')
// processed on its own (footnote 7), and check the Confluence
// Requirement for every unordered pair of significant rules.
func (a *Analyzer) PartialConfluence(tables []string) *PartialConfluenceVerdict {
	canon := make([]string, len(tables))
	for i, t := range tables {
		canon[i] = strings.ToLower(t)
	}
	sort.Strings(canon)
	sig := a.Sig(canon)
	term := a.TerminationOf(sig)
	return &PartialConfluenceVerdict{
		Tables:     canon,
		Sig:        sig,
		Confluence: a.confluenceOver(sig, term),
	}
}
