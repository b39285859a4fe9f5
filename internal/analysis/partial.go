package analysis

import (
	"encoding/binary"
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

// SigConfluence is Theorem 7.2 over one significant set.
type SigConfluence struct {
	// Sig is Sig(T') (Definition 7.1), in definition order.
	Sig []*rules.Rule
	// Confluent is PartialConfluence(T').Guaranteed().
	Confluent bool
}

// PartialConfluencePerTable is PartialConfluence with respect to each of
// the tables on its own: sigs holds the distinct Sigs with their
// verdicts, and sigs[of[i]] is tables[i]'s. The tables share the work
// their verdicts share:
//
//   - Sig. Definition 7.1's closure under may-not-commute is the union of
//     the connected components of the may-not-commute graph that hold a
//     rule performing an operation on the table, so one commuteComponents
//     pass gives every table's Sig.
//   - Theorem 7.2. Each distinct Sig is decided once: its termination,
//     and then, if it terminates, the Confluence Requirement, stopping at
//     the first violating pair. A pair's check depends on the pair alone,
//     so a plane that lives for this call checks each unordered pair at
//     most once across every Sig.
//
// The Lemma 6.1 pairs this examines differ from PartialConfluence's,
// which with refinement on shows in the upgrades a later report lists.
func (a *Analyzer) PartialConfluencePerTable(tables []string) (sigs []SigConfluence, of []int) {
	all := a.set.Rules()
	comp := a.commuteComponents()
	roots := map[string]rules.Bits{} // by table: the components performing on it, by root
	for _, r := range all {
		for _, op := range a.view.of(r).performsSorted {
			row := roots[op.Table]
			if row == nil {
				row = rules.NewBits(len(all))
				roots[op.Table] = row
			}
			row.Add(comp.find(r.Index()))
		}
	}
	bySig := map[string]int{} // index into sigs, by the roots' row as bytes
	seen := make([]uint8, len(all)*(len(all)-1)/2)
	var key []byte
	of = make([]int, len(tables))
	for i, t := range tables {
		row := roots[strings.ToLower(t)]
		key = key[:0]
		for _, w := range row {
			key = binary.LittleEndian.AppendUint64(key, w)
		}
		k, ok := bySig[string(key)]
		if !ok {
			var v SigConfluence
			for _, r := range all {
				if row != nil && row.Has(comp.find(r.Index())) {
					v.Sig = append(v.Sig, r)
				}
			}
			v.Confluent = a.TerminationOf(v.Sig).Guaranteed && a.requirementHolds(v.Sig, seen)
			k = len(sigs)
			bySig[string(key)] = k
			sigs = append(sigs, v)
		}
		of[i] = k
	}
	return sigs, of
}
