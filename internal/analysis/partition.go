package analysis

import (
	"sort"

	"activerules/internal/rules"
)

// Partition implements the coarse incremental-analysis scheme of Section
// 9: rule applications are partitioned into groups such that, across
// partitions, rules reference different sets of tables and have no
// priority ordering. Rules in different partitions cannot affect each
// other, so each partition can be analyzed separately and re-analyzed
// only when one of its rules changes.
//
// Two rules share a partition when they touch a common table (read,
// write, or trigger on it) or are related by priority; Partition returns
// the connected components of that relation, each sorted by name, with
// components ordered by their first rule's name.
func (a *Analyzer) Partition() [][]*rules.Rule {
	uf := newUnionFind(a.set.Len())

	// Union rules touching the same table.
	byTable := map[string]int{} // table -> representative rule index
	touch := func(idx int, table string) {
		if rep, ok := byTable[table]; ok {
			uf.union(idx, rep)
		} else {
			byTable[table] = idx
		}
	}
	for _, r := range a.set.Rules() {
		i := r.Index()
		touch(i, r.Table)
		for op := range a.view.performs(r) {
			touch(i, op.Table)
		}
		for ref := range a.view.reads(r) {
			touch(i, ref.Table)
		}
	}
	// Union priority-related rules (direct or transitive — the closure
	// makes direct edges sufficient, but using the closure is simplest).
	for _, ri := range a.set.Rules() {
		for _, rj := range a.set.Rules() {
			if ri.Index() < rj.Index() && a.set.Ordered(ri, rj) {
				uf.union(ri.Index(), rj.Index())
			}
		}
	}

	groups := map[int][]*rules.Rule{}
	for _, r := range a.set.Rules() {
		root := uf.find(r.Index())
		groups[root] = append(groups[root], r)
	}
	out := make([][]*rules.Rule, 0, len(groups))
	for _, g := range groups {
		rules.SortRulesByName(g)
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0].Name < out[j][0].Name })
	return out
}

// PartitionedConfluence analyzes confluence per partition and combines
// the verdicts: the rule set is confluent iff every partition is, since
// rules in different partitions commute trivially (they share no tables)
// and are never forced between each other by priorities. The per-
// partition verdicts are returned alongside the combined one; the
// combined requirement holds iff it holds in every partition, and its
// termination is the full set's.
func (a *Analyzer) PartitionedConfluence() (combined *ConfluenceVerdict, per []*ConfluenceVerdict) {
	combined = &ConfluenceVerdict{RequirementHolds: true, Termination: a.Termination()}
	for _, part := range a.Partition() {
		v := a.confluenceOver(part, a.TerminationOf(part))
		per = append(per, v)
		combined.PairsChecked += v.PairsChecked
		combined.Violations = append(combined.Violations, v.Violations...)
		combined.RequirementHolds = combined.RequirementHolds && v.RequirementHolds
	}
	combined.Guaranteed = combined.RequirementHolds && combined.Termination.Guaranteed
	return combined, per
}
