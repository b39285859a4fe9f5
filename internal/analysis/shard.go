package analysis

import (
	"cmp"
	"encoding/json"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"

	"activerules/internal/rules"
)

// Shard planning (Section 7, applied to horizontal scale). Theorem 7.2
// makes rule processing with respect to a table set T' depend only on
// Sig(T'); if two table sets have disjoint significant-rule sets, rule
// processing on them commutes, so independent engines may serve them
// with no coordination and every per-table outcome — contents and
// confluence verdict alike — matches the unsharded system.
//
// The planner computes the MAXIMAL such partition. The key structural
// fact is that the Sig closure distributes over union:
//
//	Sig(A ∪ B) = Sig(A) ∪ Sig(B)
//
// because both the base ("performs an op on a table of T'") and the
// closure step ("does not commute with a member") are pointwise: a rule
// joins the fixpoint of A ∪ B through a chain of noncommuting members
// that starts at a performer on a single table, and that whole chain
// lives inside Sig(A) or inside Sig(B). Such a chain is a path in the
// may-not-commute graph, so Sig({t}) is the union of that graph's
// connected components holding a performer on t: the planner computes
// the components once and reads every per-table and per-shard Sig off
// them. The maximal partition is then the connected-component structure
// of three merge relations over the tables:
//
//	significance — a rule significant for two tables forces them
//	  together (otherwise the shards' Sig sets would intersect);
//	footprint — the tables a rule triggers on, reads, and writes must
//	  be co-resident, or the rule could not execute inside one engine;
//	priority — ordered rules must share an engine, or the scheduler
//	  could not honor the ordering, so their footprints merge.
//
// Every merge is also a named blocker: the rule or priority edge that
// prevents a finer partition, reported rulelint-style.

// ShardGroup is one shard of the plan: a set of tables served by one
// engine running exactly the listed rules.
type ShardGroup struct {
	// Tables are the shard's tables, sorted.
	Tables []string `json:"tables"`
	// Rules are the names of the rules whose footprint lives in this
	// shard, sorted. Every rule of the set lands in exactly one shard.
	Rules []string `json:"rules"`
	// Sig is Sig(Tables) under the full rule set, sorted. By the union
	// distributivity above it always is a subset of Rules.
	Sig []string `json:"sig"`
	// Confluent is the full analyzer's partial-confluence verdict for
	// this shard's tables (Theorem 7.2).
	Confluent bool `json:"confluent"`
}

// Blocker kinds.
const (
	// BlockFootprint: a single rule's trigger/read/write tables span the
	// listed tables.
	BlockFootprint = "footprint"
	// BlockSignificance: one rule is significant (Definition 7.1) for
	// every listed table.
	BlockSignificance = "significance"
	// BlockPriority: a priority ordering links the two rules, merging
	// their footprints.
	BlockPriority = "priority"
)

// ShardBlocker names one reason the partition cannot be finer: the rule
// (or priority edge) that forces the listed tables into one shard.
type ShardBlocker struct {
	// Kind is one of the Block* constants.
	Kind string `json:"kind"`
	// Rule is the responsible rule, or "a>b" for a priority edge.
	Rule string `json:"rule"`
	// Tables are the tables the blocker welds together, sorted. The list
	// is the blocker's own: its capacity ends where it does, so appending
	// to it reallocates.
	Tables []string `json:"tables"`
}

func (b ShardBlocker) String() string {
	head, mid := blockerFrame(b.Kind)
	return head + b.Rule + mid + strings.Join(b.Tables, " ") + "]"
}

// blockerFrame is the fixed text of a blocker of the kind before its
// rule and between the rule and its tables.
func blockerFrame(kind string) (head, mid string) {
	switch kind {
	case BlockFootprint:
		return "rule ", " triggers on / reads / writes tables ["
	case BlockSignificance:
		return "rule ", " is significant for tables ["
	case BlockPriority:
		return "priority ", " links tables ["
	}
	return kind + " ", " ["
}

// writeJoined writes the names separated by single spaces.
func writeJoined(sb *strings.Builder, names []string) {
	for i, name := range names {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(name)
	}
}

// joinedLen is the number of bytes writeJoined writes, or one more.
func joinedLen(names []string) (n int) {
	for _, name := range names {
		n += len(name) + 1
	}
	return n
}

// ShardPlan is the maximal analysis-proven partition of the schema's
// tables into independently servable groups. Its String and JSON forms
// are deterministic: equal inputs yield byte-identical plans.
type ShardPlan struct {
	Shards []ShardGroup

	// blockers are in listing order; String and Blockers read the lists.
	blockers []blockerRef
	tables   []string // table slot -> name, sorted
	names    []string // rule index -> name
	foot     [][]int  // rule index -> footprint slots, ascending
	sig      [][]int  // rule index -> the slots the rule is significant for
}

// blockerRef is a blocker as a plan keeps it: its kind, its rule, and
// for a priority edge the lower rule, whose footprints it welds.
type blockerRef struct {
	kind  uint8
	r, lo int32
}

// The kinds of a blockerRef, numbered in the order of their names.
const (
	refFootprint uint8 = iota
	refPriority
	refSignificance
)

var refKinds = [...]string{BlockFootprint, BlockPriority, BlockSignificance}

// NumShards returns the number of groups in the plan.
func (p *ShardPlan) NumShards() int { return len(p.Shards) }

// rule returns the pieces of b's Rule: the rule's name, or hi, ">", lo.
func (p *ShardPlan) rule(b blockerRef) [3]string {
	if b.kind == refPriority {
		return [3]string{p.names[b.r], ">", p.names[b.lo]}
	}
	return [3]string{p.names[b.r]}
}

// slots returns the table slots b welds, ascending. A priority edge's are
// merged into scratch, which must have room for every table.
func (p *ShardPlan) slots(b blockerRef, scratch []int) []int {
	switch b.kind {
	case refFootprint:
		return p.foot[b.r]
	case refSignificance:
		return p.sig[b.r]
	}
	x, y, out := p.foot[b.r], p.foot[b.lo], scratch[:0]
	for len(x) > 0 && len(y) > 0 {
		if x[0] > y[0] {
			x, y = y, x
		}
		if x[0] == y[0] {
			y = y[1:]
		}
		out, x = append(out, x[0]), x[1:]
	}
	return append(append(out, x...), y...)
}

// compareRefs is ShardBlocker's order by kind, rule, then tables joined by
// commas, without building a name unless two coincide (a '>' inside a
// rule name can do that). Sorted neighbours mostly share hi, and "hi>".
func (p *ShardPlan) compareRefs(x, y blockerRef) int {
	if c := cmp.Compare(x.kind, y.kind); c != 0 || x.r == y.r {
		return cmp.Or(c, cmp.Compare(p.names[x.lo], p.names[y.lo]))
	}
	if c := compareConcat(p.rule(x), p.rule(y)); c != 0 {
		return c
	}
	join := func(b blockerRef) string {
		var names []string
		scratch := make([]int, 0, len(p.tables))
		for _, t := range p.slots(b, scratch) {
			names = append(names, p.tables[t])
		}
		return strings.Join(names, ",")
	}
	return cmp.Compare(join(x), join(y))
}

// compareConcat compares the concatenations of x's and of y's pieces.
func compareConcat(x, y [3]string) int {
	for i, j := 0, 0; ; {
		if i < len(x) && x[i] == "" {
			i++
		} else if j < len(y) && y[j] == "" {
			j++
		} else if i == len(x) || j == len(y) {
			return cmp.Compare(len(x)-i, len(y)-j)
		} else if n := min(len(x[i]), len(y[j])); x[i][:n] != y[j][:n] {
			return strings.Compare(x[i][:n], y[j][:n])
		} else {
			x[i], y[j] = x[i][n:], y[j][n:]
		}
	}
}

// Blockers returns what prevents a finer partition, in listing order:
// by kind, then rule, then tables. Each call builds the list afresh, so
// the caller owns it; each blocker's Tables ends at its own capacity.
func (p *ShardPlan) Blockers() []ShardBlocker {
	var out []ShardBlocker
	var names strings.Builder // every blocker's Rule, one string
	var arena []string
	scratch := make([]int, 0, len(p.tables))
	for _, b := range p.blockers {
		start := names.Len()
		for _, s := range p.rule(b) {
			names.WriteString(s)
		}
		rule := names.String()[start:]
		start = len(arena)
		for _, t := range p.slots(b, scratch) {
			arena = append(arena, p.tables[t])
		}
		out = append(out, ShardBlocker{Kind: refKinds[b.kind], Rule: rule, Tables: slices.Clip(arena[start:])})
	}
	return out
}

// String renders the plan deterministically, into one buffer sized for
// it beforehand: a plan lists a blocker per priority-ordered pair of
// rules, tens of thousands of lines on a densely ordered set.
func (p *ShardPlan) String() string {
	const fixed = 100 // more than the fixed text and the numbers of a line
	nrules, ntables, size := 0, 0, 2*fixed
	for _, g := range p.Shards {
		nrules += len(g.Rules)
		ntables += len(g.Tables)
		size += fixed + joinedLen(g.Tables) + joinedLen(g.Rules) + joinedLen(g.Sig)
	}
	scratch := make([]int, 0, len(p.tables))
	for _, bl := range p.blockers {
		head, mid := blockerFrame(refKinds[bl.kind])
		r := p.rule(bl)
		size += len("  ") + len(head) + len(r[0]) + len(r[1]) + len(r[2]) + len(mid) + len("]\n")
		// A priority line is sized by both footprints, not by their union.
		lists := [2][]int{p.foot[bl.r], p.foot[bl.lo]}
		if bl.kind != refPriority {
			lists = [2][]int{p.slots(bl, nil)}
		}
		for _, ts := range lists {
			for _, t := range ts {
				size += len(p.tables[t]) + 1
			}
		}
	}
	var b strings.Builder
	b.Grow(size)
	var digits [20]byte
	writeInt := func(n int) { b.Write(strconv.AppendInt(digits[:0], int64(n), 10)) }
	b.WriteString("shard plan: ")
	writeInt(len(p.Shards))
	b.WriteString(" shard(s) over ")
	writeInt(ntables)
	b.WriteString(" table(s), ")
	writeInt(nrules)
	b.WriteString(" rule(s)\n")
	for i, g := range p.Shards {
		b.WriteString("shard ")
		writeInt(i)
		b.WriteString(": tables [")
		writeJoined(&b, g.Tables)
		b.WriteString("] rules [")
		writeJoined(&b, g.Rules)
		b.WriteString("] sig [")
		writeJoined(&b, g.Sig)
		b.WriteString("] confluent=")
		b.WriteString(strconv.FormatBool(g.Confluent))
		b.WriteByte('\n')
	}
	if len(p.blockers) == 0 {
		b.WriteString("blockers: none (every table is independently servable)\n")
		return b.String()
	}
	b.WriteString("blockers (what prevents a finer partition):\n")
	for _, bl := range p.blockers {
		head, mid := blockerFrame(refKinds[bl.kind])
		b.WriteString("  ")
		b.WriteString(head)
		for _, s := range p.rule(bl) {
			b.WriteString(s)
		}
		b.WriteString(mid)
		for i, t := range p.slots(bl, scratch) {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(p.tables[t])
		}
		b.WriteString("]\n")
	}
	return b.String()
}

// MarshalJSON emits the deterministic machine-readable plan.
func (p *ShardPlan) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Shards   []ShardGroup   `json:"shards"`
		Blockers []ShardBlocker `json:"blockers,omitempty"`
	}{p.Shards, p.Blockers()})
}

// ShardPlan computes the maximal partition of the schema's tables into
// groups with pairwise-disjoint Sig(T'), together with the blockers
// that prevent a finer one. The plan is a pure function of the rule
// set, certifications, and view.
//
// Tables are handled as slots in the sorted table list, so slot order is
// name order: a footprint or a significance list is an ascending []int,
// and the tables two ordered rules weld together are the union of two.
func (a *Analyzer) ShardPlan() *ShardPlan {
	all := a.set.Rules()
	tables := make([]string, 0, a.set.Schema().NumTables())
	for _, t := range a.set.Schema().SortedTables() {
		tables = append(tables, strings.ToLower(t.Name))
	}
	slot := make(map[string]int, len(tables))
	for i, t := range tables {
		slot[t] = i
	}
	plan := &ShardPlan{tables: tables, names: rules.Names(all), foot: make([][]int, len(all)), sig: make([][]int, len(all))}

	// Every footprint and significance list is a run of one array of
	// slots, sorted and compacted in place, and ends at its capacity.
	var arena []int
	add := func(table string) {
		if t, ok := slot[table]; ok {
			arena = append(arena, t)
		}
	}
	seal := func(start int) []int {
		slices.Sort(arena[start:])
		arena = append(arena[:start], slices.Compact(arena[start:])...)
		return slices.Clip(arena[start:])
	}
	for _, r := range all {
		f, start := a.view.of(r), len(arena)
		add(strings.ToLower(r.Table))
		for _, op := range f.performsSorted {
			add(op.Table)
		}
		for _, ref := range f.readsSorted {
			add(ref.Table)
		}
		plan.foot[r.Index()] = seal(start)
	}

	// A rule is significant for exactly the tables its may-not-commute
	// component performs on, one list per component: byRoot groups the
	// components' rules.
	comp := a.commuteComponents()
	byRoot := slices.Clone(all)
	slices.SortFunc(byRoot, func(x, y *rules.Rule) int { return cmp.Compare(comp.find(x.Index()), comp.find(y.Index())) })
	for i := 0; i < len(byRoot); {
		root, j, start := comp.find(byRoot[i].Index()), i, len(arena)
		for ; j < len(byRoot) && comp.find(byRoot[j].Index()) == root; j++ {
			for _, op := range a.view.of(byRoot[j]).performsSorted {
				add(op.Table)
			}
		}
		ts := seal(start)
		for _, r := range byRoot[i:j] {
			plan.sig[r.Index()] = ts
		}
		i = j
	}

	welded := newUnionFind(len(tables)) // over table slots
	ordered := 0                        // priority-ordered pairs: one blocker each, at most
	for _, r := range all {
		for _, word := range a.set.HigherRow(r) {
			ordered += bits.OnesCount64(word)
		}
	}
	plan.blockers = make([]blockerRef, 0, 2*len(all)+ordered)

	// The blockers are emitted in listing order, kind by kind, so the sort
	// below only confirms it — except for rule names containing '>',
	// which can make "hi>lo" sort apart from (hi, lo).
	byName := slices.Clone(all)
	slices.SortFunc(byName, func(x, y *rules.Rule) int { return cmp.Compare(x.Name, y.Name) })
	rank := make([]int, len(all)) // rule index -> position in byName
	for i, r := range byName {
		rank[r.Index()] = i
	}

	weld := func(kind uint8, lists [][]int) {
		for _, r := range byName {
			if ts := lists[r.Index()]; len(ts) > 1 {
				for _, t := range ts[1:] {
					welded.union(ts[0], t)
				}
				plan.blockers = append(plan.blockers, blockerRef{kind: kind, r: int32(r.Index())})
			}
		}
	}

	// Footprint: a rule's trigger, read, and write tables are co-resident.
	weld(refFootprint, plan.foot)

	// Priority: ordered rules share an engine, so their footprints merge.
	// "hi>lo" lists by hi's name followed by '>', then by lo's name. Each
	// footprint is welded already, so their first tables weld the two; the
	// edge is a blocker when they hold two tables between them.
	heads := slices.Clone(byName)
	slices.SortFunc(heads, func(x, y *rules.Rule) int { return cmp.Compare(x.Name+">", y.Name+">") })
	below := rules.NewBits(len(all)) // hi's row, bits numbered by rank
	for _, hi := range heads {
		fh := plan.foot[hi.Index()]
		for w, word := range a.set.HigherRow(hi) {
			for ; word != 0; word &= word - 1 {
				below.Add(rank[w<<6|bits.TrailingZeros64(word)])
			}
		}
		for w, word := range below {
			for ; word != 0; word &= word - 1 {
				lo := byName[w<<6|bits.TrailingZeros64(word)]
				fl := plan.foot[lo.Index()]
				welded.union(fh[0], fl[0])
				if len(fh) > 1 || len(fl) > 1 || fh[0] != fl[0] {
					plan.blockers = append(plan.blockers, blockerRef{kind: refPriority, r: int32(hi.Index()), lo: int32(lo.Index())})
				}
			}
			below[w] = 0
		}
	}

	// Significance: a rule in Sig({t1}) and Sig({t2}) welds t1 and t2.
	weld(refSignificance, plan.sig)
	if a.blockersHook != nil {
		a.blockersHook(plan)
	}

	// Collect groups, canonical order: by first (smallest-name) table.
	groupOf := make([]int, len(tables)) // root slot -> group number + 1
	for i, t := range tables {
		root := welded.find(i)
		if groupOf[root] == 0 {
			plan.Shards = append(plan.Shards, ShardGroup{})
			groupOf[root] = len(plan.Shards)
		}
		g := &plan.Shards[groupOf[root]-1]
		g.Tables = append(g.Tables, t)
	}
	sigs := make([][]*rules.Rule, len(plan.Shards)) // each in definition order
	for _, r := range all {
		// Every footprint table of a rule is welded together, so
		// membership of the first decides membership of the rule; and
		// every table of a component is welded by its members'
		// significance blockers, so the whole component is significant
		// for one shard.
		g := &plan.Shards[groupOf[welded.find(plan.foot[r.Index()][0])]-1]
		g.Rules = append(g.Rules, r.Name)
		if ts := plan.sig[r.Index()]; len(ts) > 0 {
			k := groupOf[welded.find(ts[0])] - 1
			sigs[k] = append(sigs[k], r)
		}
	}
	for i := range plan.Shards {
		g := &plan.Shards[i]
		sort.Strings(g.Rules)
		g.Sig = rules.Names(sigs[i])
		sort.Strings(g.Sig)
		// Theorem 7.2 over Sig(g.Tables), as PartialConfluence decides it.
		g.Confluent = a.TerminationOf(sigs[i]).Guaranteed && a.requirementHolds(sigs[i], nil)
	}

	// The sort is the authority on the order; on blockers emitted in it,
	// pdqsort makes one linear pass.
	slices.SortFunc(plan.blockers, plan.compareRefs)
	return plan
}

// commuteComponents partitions the rules into the connected components of
// the may-not-commute graph, as a union-find over rule indices. The pairs
// the verdict table already knows may not commute are joined first, for
// free; then a pair goes to Commute only while its rules are apart and
// one writes a table the other touches — commuteUncached's own first
// test, which a certification cannot overturn, since it only ever makes a
// pair commute. Which pairs that examines depends on the scan order; the
// components do not.
func (a *Analyzer) commuteComponents() unionFind {
	all := a.set.Rules()
	comp := newUnionFind(len(all))
	t := a.table()
	for r := range all {
		for w := 0; w < t.rowWords; w++ {
			for word := t.mayNot[r*t.rowWords+w]; word != 0; word &= word - 1 {
				comp.union(r, w<<6|bits.TrailingZeros64(word))
			}
		}
	}
	for i := range all {
		fi := a.view.of(all[i])
		for j := i + 1; j < len(all); j++ {
			fj := a.view.of(all[j])
			if !fi.writes.intersects(fj.touches) && !fj.writes.intersects(fi.touches) ||
				comp.find(i) == comp.find(j) {
				continue
			}
			if ok, _ := a.Commute(all[i], all[j]); !ok {
				comp.union(i, j)
			}
		}
	}
	return comp
}

// unionFind is a disjoint-set forest over 0..n-1.
type unionFind []int

func newUnionFind(n int) unionFind {
	u := make(unionFind, n)
	for i := range u {
		u[i] = i
	}
	return u
}

// find returns x's root, halving the path on the way.
func (u unionFind) find(x int) int {
	for u[x] != x {
		u[x] = u[u[x]]
		x = u[x]
	}
	return x
}

func (u unionFind) union(x, y int) { u[u.find(x)] = u.find(y) }
