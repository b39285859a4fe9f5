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
	// to it reallocates. Its storage is shared with other blockers' lists,
	// one arena per plan.
	Tables []string `json:"tables"`
}

func (b ShardBlocker) String() string {
	var sb strings.Builder
	b.writeTo(&sb)
	return sb.String()
}

// frame is the fixed text before the blocker's rule and between it and
// its tables.
func (b ShardBlocker) frame() (head, mid string) {
	switch b.Kind {
	case BlockFootprint:
		return "rule ", " triggers on / reads / writes tables ["
	case BlockSignificance:
		return "rule ", " is significant for tables ["
	case BlockPriority:
		return "priority ", " links tables ["
	}
	return b.Kind + " ", " ["
}

// writeTo renders the blocker: the one place its text is decided, for
// String and for the plan's listing alike.
func (b ShardBlocker) writeTo(sb *strings.Builder) {
	head, mid := b.frame()
	sb.WriteString(head)
	sb.WriteString(b.Rule)
	sb.WriteString(mid)
	writeJoined(sb, b.Tables)
	sb.WriteByte(']')
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
	Shards   []ShardGroup   `json:"shards"`
	Blockers []ShardBlocker `json:"blockers,omitempty"`
}

// NumShards returns the number of groups in the plan.
func (p *ShardPlan) NumShards() int { return len(p.Shards) }

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
	for _, bl := range p.Blockers {
		head, mid := bl.frame()
		size += len("  ") + len(head) + len(bl.Rule) + len(mid) + joinedLen(bl.Tables) + len("]\n")
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
	if len(p.Blockers) == 0 {
		b.WriteString("blockers: none (every table is independently servable)\n")
	} else {
		b.WriteString("blockers (what prevents a finer partition):\n")
		for _, bl := range p.Blockers {
			b.WriteString("  ")
			bl.writeTo(&b)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// MarshalJSON emits the deterministic machine-readable plan.
func (p *ShardPlan) MarshalJSON() ([]byte, error) {
	type alias ShardPlan
	return json.Marshal((*alias)(p))
}

// arenaChunk is the number of table names in one chunk of the arena that
// a plan's blocker table lists are carved from.
const arenaChunk = 4096

// ShardPlan computes the maximal partition of the schema's tables into
// groups with pairwise-disjoint Sig(T'), together with the blockers
// that prevent a finer one. The plan is a pure function of the rule
// set, certifications, and view.
//
// Tables are handled as slots in the sorted table list, so slot order is
// name order: a footprint or a significance list is an ascending []int,
// and the tables two ordered rules weld together are two of them, sorted.
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

	// A rule is significant for exactly the tables its may-not-commute
	// component performs on: sigTables[root] lists them, ascending.
	comp := a.commuteComponents()
	sigTables := make([][]int, len(all))
	for _, r := range all {
		root := comp.find(r.Index())
		for _, op := range a.view.of(r).performsSorted {
			if t, ok := slot[op.Table]; ok {
				sigTables[root] = append(sigTables[root], t)
			}
		}
	}
	for root, ts := range sigTables {
		slices.Sort(ts)
		sigTables[root] = slices.Compact(ts)
	}

	welded := newUnionFind(len(tables)) // over table slots

	ordered := 0 // priority-ordered pairs: one blocker each, at most
	for _, r := range all {
		for _, word := range a.set.HigherRow(r) {
			ordered += bits.OnesCount64(word)
		}
	}
	blockers := make([]ShardBlocker, 0, 2*len(all)+ordered)
	// The blockers' table lists are carved from chunks of one arena, each
	// a three-index slice that ends at its own capacity: the lists are
	// disjoint, and an append to one reallocates it instead of writing
	// into the next. No blocker lists more than every table, so left
	// bounds what is still to come and keeps a small set's chunk small.
	var arena []string
	left := cap(blockers) * len(tables)
	weld := func(kind, rule string, ts []int) {
		if len(ts) < 2 {
			return
		}
		if cap(arena)-len(arena) < len(ts) {
			arena = make([]string, 0, max(len(ts), min(arenaChunk, left)))
		}
		left -= len(ts)
		start := len(arena)
		for _, t := range ts {
			welded.union(ts[0], t)
			arena = append(arena, tables[t])
		}
		end := len(arena)
		blockers = append(blockers, ShardBlocker{Kind: kind, Rule: rule, Tables: arena[start:end:end]})
	}

	footOf := make([][]int, len(all))
	for _, r := range all {
		f := a.view.of(r)
		foot := make([]int, 0, 1+len(f.performsSorted)+len(f.readsSorted))
		add := func(table string) {
			if t, ok := slot[table]; ok {
				foot = append(foot, t)
			}
		}
		add(strings.ToLower(r.Table))
		for _, op := range f.performsSorted {
			add(op.Table)
		}
		for _, ref := range f.readsSorted {
			add(ref.Table)
		}
		slices.Sort(foot)
		footOf[r.Index()] = slices.Compact(foot)
	}

	// The blockers are emitted in listing order (compareBlockers), kind by
	// kind, so the sort below only confirms it — except for rule names
	// containing '>', which can make "hi>lo" sort apart from (hi, lo).
	byName := slices.Clone(all)
	slices.SortFunc(byName, func(x, y *rules.Rule) int { return cmp.Compare(x.Name, y.Name) })
	rank := make([]int, len(all)) // rule index -> position in byName
	for i, r := range byName {
		rank[r.Index()] = i
	}

	// Footprint: a rule's trigger, read, and write tables are co-resident.
	for _, r := range byName {
		weld(BlockFootprint, r.Name, footOf[r.Index()])
	}

	// Priority: ordered rules share an engine, so their footprints merge.
	// "hi>lo" lists by hi's name followed by '>', then by lo's name. A
	// head's names are written into one string, and each blocker's Rule
	// is a substring of it.
	heads := slices.Clone(byName)
	slices.SortFunc(heads, func(x, y *rules.Rule) int { return cmp.Compare(x.Name+">", y.Name+">") })
	var joint []int
	var los []*rules.Rule
	below := rules.NewBits(len(all)) // hi's row, bits numbered by rank
	for _, hi := range heads {
		for w, word := range a.set.HigherRow(hi) {
			for ; word != 0; word &= word - 1 {
				below.Add(rank[w<<6|bits.TrailingZeros64(word)])
			}
		}
		los = los[:0]
		size := 0
		for w, word := range below {
			for ; word != 0; word &= word - 1 {
				lo := byName[w<<6|bits.TrailingZeros64(word)]
				los = append(los, lo)
				size += len(hi.Name) + len(">") + len(lo.Name)
			}
			below[w] = 0
		}
		var sb strings.Builder
		sb.Grow(size)
		for _, lo := range los {
			sb.WriteString(hi.Name)
			sb.WriteByte('>')
			sb.WriteString(lo.Name)
		}
		names := sb.String()
		for _, lo := range los {
			n := len(hi.Name) + len(">") + len(lo.Name)
			joint = append(append(joint[:0], footOf[hi.Index()]...), footOf[lo.Index()]...)
			slices.Sort(joint)
			weld(BlockPriority, names[:n], slices.Compact(joint))
			names = names[n:]
		}
	}

	// Significance: a rule in Sig({t1}) and Sig({t2}) welds t1 and t2.
	for _, r := range byName {
		weld(BlockSignificance, r.Name, sigTables[comp.find(r.Index())])
	}
	if a.blockersHook != nil {
		a.blockersHook(blockers)
	}

	// Collect groups, canonical order: by first (smallest-name) table.
	groupOf := make([]int, len(tables)) // root slot -> group number + 1
	plan := &ShardPlan{}
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
		if foot := footOf[r.Index()]; len(foot) > 0 {
			g := &plan.Shards[groupOf[welded.find(foot[0])]-1]
			g.Rules = append(g.Rules, r.Name)
		}
		if ts := sigTables[comp.find(r.Index())]; len(ts) > 0 {
			k := groupOf[welded.find(ts[0])] - 1
			sigs[k] = append(sigs[k], r)
		}
	}
	for i := range plan.Shards {
		g := &plan.Shards[i]
		sort.Strings(g.Rules)
		g.Sig = rules.Names(sigs[i])
		sort.Strings(g.Sig)
		// Theorem 7.2 over Sig(g.Tables), as PartialConfluence decides it:
		// an empty Sig stays nil, which TerminationOf reads as every rule.
		g.Confluent = a.TerminationOf(sigs[i]).Guaranteed && a.requirementHolds(sigs[i])
	}

	// The sort is the authority on the order; on blockers emitted in it,
	// pdqsort makes one linear pass.
	slices.SortFunc(blockers, compareBlockers)
	if len(blockers) > 0 {
		plan.Blockers = blockers
	}
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

// compareBlockers is the plan's blocker order: kind, then rule, then
// tables. The tables decide only between two priority blockers whose
// "hi>lo" names coincide, which takes a '>' inside a rule name.
func compareBlockers(x, y ShardBlocker) int {
	if c := cmp.Compare(x.Kind, y.Kind); c != 0 {
		return c
	}
	if c := cmp.Compare(x.Rule, y.Rule); c != 0 {
		return c
	}
	return cmp.Compare(strings.Join(x.Tables, ","), strings.Join(y.Tables, ","))
}
