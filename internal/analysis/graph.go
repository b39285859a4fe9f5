package analysis

import (
	"sort"

	"activerules/internal/rules"
	"activerules/internal/schema"
)

// TriggeringGraph is the directed graph TG_R of Section 5: nodes are
// rules, with an edge ri -> rj iff rj ∈ Triggers(ri) (ri's action can
// trigger rj, including self-loops).
type TriggeringGraph struct {
	set *rules.Set
	adj [][]int // adjacency by rule index
}

// BuildTriggeringGraph constructs TG_R for the whole rule set. An index
// from operation to triggered rules makes construction near-linear in
// the total size of the Performs sets rather than quadratic in |R|.
func BuildTriggeringGraph(set *rules.Set) *TriggeringGraph {
	byOp := make(map[schema.Op][]int)
	for _, r := range set.Rules() {
		for op := range r.TriggeredBy() {
			byOp[op] = append(byOp[op], r.Index())
		}
	}
	g := &TriggeringGraph{set: set, adj: make([][]int, set.Len())}
	seen := make([]int, set.Len()) // last source that added each target, +1
	for _, ri := range set.Rules() {
		i := ri.Index()
		for op := range ri.Performs() {
			for _, j := range byOp[op] {
				if seen[j] == i+1 {
					continue
				}
				seen[j] = i + 1
				g.adj[i] = append(g.adj[i], j)
			}
		}
		sort.Ints(g.adj[i])
	}
	return g
}

// WithoutEdges returns a copy of the graph with every edge for which
// excluded returns true removed — the edge-discharge refinement of the
// Section 5 interactive process.
func (g *TriggeringGraph) WithoutEdges(excluded func(from, to *rules.Rule) bool) *TriggeringGraph {
	ng := &TriggeringGraph{set: g.set, adj: make([][]int, len(g.adj))}
	rs := g.set.Rules()
	for i, row := range g.adj {
		for _, j := range row {
			if !excluded(rs[i], rs[j]) {
				ng.adj[i] = append(ng.adj[i], j)
			}
		}
	}
	return ng
}

// HasEdge reports whether ri's action can trigger rj.
func (g *TriggeringGraph) HasEdge(ri, rj *rules.Rule) bool {
	for _, j := range g.adj[ri.Index()] {
		if j == rj.Index() {
			return true
		}
	}
	return false
}

// Successors returns the rules ri can trigger, in definition order.
func (g *TriggeringGraph) Successors(ri *rules.Rule) []*rules.Rule {
	out := make([]*rules.Rule, 0, len(g.adj[ri.Index()]))
	for _, j := range g.adj[ri.Index()] {
		out = append(out, g.set.Rules()[j])
	}
	return out
}

// EdgeCount returns the number of edges.
func (g *TriggeringGraph) EdgeCount() int {
	n := 0
	for _, a := range g.adj {
		n += len(a)
	}
	return n
}

// CyclicSCCs returns the strongly connected components that can sustain
// a cycle — components with more than one rule, or a single rule with a
// self-loop — restricted to exactly the given member set (an empty one
// has none) and excluding rules for which exclude returns true.
// Components and their members are in deterministic order.
func (g *TriggeringGraph) CyclicSCCs(members []*rules.Rule, exclude func(*rules.Rule) bool) [][]*rules.Rule {
	n := g.set.Len()
	in := make([]bool, n)
	for _, r := range members {
		in[r.Index()] = true
	}
	if exclude != nil {
		for _, r := range g.set.Rules() {
			if in[r.Index()] && exclude(r) {
				in[r.Index()] = false
			}
		}
	}
	sccs := g.tarjan(in)
	var out [][]*rules.Rule
	for _, comp := range sccs {
		if len(comp) == 1 {
			// Single node: cyclic only with a self-loop.
			i := comp[0]
			self := false
			for _, j := range g.adj[i] {
				if j == i {
					self = true
					break
				}
			}
			if !self {
				continue
			}
		}
		members := make([]*rules.Rule, len(comp))
		for k, i := range comp {
			members[k] = g.set.Rules()[i]
		}
		rules.SortRulesByName(members)
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0].Name < out[j][0].Name })
	return out
}

// Strata assigns every rule of the restricted graph (members minus
// excluded rules, as in CyclicSCCs) the topological layer of its SCC in
// the condensation: source components are stratum 1, and each
// component's stratum is one more than the deepest predecessor
// component — the chase-style stratification order of the tier-2
// termination analysis. The result maps rule index to stratum, 0 for
// rules outside the restriction.
func (g *TriggeringGraph) Strata(members []*rules.Rule, exclude func(*rules.Rule) bool) []int {
	n := g.set.Len()
	in := make([]bool, n)
	for _, r := range members {
		in[r.Index()] = true
	}
	if exclude != nil {
		for _, r := range g.set.Rules() {
			if in[r.Index()] && exclude(r) {
				in[r.Index()] = false
			}
		}
	}
	sccs := g.tarjan(in)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	for ci, c := range sccs {
		for _, v := range c {
			comp[v] = ci
		}
	}
	// tarjan emits components in reverse topological order (a component
	// is complete only after every component it reaches), so walking the
	// emission order backwards visits sources first and each component's
	// stratum is final before its successors are relaxed.
	stratum := make([]int, len(sccs))
	for i := len(sccs) - 1; i >= 0; i-- {
		if stratum[i] == 0 {
			stratum[i] = 1
		}
		for _, v := range sccs[i] {
			for _, w := range g.adj[v] {
				if !in[w] || comp[w] == i {
					continue
				}
				if stratum[i]+1 > stratum[comp[w]] {
					stratum[comp[w]] = stratum[i] + 1
				}
			}
		}
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		if comp[i] >= 0 {
			out[i] = stratum[comp[i]]
		}
	}
	return out
}

// tarjan computes strongly connected components over the nodes with
// in[i] == true, iteratively (no recursion, so very large rule sets are
// fine). Each component is a sorted slice of rule indices.
func (g *TriggeringGraph) tarjan(in []bool) [][]int {
	n := len(g.adj)
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var stack []int
	var sccs [][]int
	next := 0

	type frame struct {
		v  int
		ei int // next adjacency position to process
	}
	for root := 0; root < n; root++ {
		if !in[root] || index[root] != unvisited {
			continue
		}
		frames := []frame{{v: root}}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			advanced := false
			for f.ei < len(g.adj[f.v]) {
				w := g.adj[f.v][f.ei]
				f.ei++
				if !in[w] {
					continue
				}
				if index[w] == unvisited {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// f.v finished.
			if low[f.v] == index[f.v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == f.v {
						break
					}
				}
				sort.Ints(comp)
				sccs = append(sccs, comp)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[f.v] < low[p.v] {
					low[p.v] = low[f.v]
				}
			}
		}
	}
	return sccs
}

// FindCycle returns one concrete cycle within the given SCC members (a
// slice of rules known to be strongly connected), as an ordered list of
// rules r0 -> r1 -> ... -> r0, for user-facing reports. Returns nil if
// the members cannot produce one (should not happen for CyclicSCCs
// output).
func (g *TriggeringGraph) FindCycle(members []*rules.Rule) []*rules.Rule {
	in := make(map[int]bool, len(members))
	for _, r := range members {
		in[r.Index()] = true
	}
	start := members[0].Index()
	// DFS from start back to start within the component.
	prev := map[int]int{}
	stack := []int{start}
	visited := map[int]bool{}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.adj[v] {
			if !in[w] {
				continue
			}
			if w == start {
				// Reconstruct path start -> ... -> v -> start.
				var rev []int
				for x := v; ; x = prev[x] {
					rev = append(rev, x)
					if x == start {
						break
					}
				}
				out := make([]*rules.Rule, 0, len(rev))
				for i := len(rev) - 1; i >= 0; i-- {
					out = append(out, g.set.Rules()[rev[i]])
				}
				return out
			}
			if !visited[w] {
				visited[w] = true
				prev[w] = v
				stack = append(stack, w)
			}
		}
	}
	return nil
}
