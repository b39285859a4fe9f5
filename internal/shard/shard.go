// Package shard runs one serving engine per analysis-proven shard.
//
// The planner (internal/analysis, Section 7 of the paper) partitions
// the schema's tables into groups with pairwise-disjoint significant
// rule sets; Theorem 7.2 then guarantees that rule processing on
// different groups commutes, so each group can be served by its own
// engine — with its own write-ahead log, quarantine breaker, and
// replication stream — and every per-table outcome matches the
// unsharded system. A Group materializes that plan: it opens one
// serve.Server per effective shard and routes each request to the
// single shard owning every table the request's statements touch.
//
// Routing is static and syntactic: the tables a statement references
// are collected from its parse tree by sqlmini.Inspect (every clause and
// subquery, VALUES rows included), before execution. A request whose statements span two shards is rejected
// with a typed *ShardError rather than executed — the analysis only
// proves commutativity for statements confined to one group, so a
// cross-shard statement is exactly the coordination the plan promised
// to avoid.
package shard

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"

	"activerules/internal/analysis"
	"activerules/internal/rules"
	"activerules/internal/schema"
	"activerules/internal/serve"
	"activerules/internal/sqlmini"
)

// ShardError reports a request the router cannot confine to one shard:
// its statements touch tables in different shards, a table no shard
// owns, or no table at all. The request was not executed.
type ShardError struct {
	// Tables are the tables the request references, sorted.
	Tables []string
	// Shards are the distinct shard indices those tables map to,
	// sorted; -1 marks a table outside the plan.
	Shards []int
	// Reason is a one-line human explanation.
	Reason string
}

func (e *ShardError) Error() string {
	if len(e.Tables) == 0 {
		return "shard: " + e.Reason
	}
	return fmt.Sprintf("shard: %s (tables [%s])", e.Reason, strings.Join(e.Tables, " "))
}

// Code is the stable wire code.
func (e *ShardError) Code() string { return "shard" }

// Group serves an analysis-proven shard plan: one serve.Server per
// effective shard, each with its own WAL directory dir/shard-NNN.
// All methods are safe for concurrent use.
type Group struct {
	sch     *schema.Schema
	plan    *analysis.ShardPlan
	servers []*serve.Server
	// tables and ruleNames describe the effective (possibly coalesced)
	// shards, parallel to servers.
	tables     [][]string
	ruleNames  [][]string
	tableShard map[string]int
}

// Open plans the maximal shard partition for the schema and rule set,
// coalesces it to at most n effective shards (n <= 0 means "as many as
// the plan allows"), and opens one serve.Server per effective shard
// under dir. Coalescing is deterministic: the plan's groups (already in
// sorted order) are dealt round-robin into the n buckets, so equal
// inputs yield equal assignments. cfg applies to every shard; its
// Tables field is overridden per shard so degraded-mode reports scope
// to the shard's own tables.
func Open(sch *schema.Schema, defs []rules.Definition, dir string, n int, cfg serve.Config) (*Group, error) {
	set, err := rules.NewSet(sch, defs)
	if err != nil {
		return nil, err
	}
	plan := analysis.New(set, nil).ShardPlan()
	k := plan.NumShards()
	if k == 0 {
		return nil, fmt.Errorf("shard: plan has no shards (empty schema)")
	}
	if n <= 0 || n > k {
		n = k
	}

	g := &Group{
		sch:        sch,
		plan:       plan,
		tables:     make([][]string, n),
		ruleNames:  make([][]string, n),
		tableShard: make(map[string]int),
	}
	ruleBucket := make(map[string]int)
	for i, grp := range plan.Shards {
		b := i % n
		g.tables[b] = append(g.tables[b], grp.Tables...)
		g.ruleNames[b] = append(g.ruleNames[b], grp.Rules...)
		for _, t := range grp.Tables {
			g.tableShard[t] = b
		}
		for _, r := range grp.Rules {
			ruleBucket[r] = b
		}
	}
	for b := 0; b < n; b++ {
		sort.Strings(g.tables[b])
		sort.Strings(g.ruleNames[b])
	}

	// Partition the definitions by the plan's rule assignment,
	// preserving source order within each shard. The plan covers every
	// rule (each rule's footprint lives in exactly one group), so an
	// uncovered definition is a planner bug, not a routing decision.
	subDefs := make([][]rules.Definition, n)
	for _, d := range defs {
		b, ok := ruleBucket[d.Name]
		if !ok {
			return nil, fmt.Errorf("shard: rule %s not covered by the shard plan", d.Name)
		}
		subDefs[b] = append(subDefs[b], d)
	}

	for b := 0; b < n; b++ {
		sub := cfg
		sub.Tables = g.tables[b]
		sdir := fmt.Sprintf("%s%cshard-%03d", dir, os.PathSeparator, b)
		srv, err := serve.New(sch, subDefs[b], sdir, sub)
		if err != nil {
			for _, s := range g.servers {
				s.Close()
			}
			return nil, fmt.Errorf("shard %d: %w", b, err)
		}
		g.servers = append(g.servers, srv)
	}
	return g, nil
}

// Plan returns the maximal (pre-coalescing) shard plan.
func (g *Group) Plan() *analysis.ShardPlan { return g.plan }

// NumShards returns the number of effective shards (servers).
func (g *Group) NumShards() int { return len(g.servers) }

// Tables returns the tables of effective shard i, sorted.
func (g *Group) Tables(i int) []string { return g.tables[i] }

// Rules returns the rule names of effective shard i, sorted.
func (g *Group) Rules(i int) []string { return g.ruleNames[i] }

// Route parses sql and returns the single effective shard its
// statements are confined to. A *ShardError reports statements that
// span shards, reference unplanned tables, or touch no table at all;
// parse errors are returned as-is.
func (g *Group) Route(sql string) (int, error) {
	if strings.TrimSpace(sql) == "" {
		// An empty request ("run rules on the pending transition") has
		// no table to route by, and no shard's pending transition is
		// "the" one.
		return -1, &ShardError{Reason: "request touches no table; cannot be routed"}
	}
	tables, err := statementTables(sql)
	if err != nil {
		return -1, err
	}
	if len(tables) == 0 {
		return -1, &ShardError{Reason: "request touches no table; cannot be routed"}
	}
	shards := make(map[int]bool)
	for _, t := range tables {
		shards[g.shardFor(t)] = true
	}
	idx := sortedKeys(shards)
	if shards[-1] {
		return -1, &ShardError{Tables: tables, Shards: idx,
			Reason: "statement references tables outside the shard plan"}
	}
	if len(idx) > 1 {
		return -1, &ShardError{Tables: tables, Shards: idx,
			Reason: fmt.Sprintf("statements span %d shards; the plan proves independence only within one", len(idx))}
	}
	return idx[0], nil
}

// shardFor maps a table to its effective shard, or -1. Transition
// table names are invalid in user statements; they fall through to -1
// and surface as an unplanned-table rejection.
func (g *Group) shardFor(table string) int {
	if b, ok := g.tableShard[table]; ok {
		return b
	}
	return -1
}

// Submit routes the request to its shard and executes it there. A
// request that cannot be confined to one shard fails with *ShardError
// without executing anything.
func (g *Group) Submit(ctx context.Context, req serve.Request) (*serve.Response, error) {
	b, err := g.Route(req.SQL)
	if err != nil {
		return nil, err
	}
	return g.servers[b].Submit(ctx, req)
}

// HealthView is the group's health body (typed per-shard access is
// Server(i).Health): ready iff every shard is, degraded iff any is, and
// the shards' common state (or "mixed").
func (g *Group) HealthView() any {
	var v struct {
		State    string         `json:"state"`
		Ready    bool           `json:"ready"`
		Degraded bool           `json:"degraded"`
		Shards   []serve.Health `json:"shards"`
	}
	v.Ready = true
	for i, s := range g.servers {
		h := s.Health()
		v.Ready = v.Ready && h.Ready
		v.Degraded = v.Degraded || h.Degraded
		if i == 0 {
			v.State = h.State
		} else if h.State != v.State {
			v.State = "mixed"
		}
		v.Shards = append(v.Shards, h)
	}
	return v
}

// StatsView is the group's stats body: the request counters summed.
func (g *Group) StatsView() any {
	var v struct {
		Accepted  uint64        `json:"accepted"`
		Completed uint64        `json:"completed"`
		Failed    uint64        `json:"failed"`
		Shards    []serve.Stats `json:"shards"`
	}
	for _, s := range g.servers {
		st := s.Stats()
		v.Accepted += st.Accepted
		v.Completed += st.Completed
		v.Failed += st.Failed
		v.Shards = append(v.Shards, st)
	}
	return v
}

// Checkpoint checkpoints every shard, returning the first error.
func (g *Group) Checkpoint(ctx context.Context) error {
	for i, s := range g.servers {
		if err := s.Checkpoint(ctx); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Shutdown drains every shard gracefully, returning the first error
// but attempting all shards.
func (g *Group) Shutdown(ctx context.Context) error {
	var first error
	for i, s := range g.servers {
		if err := s.Shutdown(ctx); err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return first
}

// Close releases every shard immediately.
func (g *Group) Close() error {
	var first error
	for i, s := range g.servers {
		if err := s.Close(); err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return first
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// statementTables parses sql and returns the sorted set of table names
// its statements reference: the targets of INSERT, DELETE and UPDATE
// and the FROM items of every select, in every clause and subquery of
// the raw parse tree (resolution has not run, so names are as written).
func statementTables(sql string) ([]string, error) {
	stmts, err := sqlmini.ParseStatements(sql)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	collect := func(n sqlmini.Node) bool {
		switch x := n.(type) {
		case *sqlmini.Insert:
			seen[x.Table] = true
		case *sqlmini.Delete:
			seen[x.Table] = true
		case *sqlmini.Update:
			seen[x.Table] = true
		case *sqlmini.Select:
			for _, tr := range x.From {
				seen[tr.Name] = true
			}
		}
		return true
	}
	for _, st := range stmts {
		sqlmini.Inspect(st, collect)
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out, nil
}
