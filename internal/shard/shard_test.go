package shard

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"activerules/internal/ruledef"
	"activerules/internal/schema"
	"activerules/internal/serve"
	"activerules/internal/wal"
)

// twoClusterSchema has two independent table clusters {a,b} and {c,d}:
// the rules weld a to b and c to d, so the maximal plan has exactly two
// shards.
func twoClusterSchema(t *testing.T) (*schema.Schema, string) {
	t.Helper()
	sch, err := schema.Parse(`
table a (id int, v int)
table b (id int, v int)
table c (id int, v int)
table d (id int, v int)
`)
	if err != nil {
		t.Fatal(err)
	}
	return sch, `
create rule r_ab on a
when inserted
then insert into b select id, v from inserted

create rule r_cd on c
when inserted
then insert into d select id, v + 1 from inserted
`
}

func memConfig() serve.Config {
	return serve.Config{
		WAL:            wal.Options{FS: wal.NewMemFS()},
		DisableProbing: true,
	}
}

func openGroup(t *testing.T, n int) *Group {
	t.Helper()
	sch, src := twoClusterSchema(t)
	defs, err := ruledef.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Open(sch, defs, "shards", n, memConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

func TestShardRouting(t *testing.T) {
	g := openGroup(t, 0)
	if got := g.NumShards(); got != 2 {
		t.Fatalf("NumShards = %d, want 2 (plan: %s)", got, g.Plan())
	}

	sa, err := g.Route("insert into a values (1, 2)")
	if err != nil {
		t.Fatalf("route a: %v", err)
	}
	sc, err := g.Route("insert into c values (1, 2)")
	if err != nil {
		t.Fatalf("route c: %v", err)
	}
	if sa == sc {
		t.Fatalf("a and c routed to the same shard %d", sa)
	}
	// Statements confined to one cluster route together, subqueries
	// included.
	sb, err := g.Route("delete from b where id in (select id from a)")
	if err != nil {
		t.Fatalf("route a+b: %v", err)
	}
	if sb != sa {
		t.Fatalf("a+b statement routed to %d, a to %d", sb, sa)
	}

	var se *ShardError
	if _, err := g.Route("insert into a values (1, 1); insert into c values (2, 2)"); !errors.As(err, &se) {
		t.Fatalf("cross-shard route error = %v, want *ShardError", err)
	}
	if len(se.Shards) != 2 {
		t.Fatalf("cross-shard error shards = %v, want two", se.Shards)
	}
	if _, err := g.Route("insert into nosuch values (1)"); !errors.As(err, &se) {
		t.Fatalf("unknown-table route error = %v, want *ShardError", err)
	}
	if _, err := g.Route(""); !errors.As(err, &se) {
		t.Fatalf("empty route error = %v, want *ShardError", err)
	}
	if _, err := g.Route("insert into a values ("); err == nil || errors.As(err, &se) {
		t.Fatalf("parse error = %v, want non-ShardError", err)
	}

	// A rejected Submit executes nothing.
	if _, err := g.Submit(context.Background(), serve.Request{SQL: "insert into a values (9, 9); insert into c values (9, 9)"}); !errors.As(err, &se) {
		t.Fatalf("cross-shard submit error = %v, want *ShardError", err)
	}
	resp, err := g.Submit(context.Background(), serve.Request{SQL: "select id from a"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results[0].Rows) != 0 {
		t.Fatalf("rejected request leaked rows: %v", resp.Results[0].Rows)
	}
}

// TestShardRoutingSeesEveryClause: each statement is confined to a's
// shard except for one clause that reads c, so each spans both shards
// and must be refused. The router once skipped INSERT's VALUES rows and
// sent the first row to a's shard, where c is empty.
func TestShardRoutingSeesEveryClause(t *testing.T) {
	g := openGroup(t, 0)
	for _, sql := range []string{
		"insert into a values (7, (select max(v) from c))",
		"insert into a select id, v from c",
		"update a set v = (select max(v) from c)",
		"update a set v = 1 where id in (select id from c)",
		"delete from a where exists (select 1 from c where c.id = a.id)",
		"select id, (select max(v) from c) from a",
		"select id from a where v > (select max(v) from c)",
		"select v, count(*) from a group by v, (select max(v) from c)",
		"select v, count(*) from a group by v having count(*) > (select count(*) from c)",
		"select id from a order by (select max(v) from c)",
		"select id from a where id in (select id from c)",
		"select id from a where not exists (select 1 from c)",
		"select id from a where v in (1, (select min(v) from c))",
		"select sum((select max(v) from c)) from a",
	} {
		b, err := g.Route(sql)
		var se *ShardError
		if !errors.As(err, &se) {
			t.Errorf("%q routed to shard %d, err %v; want *ShardError", sql, b, err)
			continue
		}
		if !reflect.DeepEqual(se.Tables, []string{"a", "c"}) || len(se.Shards) != 2 {
			t.Errorf("%q: tables %v shards %v, want [a c] over two shards", sql, se.Tables, se.Shards)
		}
	}
}

// TestShardVerdictsMatchUnsharded drives the same request sequence
// through a 2-shard group and an unsharded server and checks that every
// per-table outcome — SELECT results and rule firings — is identical,
// which is exactly what Theorem 7.2 promises for disjoint-Sig shards.
func TestShardVerdictsMatchUnsharded(t *testing.T) {
	sch, src := twoClusterSchema(t)
	defs, err := ruledef.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Open(sch, defs, "shards", 2, memConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	flat, err := serve.New(sch, defs, "flat", memConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()

	ctx := context.Background()
	reqs := []string{
		"insert into a values (1, 10), (2, 20)",
		"insert into c values (1, 100)",
		"insert into a values (3, 30)",
		"insert into c values (2, 200), (3, 300)",
		"select id, v from b order by id",
		"select id, v from d order by id",
	}
	for _, sql := range reqs {
		req := serve.Request{SQL: sql}
		sr, err := g.Submit(ctx, req)
		if err != nil {
			t.Fatalf("sharded %q: %v", sql, err)
		}
		fr, err := flat.Submit(ctx, req)
		if err != nil {
			t.Fatalf("flat %q: %v", sql, err)
		}
		if got, want := fmt.Sprintf("%v", sr.Results), fmt.Sprintf("%v", fr.Results); got != want {
			t.Fatalf("%q results diverge:\n sharded %s\n flat    %s", sql, got, want)
		}
		if !reflect.DeepEqual(sr.FiredByRule, fr.FiredByRule) {
			t.Fatalf("%q firings diverge: sharded %v, flat %v", sql, sr.FiredByRule, fr.FiredByRule)
		}
	}

	// A scalar subquery over c in a's VALUES: the flat system would store
	// max(c.v), a's shard alone would store null. The group refuses it,
	// and neither system has changed.
	var se *ShardError
	if _, err := g.Submit(ctx, serve.Request{SQL: "insert into a values (7, (select max(v) from c))"}); !errors.As(err, &se) {
		t.Fatalf("VALUES subquery across shards: err %v, want *ShardError", err)
	}
	for _, sql := range []string{"select id, v from a order by id", "select id, v from b order by id"} {
		sr, err := g.Submit(ctx, serve.Request{SQL: sql})
		if err != nil {
			t.Fatal(err)
		}
		fr, err := flat.Submit(ctx, serve.Request{SQL: sql})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprintf("%v", sr.Results), fmt.Sprintf("%v", fr.Results); got != want || len(sr.Results[0].Rows) != 3 {
			t.Fatalf("after the refused request %q diverges or grew:\n sharded %s\n flat    %s", sql, got, want)
		}
	}
}

func TestShardCoalesceAndDeterminism(t *testing.T) {
	g1 := openGroup(t, 1)
	if got := g1.NumShards(); got != 1 {
		t.Fatalf("coalesced NumShards = %d, want 1", got)
	}
	// With one effective shard, a statement pair that spans the maximal
	// plan's groups is still confined to one server and must execute.
	resp, err := g1.Submit(context.Background(), serve.Request{SQL: "insert into a values (1, 1); insert into c values (2, 2)"})
	if err != nil {
		t.Fatalf("coalesced cross-cluster submit: %v", err)
	}
	if resp.Fired != 2 {
		t.Fatalf("coalesced Fired = %d, want 2 (r_ab and r_cd)", resp.Fired)
	}
	// Plan is still the maximal one, for reporting.
	if got := g1.Plan().NumShards(); got != 2 {
		t.Fatalf("maximal plan NumShards = %d, want 2", got)
	}

	// Requesting more shards than the plan allows clamps to the plan.
	g9 := openGroup(t, 9)
	if got := g9.NumShards(); got != 2 {
		t.Fatalf("over-requested NumShards = %d, want 2", got)
	}

	// Coalescing assignment is deterministic: equal inputs, equal
	// table sets per effective shard.
	ga, gb := openGroup(t, 1), openGroup(t, 1)
	for i := 0; i < ga.NumShards(); i++ {
		if !reflect.DeepEqual(ga.Tables(i), gb.Tables(i)) {
			t.Fatalf("shard %d tables diverge across runs: %v vs %v", i, ga.Tables(i), gb.Tables(i))
		}
		if !reflect.DeepEqual(ga.Rules(i), gb.Rules(i)) {
			t.Fatalf("shard %d rules diverge across runs: %v vs %v", i, ga.Rules(i), gb.Rules(i))
		}
	}
}
