package shard

// Sharding perf baseline: the same round-robin assert stream over four
// independent table clusters, served by 1, 2, and 4 effective shards.
// Submits run concurrently (b.RunParallel) because shard parallelism
// only pays when requests for different shards are in flight together.
// Recorded results live in BENCH_shard.json at the repo root.

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"activerules/internal/ruledef"
	"activerules/internal/schema"
	"activerules/internal/serve"
	"activerules/internal/wal"
)

// benchClusters builds a schema of n independent {src,dst} clusters,
// one copy rule each, so the maximal plan has n shards.
func benchClusters(b *testing.B, n int) (*schema.Schema, string) {
	b.Helper()
	var schSrc, ruleSrc string
	for i := 0; i < n; i++ {
		schSrc += fmt.Sprintf("table src%d (id int, v int)\ntable dst%d (id int, v int)\n", i, i)
		ruleSrc += fmt.Sprintf(
			"create rule copy%d on src%d\nwhen inserted\nthen insert into dst%d select id, v from inserted\n\n",
			i, i, i)
	}
	sch, err := schema.Parse(schSrc)
	if err != nil {
		b.Fatal(err)
	}
	return sch, ruleSrc
}

func BenchmarkAssertSharded(b *testing.B) {
	const clusters = 4
	sch, ruleSrc := benchClusters(b, clusters)
	defs, err := ruledef.Parse(ruleSrc)
	if err != nil {
		b.Fatal(err)
	}
	stmts := make([]string, clusters)
	for i := range stmts {
		stmts[i] = fmt.Sprintf("insert into src%d values (1, 2)", i)
	}
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			g, err := Open(sch, defs, "bench", n, serve.Config{
				WAL:            wal.Options{FS: wal.NewMemFS()},
				QueueDepth:     256,
				DisableProbing: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer g.Close()
			ctx := context.Background()
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(next.Add(1)) % clusters
					if _, err := g.Submit(ctx, serve.Request{SQL: stmts[i]}); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// routeSink keeps BenchmarkRoute's results.
var routeSink []string

// BenchmarkRoute is the router's per-request cost of finding a request's
// tables (statementTables) over a repeated stream of the bank's three
// request kinds, an update, an insert and a two-statement delete, with
// differing literals: every call parses the text again, although the
// owning shard's engine then lexes it once more.
func BenchmarkRoute(b *testing.B) {
	stmts := make([]string, 0, 96)
	for id := 0; id < 32; id++ {
		stmts = append(stmts,
			fmt.Sprintf("update account set balance = balance + %d.5 where id = %d", id%7, id),
			fmt.Sprintf("insert into account values (%d, 'o%d', 100.0)", id, id),
			fmt.Sprintf("delete from account where id = %d; delete from audit where id = %d", id, id))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if routeSink, err = statementTables(stmts[i%len(stmts)]); err != nil {
			b.Fatal(err)
		}
	}
}
