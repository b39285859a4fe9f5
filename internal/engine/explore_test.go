package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"activerules/internal/engine"
	"activerules/internal/execgraph"
	"activerules/internal/ruledef"
	"activerules/internal/rules"
	"activerules/internal/schema"
	"activerules/internal/storage"
)

// TestExploredEngineRefillAllocs: an engine that execgraph.Explore has
// cloned, with memoized nets at the time, refills each rule's pending net
// in place once that rule's slot has recomputed after the fork, as an
// engine never cloned does. Both run the same cascade requests (a chain
// under an insert into its head, fan-out rules on the head, and a sweep)
// after a warm-up, and the explored one may allocate no more per request:
// a net allocated per recomputation would be about 3 allocations per
// consideration.
func TestExploredEngineRefillAllocs(t *testing.T) {
	if engine.RaceEnabled() {
		t.Skip("allocation counts are meaningless under -race")
	}
	const depth, fan, runs = 8, 3, 50
	var sch, rl, sweep strings.Builder
	for i := 0; i <= depth+fan; i++ {
		name := fmt.Sprintf("c%d", i)
		if i > depth {
			name = fmt.Sprintf("f%d", i-depth)
		}
		fmt.Fprintf(&sch, "table %s (v int)\n", name)
		fmt.Fprintf(&sweep, "delete from %s where v >= 0; ", name)
	}
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&rl, "create rule chain%02d on c%d when inserted then insert into c%d select v from inserted\n\n", i, i, i+1)
	}
	for j := 1; j <= fan; j++ {
		fmt.Fprintf(&rl, "create rule fan%d on c0 when inserted then insert into f%d select v from inserted\n\n", j, j)
	}
	const insert = "insert into c0 values (1), (2), (3), (4)"
	build := func() *engine.Engine {
		sc := schema.MustParse(sch.String())
		defs, err := ruledef.Parse(rl.String())
		if err != nil {
			t.Fatal(err)
		}
		set, err := rules.NewSet(sc, defs)
		if err != nil {
			t.Fatal(err)
		}
		return engine.New(set, storage.NewDB(sc), engine.Options{})
	}
	request := func(e *engine.Engine, src string) {
		if _, err := e.ExecUser(src); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Assert(); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	explored, fresh := build(), build()
	for _, e := range []*engine.Engine{explored, fresh} {
		request(e, insert)
		request(e, sweep.String())
		if _, err := e.ExecUser(insert); err != nil {
			t.Fatal(err)
		}
		e.TriggeredRules() // the head's rules memoize their nets
	}
	res, err := execgraph.Explore(explored, execgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FinalDBs) != 1 {
		t.Fatalf("Explore found %d final states, want 1", len(res.FinalDBs))
	}
	got := make(map[*engine.Engine]float64)
	for _, e := range []*engine.Engine{explored, fresh} {
		if _, err := e.Assert(); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ { // warm: every slot recomputes, every scratch grows
			request(e, sweep.String())
			request(e, insert)
		}
		got[e] = testing.AllocsPerRun(runs, func() {
			request(e, sweep.String())
			request(e, insert)
		})
	}
	if got[explored] > got[fresh] {
		t.Errorf("a sweep and an insert request: %.0f allocations on the explored engine, %.0f on one never cloned", got[explored], got[fresh])
	}
	t.Logf("a sweep and an insert request: %.0f allocations on the explored engine, %.0f on one never cloned", got[explored], got[fresh])
}
