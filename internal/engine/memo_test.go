package engine

// The pending-net memo's two oracles. pendingNet is the engine's only
// net-effect computation and every answer it gives passes through the
// netHook seam, so (1) a differential check can compare each answer —
// memo hit, miss, or the empty-net shortcut, with its trigger bit —
// against a fresh transition.ComputeTable, across every way the history,
// the marks and the database move; and (2) a counting check can pin how
// often the computation actually runs.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"activerules/internal/rules"
	"activerules/internal/schema"
	"activerules/internal/storage"
	"activerules/internal/transition"
	"activerules/internal/workload"
)

// recomputeOracle is the check mode: installed as an engine's netHook it
// compares every pendingNet answer with a fresh computation and keeps
// the first disagreement. The seeded-bug control sets stop, which makes
// the oracle panic with the disagreement instead of letting the engine
// act on a wrong answer (the trigger scan reads every net before
// Consider does, so the panic is not inside a consideration's recover),
// and may set mutate, which runs after each answer to corrupt the memo.
type recomputeOracle struct {
	hits   int // answers served from the memo
	err    error
	stop   bool
	mutate func(e *Engine, r *rules.Rule)
}

func (o *recomputeOracle) hook(e *Engine, r *rules.Rule, net *transition.Net, triggered, computed bool) {
	if !computed && net != emptyNet {
		o.hits++
	}
	if o.err == nil {
		fresh := transition.ComputeTable(e.db, e.marks[r.Index()], e.tabs[r.Index()], &transition.Scratch{}, nil)
		if diff := diffNets(net, fresh, r.Table); diff != "" {
			o.err = fmt.Errorf("rule %s (mark %d, history %d, computed=%v): %s",
				r.Name, e.marks[r.Index()], e.db.HistoryLen(), computed, diff)
		} else if want := netOps(fresh.Table(r.Table)).Intersects(r.TriggeredBy()); triggered != want {
			o.err = fmt.Errorf("rule %s: trigger bit %v, recomputed %v", r.Name, triggered, want)
		}
	}
	if o.stop && o.err != nil {
		panic(o.err)
	}
	if o.mutate != nil {
		o.mutate(e, r)
	}
}

// diffNets compares everything a consumer can read off a rule's pending
// net: the digest, the transition tables row by row in order, the
// updated columns and the operation set.
func diffNets(got, want *transition.Net, table string) string {
	if got.TableFingerprint(table) != want.TableFingerprint(table) {
		return "table fingerprints differ"
	}
	g, w := got.Table(table), want.Table(table)
	if (g == nil) != (w == nil) {
		return fmt.Sprintf("table net present=%v, want %v", g != nil, w != nil)
	}
	if g != nil {
		switch {
		case !reflect.DeepEqual(g.Inserted, w.Inserted):
			return fmt.Sprintf("inserted %v, want %v", g.Inserted, w.Inserted)
		case !reflect.DeepEqual(g.Deleted, w.Deleted):
			return fmt.Sprintf("deleted %v, want %v", g.Deleted, w.Deleted)
		case !reflect.DeepEqual(g.Updated, w.Updated):
			return fmt.Sprintf("updated %v, want %v", g.Updated, w.Updated)
		case !reflect.DeepEqual(g.UpdatedColumns, w.UpdatedColumns):
			return fmt.Sprintf("updated columns %v, want %v", g.UpdatedColumns, w.UpdatedColumns)
		}
	}
	if !reflect.DeepEqual(netOps(g), netOps(w)) {
		return fmt.Sprintf("ops %s, want %s", netOps(g), netOps(w))
	}
	return ""
}

// netOps is the operation set a table's net effect induces (Section 2):
// (I,t) for a net insertion, (D,t) for a net deletion, (U,t.c) for every
// net-changed column. Intersecting it with Triggered-By is the trigger
// test the engine made before Net.Triggers, kept here as its oracle.
func netOps(tn *transition.TableNet) schema.OpSet {
	ops := schema.NewOpSet()
	if tn == nil {
		return ops
	}
	if len(tn.Inserted) > 0 {
		ops.Add(schema.Insert(tn.Table))
	}
	if len(tn.Deleted) > 0 {
		ops.Add(schema.Delete(tn.Table))
	}
	for _, c := range tn.UpdatedColumns {
		ops.Add(schema.Update(tn.Table, c))
	}
	return ops
}

// fingerprints reads every rule's pending net through the three state
// digests, so the oracle sees answers for untriggered rules too.
func fingerprints(e *Engine) {
	e.StateFingerprint()
	e.StateHash()
	e.TRStateFingerprint()
}

// oracleScenario rides the clone oracle's seeded scenario (scripts that
// fail and panic midway, failing, panicking, cancelled and resumed
// assertions, rule and caller rollback, commit) with the check mode on,
// and adds between its steps what the scenario lacks: the state digests,
// RebuildTriggerIndex, and pairs of forks of which one is stepped before
// the parent moves on and the other after.
func oracleScenario(t *testing.T, seed int64, o *recomputeOracle, dropGen bool) {
	rng := rand.New(rand.NewSource(seed * 7919))
	var held *Engine
	step := func(fork *Engine) {
		if dropGen {
			syncGen(fork)
		}
		fingerprints(fork)
		fork.Assert() // an error leaves it suspended; the hook is the check
		fingerprints(fork)
	}
	rollbackScenario(t, seed, func(n int, e *Engine) {
		e.netHook = o.hook
		if dropGen {
			syncGen(e)
		}
		if held != nil {
			step(held) // the parent moved first
			held = nil
		}
		switch rng.Intn(4) {
		case 0:
			fingerprints(e)
		case 1:
			e.RebuildTriggerIndex()
		case 2:
			a, b := e.Clone(), e.Clone()
			step(a) // the fork moves first
			held = b
		}
	})
}

// syncGen is the seeded bug "the validity test forgot the generation":
// every memo slot claims the history's current one.
func syncGen(e *Engine) {
	for i := range e.memo {
		e.memo[i].gen = e.db.HistoryGen()
	}
}

// TestPendingNetMemoDifferential: memo ≡ recompute, on the clone
// oracle's scenarios and on the generated configurations of the compile
// differential battery.
func TestPendingNetMemoDifferential(t *testing.T) {
	t.Run("scenario/compiled=true", func(t *testing.T) {
		hits := 0
		for seed := int64(1); seed <= 25; seed++ {
			o := &recomputeOracle{}
			oracleScenario(t, seed, o, false)
			if o.err != nil {
				t.Fatalf("seed=%d: %v", seed, o.err)
			}
			hits += o.hits
		}
		if hits == 0 {
			t.Error("no answer came from the memo")
		}
	})
	for _, seed := range []int64{1, 2, 3} {
		for _, acyclic := range []bool{true, false} {
			for _, transFrac := range []float64{0, 0.6} {
				for _, condFrac := range []float64{0.3, 0.9} {
					name := fmt.Sprintf("generated/seed=%d/acyclic=%v/trans=%.1f/cond=%.1f", seed, acyclic, transFrac, condFrac)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						g, err := workload.Generate(workload.Config{
							Seed: seed, Rules: 12, Tables: 4, Acyclic: acyclic,
							WriteFanout: 2, UpdateFrac: 0.3, DeleteFrac: 0.15,
							ConditionFrac: condFrac, TransRefFrac: transFrac,
							ObservableFrac: 0.3, PriorityDensity: 0.2,
						})
						if err != nil {
							t.Fatal(err)
						}
						generatedOracleRun(t, g, seed)
					})
				}
			}
		}
	}
}

// servedSystem is the served cascade's shape in small (bench/gen.go's
// cascadeSources: a bank cluster, a chain under an insert into its head
// and fan-out rules on the head) with what a long run also needs: a
// guard that rolls back, a rule whose action fails on the value 13, and
// rules that carry deleted and old-updated rows down a table.
func servedSystem(depth, fan int) (schemaSrc, rulesSrc string) {
	var sch, rl strings.Builder
	sch.WriteString("table account (id int, owner string, balance float)\ntable audit (id int, owner string)\ntable holds (id int, acct int)\n")
	rl.WriteString(`create rule r_audit on account when inserted then insert into audit select id, owner from inserted

create rule r_hold on account when updated(balance)
if exists (select 1 from new-updated nu where nu.balance < 0)
then insert into holds select nu.id, nu.id from new-updated nu where nu.balance < 0

create rule r_purge on account when deleted then delete from holds where acct in (select id from deleted)

create rule r_guard on c0 when inserted if exists (select 1 from inserted where v < 0) then rollback

create rule r_bad on c1 when inserted if exists (select 1 from inserted where v = 13) then update f0 set v = v / 0

create rule r_drop on c0 when deleted then delete from c1 where v in (select v from deleted)

create rule r_shift on c0 when updated(v) then update c1 set v = v + 1 where v in (select o.v from old-updated o)

`)
	for i := 0; i <= depth; i++ {
		fmt.Fprintf(&sch, "table c%d (v int)\n", i)
	}
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&rl, "create rule chain%02d on c%d when inserted if exists (select 1 from inserted where v >= 0) then insert into c%d select v from inserted\n\n", i, i, i+1)
	}
	for j := 0; j < fan; j++ {
		fmt.Fprintf(&sch, "table f%d (v int)\n", j)
		fmt.Fprintf(&rl, "create rule fan%d on c0 when inserted then insert into f%d select v from inserted where v >= 0\n\n", j, j)
	}
	return sch.String(), rl.String()
}

// TestPendingNetRefillDifferential is the memo oracle on an engine that
// is never forked, so that it refills its nets in place the way the
// serving engine does (a fork stops both engines refilling a slot until
// that slot next recomputes, and the scenarios above fork often). One engine serves
// a stream of bank and cascade requests — scripts that fail or panic
// midway, considerations that fail or panic, rule and caller rollbacks,
// sweeps, updates, several requests to a transaction — with the state
// digests read between steps, so a refilled net that kept a row, a list
// or its digest answers differently from a fresh computation.
func TestPendingNetRefillDifferential(t *testing.T) {
	const depth, fan, steps = 6, 3, 200
	seeds := int64(6)
	if testing.Short() {
		seeds = 2
	}
	schemaSrc, rulesSrc := servedSystem(depth, fan)
	refills := 0
	for seed := int64(1); seed <= seeds; seed++ {
		set, db := mkSet(t, schemaSrc, rulesSrc)
		f := &fuse{}
		e := New(set, db, Options{WrapMutator: f.wrap, MaxSteps: 200})
		o := &recomputeOracle{}
		last := make([]*transition.Net, set.Len())
		e.netHook = func(e *Engine, r *rules.Rule, net *transition.Net, triggered, computed bool) {
			if computed {
				if net != emptyNet && net == last[r.Index()] {
					refills++
				}
				last[r.Index()] = net
			}
			o.hook(e, r, net, triggered, computed)
		}
		servedRun(t, e, f, rand.New(rand.NewSource(seed)), steps, depth)
		if o.err != nil {
			t.Fatalf("seed=%d: %v", seed, o.err)
		}
		for i, m := range e.memo {
			if m.shared {
				t.Fatalf("seed=%d: rule %d's memo slot is shared with a fork", seed, i)
			}
		}
	}
	if refills == 0 {
		t.Errorf("no net was refilled")
	}
	t.Logf("%d nets refilled", refills)
}

// servedRun serves steps requests to a servedSystem of the given depth,
// each a script run, an assertion and mostly a commit, the way
// internal/serve does, with faults mixed in. A failed request is rolled
// back, or its assertion resumed.
func servedRun(t *testing.T, e *Engine, f *fuse, rng *rand.Rand, steps, depth int) {
	nextID := 1
	value := func() int {
		if v := rng.Intn(60); v != 13 {
			return v
		}
		return 14
	}
	request := func() string {
		switch rng.Intn(8) {
		case 0:
			nextID++
			return fmt.Sprintf("insert into account values (%d, 'o%d', 20.0), (%d, 'o%d', 5.0)", nextID, nextID, -nextID, -nextID)
		case 1:
			return fmt.Sprintf("update account set balance = balance - %d.5 where id < %d", rng.Intn(30), rng.Intn(nextID+2))
		case 2:
			return fmt.Sprintf("delete from account where id = %d; delete from audit where id = %d", rng.Intn(nextID+2), rng.Intn(nextID+2))
		case 3:
			return fmt.Sprintf("update c0 set v = v + 1 where v < %d", value())
		case 4:
			var sb strings.Builder
			for i := 0; i <= depth; i++ {
				fmt.Fprintf(&sb, "delete from c%d where v < %d; ", i, value())
			}
			return sb.String() + "delete from f0"
		default:
			return fmt.Sprintf("insert into c0 values (%d), (%d), (%d), (%d)", value(), value(), value(), value())
		}
	}
	for step := 0; step < steps; step++ {
		fingerprints(e)
		src := request()
		switch rng.Intn(12) {
		case 0: // the script's last statement fails
			src += "; insert into c0 values (1/0)"
		case 1: // a rule rolls the transaction back
			src += "; insert into c0 values (-1)"
		case 2: // r_bad's action fails until the transaction is rolled back
			src += "; insert into c0 values (13)"
		case 3: // the script fails or panics midway
			f.in, f.panic = 1+rng.Intn(3), rng.Intn(2) == 0
		}
		_, err := e.ExecUser(src)
		f.in = 0
		fingerprints(e)
		if err != nil {
			continue // atomic: nothing of the script is left
		}
		if rng.Intn(6) == 0 { // a consideration fails or panics
			f.in, f.panic = 1+rng.Intn(3), rng.Intn(2) == 0
		}
		res, err := e.Assert()
		f.in = 0
		fingerprints(e)
		if err != nil {
			if rng.Intn(2) == 0 {
				res, err = e.Assert() // resume where it stopped
				fingerprints(e)
			}
			if err != nil {
				if err := e.Rollback(); err != nil {
					t.Fatal(err)
				}
				continue
			}
		}
		if !res.RolledBack && rng.Intn(3) != 0 { // else the next request joins the transaction
			if err := e.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// generatedOracleRun drives one generated rule set through three
// assertion points and a commit with the check mode on, a fork racing
// the parent through each assertion. Cyclic sets exhaust the (small)
// budget or livelock, which puts StateFingerprint on the path too.
func generatedOracleRun(t *testing.T, g *workload.Generated, seed int64) {
	o := &recomputeOracle{}
	e := New(g.Set, workload.SeedDatabase(g.Schema, 3), Options{MaxSteps: 100})
	e.netHook = o.hook
	rng := rand.New(rand.NewSource(seed * 31))
	for seg := 0; seg < 3; seg++ {
		if _, err := e.ExecUser(workload.UserScript(g.Schema, rng, 3)); err != nil {
			t.Fatal(err)
		}
		fingerprints(e)
		fork := e.Clone()
		e.Assert()
		fork.Assert()
		fingerprints(e)
		if seg == 1 {
			if err := e.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if o.err != nil {
		t.Fatalf("%v", o.err)
	}
}

// TestPendingNetMemoDifferentialCatchesMutations seeds the two bugs the
// validity test can have — forgetting the generation, forgetting the
// computed-at position — and requires the oracle to catch each: the
// differential above is only as good as the scenarios' reach.
func TestPendingNetMemoDifferentialCatchesMutations(t *testing.T) {
	mutations := []struct {
		name    string
		dropGen bool
		mutate  func(e *Engine, r *rules.Rule)
	}{
		{name: "drop gen", dropGen: true},
		{name: "drop upTo", mutate: func(e *Engine, r *rules.Rule) {
			e.memo[r.Index()].upTo = math.MaxInt
		}},
	}
	for _, m := range mutations {
		caught := 0
		for seed := int64(1); seed <= 25; seed++ {
			o := &recomputeOracle{stop: true, mutate: m.mutate}
			func() {
				defer func() {
					if p := recover(); p != nil && p != any(o.err) {
						panic(p)
					}
				}()
				oracleScenario(t, seed, o, m.dropGen)
			}()
			if o.err != nil {
				caught++
			}
		}
		t.Logf("%s: caught on %d of 25 seeds", m.name, caught)
		if caught == 0 {
			t.Errorf("%s: no scenario caught the seeded bug", m.name)
		}
	}
}

// fanChain builds the serving-cascade shape: a chain c0 -> c1 -> ... of
// depth rules, and fan rules on the chain head that stay triggered, on a
// table nothing else writes, while the chain runs.
func fanChain(t *testing.T, depth, fan int) *Engine {
	var sch, rl strings.Builder
	for i := 0; i <= depth; i++ {
		fmt.Fprintf(&sch, "table c%d (v int)\n", i)
	}
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&rl, "create rule chain%03d on c%d when inserted then insert into c%d select v from inserted\n\n", i, i, i+1)
	}
	for j := 0; j < fan; j++ {
		fmt.Fprintf(&sch, "table f%d (v int)\n", j)
		fmt.Fprintf(&rl, "create rule fan%03d on c0 when inserted then insert into f%d select v from inserted\n\n", j, j)
	}
	set, db := mkSet(t, sch.String(), rl.String())
	e := New(set, db, Options{})
	if _, err := e.ExecUser("insert into c0 values (1), (2), (3)"); err != nil {
		t.Fatal(err)
	}
	e.BeginAssert()
	return e
}

// chainStep is one step of rule processing with the default strategy:
// scan, choose, consider. The chain rules sort before the fan rules.
func chainStep(t *testing.T, e *Engine) *rules.Rule {
	eligible := e.set.Choose(nil, e.TriggeredRules(), nil)
	if len(eligible) == 0 {
		t.Fatal("nothing eligible")
	}
	r := FirstByName{}.Pick(eligible)
	if _, _, _, err := e.Consider(r); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestTriggerScanComputesEachNetOnce pins the cost model of the memo on
// the cascade shape: one net computation per (rule, change to its table
// or mark) — not one per triggered rule per step.
func TestTriggerScanComputesEachNetOnce(t *testing.T) {
	const depth, fan = 12, 8
	e := fanChain(t, depth, fan)
	computed := map[string]int{}
	e.netHook = func(_ *Engine, r *rules.Rule, _ *transition.Net, _, c bool) {
		if c {
			computed[r.Name]++
		}
	}
	total := func() (n int) {
		for _, c := range computed {
			n += c
		}
		return n
	}

	// The first scan computes the net of every rule on c0, once.
	triggered := e.TriggeredRules()
	if len(triggered) != 1+fan || total() != 1+fan {
		t.Fatalf("first scan: %d triggered, %d nets computed, want %d of each",
			len(triggered), total(), 1+fan)
	}
	// A second scan, the digests, and considering a scanned rule
	// compute nothing.
	e.TriggeredRules()
	fingerprints(e)
	if r := chainStep(t, e); r.Name != "chain000" || total() != 1+fan {
		t.Fatalf("considered %s after %d computations, want chain000 after %d",
			r.Name, total(), 1+fan)
	}
	// Each further chain step computes exactly the next chain
	// rule's net: the fan siblings stay triggered and untouched.
	for i := 1; i < depth; i++ {
		before := total()
		r := chainStep(t, e)
		if want := fmt.Sprintf("chain%03d", i); r.Name != want || total() != before+1 || computed[want] != 1 {
			t.Fatalf("step %d considered %s with %d computations (%d for it), want %s with 1",
				i, r.Name, total()-before, computed[r.Name], want)
		}
	}
	// The fan rules then run off the nets of the first scan.
	before := total()
	for j := 0; j < fan; j++ {
		chainStep(t, e)
	}
	if len(e.TriggeredRules()) != 0 || total() != before {
		t.Fatalf("the fan rules recomputed %d nets", total()-before)
	}
	for name, c := range computed {
		if c != 1 {
			t.Errorf("%s's net was computed %d times", name, c)
		}
	}
}

// TestTriggerScanMemoHitsReachHook runs the served cascade
// (workload.CascadeSources) one step at a time under the check mode. The
// fan rules stay triggered and untouched while the chain runs, so the
// trigger scan answers them from their memo inline, and each such answer
// must still pass the netHook: the oracle counts the memo hits of the
// scans alone and finds every answer right. Each request inserts into
// the chain head twice, with a scan between, at unchanged marks: the
// second scan must recompute the head's rules, which a memo check that
// ignored the table's last change would answer with the first net.
func TestTriggerScanMemoHitsReachHook(t *testing.T) {
	const requests, depth, fan = 3, 24, 8
	schemaSrc, rulesSrc, _ := workload.CascadeSources()
	set, db := mkSet(t, schemaSrc, rulesSrc)
	e := New(set, db, Options{})
	o := &recomputeOracle{}
	e.netHook = o.hook
	scanHits := 0
	scan := func() []*rules.Rule {
		before := o.hits
		triggered := e.TriggeredRules()
		scanHits += o.hits - before
		return triggered
	}
	for req := 0; req < requests; req++ {
		e.BeginAssert()
		for _, sql := range []string{"insert into c0 values (1), (2)", "insert into c0 values (3), (4)"} {
			if _, err := e.ExecUser(sql); err != nil {
				t.Fatal(err)
			}
			if got := len(scan()); got != 1+fan {
				t.Fatalf("%d rules triggered on the chain head, want %d", got, 1+fan)
			}
		}
		considered := 0
		for eligible := e.set.Choose(nil, scan(), nil); len(eligible) > 0; eligible = e.set.Choose(nil, scan(), nil) {
			if _, _, _, err := e.Consider(FirstByName{}.Pick(eligible)); err != nil {
				t.Fatal(err)
			}
			considered++
		}
		if considered != depth+fan {
			t.Fatalf("request %d considered %d rules, want %d", req, considered, depth+fan)
		}
		if err := e.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if o.err != nil {
		t.Fatalf("%v", o.err)
	}
	// Per request, the scan before chain00 serves its net and the fan
	// rules' from the memo; the depth scans after a chain step serve
	// the fan rules'; and the scan after the k-th fan rule's step
	// serves the fan-k still triggered.
	if want := requests * (1 + fan*(1+depth) + fan*(fan-1)/2); scanHits != want {
		t.Errorf("the scans served %d answers from the memo, want %d", scanHits, want)
	}
}

// TestTriggerScanAllocsFlatInSiblings: a step's allocations must not
// grow with the number of triggered siblings it leaves untouched.
func TestTriggerScanAllocsFlatInSiblings(t *testing.T) {
	const runs = 20
	perStep := func(fan int) float64 {
		e := fanChain(t, runs+2, fan)
		chainStep(t, e) // fills the siblings' nets
		return testing.AllocsPerRun(runs, func() { chainStep(t, e) })
	}
	few, many := perStep(8), perStep(64)
	// The two result slices (triggered, eligible) grow by doubling: 3
	// more doublings each from 9 to 65 rules. A recomputed sibling net
	// costs tens of allocations, so 56 of them cannot hide in that.
	if many > few+6 {
		t.Errorf("allocations per step: %.0f with 8 untouched siblings, %.0f with 64", few, many)
	}
}

// TestForksShareMemoizedNetsAcrossGoroutines: forks inherit the parent's
// memo slots — the same *transition.Net values — and then run on
// goroutines of their own, each filling its own scratch (the log's, the
// Env's, the trigger scan's) while the others read the shared nets and
// publish their digests. Under -race this is the evidence that nothing
// reachable from a memoized net points into scratch; in any build every
// fork must reach the state a lone engine reaches.
func TestForksShareMemoizedNetsAcrossGoroutines(t *testing.T) {
	const depth, fan, forks = 6, 4, 8
	run := func(e *Engine) (string, error) {
		// Digest first: the forks race to memoize the shared nets'
		// fingerprints.
		fp := e.StateFingerprint()
		if _, err := e.Assert(); err != nil {
			return "", err
		}
		return fp + e.StateFingerprint(), nil
	}
	parent := fanChain(t, depth, fan)
	parent.TriggeredRules() // every rule on c0 now has a memoized net
	chainStep(t, parent)    // and chain001 one computed after a firing
	want, err := run(parent.Clone())
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, forks)
	errs := make([]error, forks)
	var wg sync.WaitGroup
	for i := range got {
		fork := parent.Clone()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = run(fork)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil || got[i] != want {
			t.Errorf("fork %d: err %v, reached the lone engine's state: %v", i, errs[i], got[i] == want)
		}
	}
}

// TestForkSharedNetAliasesNoStorageRow: a memoized net that forks share
// holds no row of the parent's database. The parent rolls back — which
// puts the very tuple objects its history held back into the table — and
// updates them in place while one fork reads the shared net's deleted and
// old-updated rows on another goroutine (under -race, an aliased row is a
// reported race) and a second fork reads them afterwards: both see the
// transition as it was computed.
func TestForkSharedNetAliasesNoStorageRow(t *testing.T) {
	set, db := mkSet(t, "table t (k int, v int)", `
create rule r on t when deleted, updated(v)
then select k, v from deleted; select k, v from old-updated; select k, v from new-updated`)
	db.MustInsert("t", storage.IntV(1), storage.IntV(10))
	db.MustInsert("t", storage.IntV(2), storage.IntV(20))
	e := New(set, db, Options{})
	if _, err := e.ExecUser("update t set v = v + 1 where k = 1; delete from t where k = 2"); err != nil {
		t.Fatal(err)
	}
	r := set.Rules()[0]
	if trig := e.TriggeredRules(); len(trig) != 1 { // r's net is memoized
		t.Fatalf("triggered %v", names(trig))
	}
	consider := func(f *Engine) string {
		_, events, _, err := f.Consider(r)
		if err != nil {
			return err.Error()
		}
		return fmt.Sprint(events)
	}
	const want = "[r: select k, v from deleted -> (2,20) r: select k, v from old-updated -> (1,10) r: select k, v from new-updated -> (1,11)]"
	during, after := e.Clone(), e.Clone()
	if during.memo[0].net != e.memo[0].net {
		t.Fatal("the forks do not share the memoized net")
	}
	var got string
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		got = consider(during)
	}()
	if err := e.Rollback(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecUser("update t set k = 7, v = 77"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if got != want {
		t.Errorf("the fork reading during the parent's writes saw %s", got)
	}
	if got := consider(after); got != want {
		t.Errorf("the fork reading after the parent's writes saw %s", got)
	}
}
