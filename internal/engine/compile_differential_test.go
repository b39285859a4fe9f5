package engine_test

// The compiled-vs-reference differential battery: the engine — its
// compiled hot path (internal/compile), delta-driven triggering, pending-
// net memo, undo log and Choose — and the reference rule processor
// (reference_test.go), written from the paper's definitions over
// sqlmini.Evaluator and sharing none of that machinery, must be
// observably indistinguishable: byte-identical trace streams, identical
// results and observables, identical final databases and pending
// transition tables, and the same error taxonomy down to the message, on
// generated workloads, the shipped examples, and handwritten corner
// cases (rollback, livelock witnesses, untriggering, runtime errors).
// Any disagreement is a bug in the engine by definition: the reference
// is the oracle.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"activerules"
	"activerules/internal/engine"
	"activerules/internal/sqlmini"
	"activerules/internal/storage"
	"activerules/internal/workload"
)

// twinOptions builds one side's options; strategies carry per-processor
// state (the seeded one owns an RNG), so each side gets a fresh
// instance.
type twinOptions struct {
	maxSteps int
	strategy func() activerules.Strategy
}

func (o twinOptions) engineOpts(trace *[]string) activerules.EngineOptions {
	opts := activerules.EngineOptions{MaxSteps: o.maxSteps}
	if o.strategy != nil {
		opts.Strategy = o.strategy()
	}
	if trace != nil {
		opts.Trace = func(ev activerules.TraceEvent) { *trace = append(*trace, ev.String()) }
	}
	return opts
}

// processor is what a differential drives: the engine or the reference.
type processor interface {
	ExecUser(src string) ([]sqlmini.StmtResult, error)
	Assert() (engine.Result, error)
	Commit() error
	Rollback() error
	DB() *storage.DB
}

// newSide opens the engine (compiled) or the reference over an empty
// database of sys.
func newSide(sys *activerules.System, compiled bool, opts activerules.EngineOptions) processor {
	if compiled {
		return sys.NewEngine(sys.NewDB(), opts)
	}
	return engine.NewReference(sys.Rules(), sys.NewDB(), opts)
}

// stateOf is p's state (D, TR) as each side reads it on its own: the
// database fingerprint and every rule's pending transition tables, the
// engine's read off its pending nets, the reference's off its diff.
func stateOf(sys *activerules.System, p processor) string {
	fp := p.DB().Fingerprint()
	out := fmt.Sprintf("%x", fp)
	for _, r := range sys.Rules().Rules() {
		switch p := p.(type) {
		case *engine.Engine:
			out += "\n" + r.Name + ": " + engine.PendingTables(p, r)
		case *engine.Reference:
			out += "\n" + r.Name + ": " + p.PendingTables(r)
		}
	}
	return out
}

// modeRun is everything observable about one run.
type modeRun struct {
	trace       []string
	userResults string // rendered ExecUser results per segment
	userErr     string
	assertErrs  []string // one per assertion point: "<nil>" or "%T: %v"
	considered  []int
	fired       []int
	rolledBack  []bool
	firedByRule []map[string]int
	observables []string
	state       string // stateOf before every assertion point and at the end
	finalDB     string
	livelocks   []string // rendered livelock witnesses, in order
}

// runMode executes seed + script segments (split on "assert" markers by
// the caller into segs; a "!commit" segment commits instead) through one
// side and records everything observable.
func runMode(t *testing.T, sys *activerules.System, compiled bool, seed string, segs []string, opts twinOptions) modeRun {
	t.Helper()
	var run modeRun
	p := newSide(sys, compiled, opts.engineOpts(&run.trace))
	if seed != "" {
		if _, err := p.ExecUser(seed); err != nil {
			t.Fatalf("seed: %v", err)
		}
		if err := p.Commit(); err != nil {
			t.Fatalf("seed commit: %v", err)
		}
	}
	for _, seg := range segs {
		if seg == "!commit" {
			if err := p.Commit(); err != nil {
				t.Fatalf("commit: %v", err)
			}
			continue
		}
		if seg != "" {
			res, err := p.ExecUser(seg)
			if err != nil {
				run.userErr = fmt.Sprintf("%T: %v", err, err)
				break
			}
			run.userResults += fmt.Sprintf("%+v\n", res)
		}
		run.state += stateOf(sys, p) + "\n"
		res, err := p.Assert()
		if err != nil {
			run.assertErrs = append(run.assertErrs, fmt.Sprintf("%T: %v", err, err))
			var le *activerules.LivelockError
			if errors.As(err, &le) {
				run.livelocks = append(run.livelocks,
					fmt.Sprintf("period=%d steps=%d cycle=%v", le.Period, le.Steps, le.Cycle))
			}
		} else {
			run.assertErrs = append(run.assertErrs, "<nil>")
		}
		run.considered = append(run.considered, res.Considered)
		run.fired = append(run.fired, res.Fired)
		run.rolledBack = append(run.rolledBack, res.RolledBack)
		run.firedByRule = append(run.firedByRule, res.FiredByRule)
		for _, ev := range res.Observables {
			run.observables = append(run.observables, ev.String())
		}
	}
	run.state += stateOf(sys, p)
	run.finalDB = p.DB().String()
	return run
}

// diffModes runs both sides and fails on any observable disagreement.
// It returns the (oracle) reference run so callers can additionally
// assert the scenario produced the outcome it was designed to produce.
func diffModes(t *testing.T, sys *activerules.System, seed string, segs []string, opts twinOptions) modeRun {
	t.Helper()
	ref := runMode(t, sys, false, seed, segs, opts)
	comp := runMode(t, sys, true, seed, segs, opts)

	if !reflect.DeepEqual(ref.trace, comp.trace) {
		t.Errorf("trace stream diverged:\n reference: %q\n compiled:  %q", ref.trace, comp.trace)
	}
	if ref.userResults != comp.userResults || ref.userErr != comp.userErr {
		t.Errorf("user results diverged:\n reference: %q %q\n compiled:  %q %q",
			ref.userResults, ref.userErr, comp.userResults, comp.userErr)
	}
	if !reflect.DeepEqual(ref.assertErrs, comp.assertErrs) {
		t.Errorf("assert error taxonomy diverged:\n reference: %v\n compiled:  %v", ref.assertErrs, comp.assertErrs)
	}
	if !reflect.DeepEqual(ref.livelocks, comp.livelocks) {
		t.Errorf("livelock witnesses diverged:\n reference: %v\n compiled:  %v", ref.livelocks, comp.livelocks)
	}
	if !reflect.DeepEqual(ref.considered, comp.considered) ||
		!reflect.DeepEqual(ref.fired, comp.fired) ||
		!reflect.DeepEqual(ref.rolledBack, comp.rolledBack) ||
		!reflect.DeepEqual(ref.firedByRule, comp.firedByRule) {
		t.Errorf("results diverged:\n reference: c=%v f=%v rb=%v by=%v\n compiled:  c=%v f=%v rb=%v by=%v",
			ref.considered, ref.fired, ref.rolledBack, ref.firedByRule,
			comp.considered, comp.fired, comp.rolledBack, comp.firedByRule)
	}
	if !reflect.DeepEqual(ref.observables, comp.observables) {
		t.Errorf("observable stream diverged:\n reference: %q\n compiled:  %q", ref.observables, comp.observables)
	}
	if ref.state != comp.state {
		t.Errorf("state (database fingerprint, pending transitions) diverged:\n reference: %s\n compiled:  %s", ref.state, comp.state)
	}
	if ref.finalDB != comp.finalDB {
		t.Errorf("final database diverged:\n reference:\n%s compiled:\n%s", ref.finalDB, comp.finalDB)
	}
	return ref
}

// TestCompileDifferentialGenerated sweeps a grid of generated workloads
// — 24 configurations crossing seeds, trigger-graph topology,
// transition-table usage, and condition density — through both sides.
// Cyclic configurations may livelock or exhaust the step budget; the
// two sides must then fail identically, witness for witness.
func TestCompileDifferentialGenerated(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, acyclic := range []bool{true, false} {
			for _, transFrac := range []float64{0, 0.6} {
				for _, condFrac := range []float64{0.3, 0.9} {
					name := fmt.Sprintf("seed=%d/acyclic=%v/trans=%.1f/cond=%.1f", seed, acyclic, transFrac, condFrac)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						cfg := workload.Config{
							Seed: seed, Rules: 12, Tables: 4, Acyclic: acyclic,
							WriteFanout: 2, UpdateFrac: 0.3, DeleteFrac: 0.15,
							ConditionFrac: condFrac, TransRefFrac: transFrac,
							ObservableFrac: 0.3, PriorityDensity: 0.2,
						}
						g, err := workload.Generate(cfg)
						if err != nil {
							t.Fatal(err)
						}
						sys, err := activerules.FromDefinitions(g.Schema, g.Defs)
						if err != nil {
							t.Fatal(err)
						}
						rng := rand.New(rand.NewSource(seed * 31))
						seedSQL := ""
						for _, tbl := range g.Schema.TableNames() {
							seedSQL += fmt.Sprintf("insert into %s values (0, 10), (1, 45), (2, 70);\n", tbl)
						}
						segs := []string{
							workload.UserScript(g.Schema, rng, 3),
							workload.UserScript(g.Schema, rng, 3),
						}
						diffModes(t, sys, seedSQL, segs, twinOptions{maxSteps: 400})
					})
				}
			}
		}
	}
}

// TestCompileDifferentialStrategies re-runs one branching generated
// workload under every selection strategy (and a livelock-prone cyclic
// one), since the compiled TriggeredRules must preserve definition
// order for Choose and the strategies to behave identically.
func TestCompileDifferentialStrategies(t *testing.T) {
	g, err := workload.Generate(workload.Config{
		Seed: 7, Rules: 10, Tables: 4, WriteFanout: 2,
		UpdateFrac: 0.35, DeleteFrac: 0.1, ConditionFrac: 0.4,
		TransRefFrac: 0.5, ObservableFrac: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := activerules.FromDefinitions(g.Schema, g.Defs)
	if err != nil {
		t.Fatal(err)
	}
	strategies := map[string]func() activerules.Strategy{
		"first":  activerules.FirstByName,
		"last":   activerules.LastByName,
		"random": func() activerules.Strategy { return activerules.SeededStrategy(99) },
	}
	for name, strat := range strategies {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(70))
			segs := []string{workload.UserScript(g.Schema, rng, 4)}
			seedSQL := ""
			for _, tbl := range g.Schema.TableNames() {
				seedSQL += fmt.Sprintf("insert into %s values (0, 20), (1, 55);\n", tbl)
			}
			diffModes(t, sys, seedSQL, segs, twinOptions{maxSteps: 400, strategy: strat})
		})
	}
}

// TestCompileDifferentialExamples runs the shipped example rule sets.
func TestCompileDifferentialExamples(t *testing.T) {
	cases := []struct {
		dir, seed string
		segs      []string
	}{
		{
			dir:  "bank",
			seed: "insert into account values (1, 'ann', 100);\ninsert into account values (2, 'bob', 25)",
			segs: []string{
				"update account set balance = balance - 80 where id = 2",
				"insert into account values (3, 'cyd', -5)",
				"delete from account where id = 2",
			},
		},
		{
			dir:  "powernet",
			seed: "insert into node values (1, 'plant', true), (2, 'sub', false), (3, 'home', false);\ninsert into wire values (10, 1, 2, false), (11, 2, 3, false)",
			segs: []string{
				"update node set powered = true where id = 1",
				"insert into wire values (12, 3, 1, false)",
			},
		},
		{
			dir:  "lintdemo",
			segs: []string{"insert into t values (1)"},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.dir, func(t *testing.T) {
			sys, err := activerules.LoadFiles(
				"../../testdata/"+tc.dir+"/schema.sdl", "../../testdata/"+tc.dir+"/rules.srl")
			if err != nil {
				t.Fatal(err)
			}
			diffModes(t, sys, tc.seed, tc.segs, twinOptions{maxSteps: 1000})
		})
	}
}

// TestCompileDifferentialHandwritten pins the corner cases the grid is
// unlikely to hit precisely: rollback actions, a livelock witness, net-
// effect untriggering, runtime action errors, and budget exhaustion.
func TestCompileDifferentialHandwritten(t *testing.T) {
	cases := []struct {
		name, schema, rules, seed string
		segs                      []string
		maxSteps                  int
		// check asserts the scenario exercised what its name promises
		// (on the oracle run; diffModes already proved both sides agree).
		check func(t *testing.T, run modeRun)
	}{
		{
			name:   "rollback-action",
			schema: "table t (v int)\ntable audit (v int)",
			rules: `
create rule guard on t
when inserted
if exists (select 1 from inserted where v < 0)
then rollback

create rule log on t
when inserted
then insert into audit select v from inserted
`,
			segs: []string{"insert into t values (5)", "insert into t values (-1)"},
			check: func(t *testing.T, run modeRun) {
				if !run.rolledBack[1] {
					t.Error("second assertion did not roll back")
				}
			},
		},
		{
			name:   "livelock-witness",
			schema: "table a (v int)\ntable b (v int)",
			rules: `
create rule ping on a
when inserted
then delete from b; insert into b values (1)

create rule pong on b
when inserted
then delete from a; insert into a values (1)
`,
			segs:     []string{"insert into a values (1)"},
			maxSteps: 200,
			check: func(t *testing.T, run modeRun) {
				if len(run.livelocks) == 0 {
					t.Errorf("no livelock witness; errors: %v", run.assertErrs)
				}
			},
		},
		{
			name:   "untriggering-by-net-effect",
			schema: "table t (v int)\ntable x (v int)\ntable out (v int)",
			rules: `
create rule feed on t
when inserted
then insert into x values (1)

create rule sweep on t
when inserted
then delete from x
precedes consume

create rule consume on x
when inserted
then insert into out select v from inserted
`,
			segs: []string{"insert into t values (1)"},
			check: func(t *testing.T, run modeRun) {
				// sweep ran before consume and emptied x, so consume's
				// net transition is empty: it must never fire.
				if n := run.firedByRule[0]["consume"]; n != 0 {
					t.Errorf("consume fired %d times despite untriggering", n)
				}
			},
		},
		{
			name:   "runtime-action-error",
			schema: "table t (v int)\ntable d (v int)",
			rules: `
create rule boom on t
when inserted
then insert into d select v / (v - v) from inserted
`,
			segs: []string{"insert into t values (3)"},
			check: func(t *testing.T, run modeRun) {
				if len(run.assertErrs) == 0 || run.assertErrs[0] == "<nil>" {
					t.Errorf("runtime error not surfaced: %v", run.assertErrs)
				}
			},
		},
		{
			name:   "maxsteps-exhausted",
			schema: "table t (v int)",
			rules: `
create rule grow on t
when inserted
then insert into t select v + 1 from inserted
`,
			segs:     []string{"insert into t values (0)"},
			maxSteps: 25,
			check: func(t *testing.T, run modeRun) {
				if len(run.assertErrs) == 0 || run.assertErrs[0] == "<nil>" {
					t.Errorf("budget exhaustion not surfaced: %v", run.assertErrs)
				}
			},
		},
		{
			// Commit starts every rule's transition afresh: the first
			// write after it is pending for copy before the next
			// assertion point, though copy was last considered further
			// into the history of the transaction before.
			name:   "commit-between-assertions",
			schema: "table t (v int)\ntable u (v int)",
			rules: `
create rule copy on t
when inserted
then insert into u select v from inserted
`,
			segs: []string{"insert into t values (1), (2)", "!commit", "insert into t values (3)"},
			check: func(t *testing.T, run modeRun) {
				if !strings.Contains(run.state, "copy: inserted (1:3)") {
					t.Errorf("the write after the commit is not pending for copy:\n%s", run.state)
				}
			},
		},
		{
			name:   "condition-false-skips",
			schema: "table t (v int)\ntable d (v int)",
			rules: `
create rule maybe on t
when inserted
if exists (select 1 from inserted where v > 100)
then insert into d values (1); select v from d
`,
			segs: []string{"insert into t values (5)", "insert into t values (500)"},
		},
		{
			name:   "observable-stream",
			schema: "table t (v int)\ntable d (v int)",
			rules: `
create rule echo on t
when inserted, updated(v)
then insert into d select v from inserted; select v from d
`,
			seed: "insert into t values (1)",
			segs: []string{"insert into t values (2)", "update t set v = 9 where v = 1"},
		},
		// The three below are about reuse: the interpreter rebinds one
		// frame per scan and the compiled path builds matches and result
		// rows in scratch its Env keeps, which is only sound if nothing
		// holds on to a frame or a scratch row past its turn. Their
		// final states are worked out by hand, so the two paths agreeing
		// on a wrong answer would not pass.
		{
			// The innermost block reads the middle block's row and the
			// scanned row of the DELETE: p(3,1) and p(9,2) have no r.lim
			// above their id within their group's limits; p(1,1), p(2,2)
			// and p(5,2) do.
			name:   "correlated-delete-two-deep",
			schema: "table t (v int)\ntable p (id int, grp int)\ntable q (grp int, lim int)\ntable r (lim int)",
			rules: `
create rule prune on t
when inserted
then delete from p
     where exists (select 1 from q
                   where q.grp = p.grp
                     and exists (select 1 from r where r.lim = q.lim and r.lim > p.id));
     select id, grp from p
`,
			seed: "insert into p values (1, 1), (3, 1), (2, 2), (5, 2), (9, 2);\n" +
				"insert into q values (1, 2), (2, 4), (2, 6), (3, 100);\n" +
				"insert into r values (2), (6), (100)",
			segs: []string{"insert into t values (0)"},
			check: func(t *testing.T, run modeRun) {
				wantObservables(t, run, "-> (3,1) (9,2)")
			},
		},
		{
			// WHERE: an IN-subquery correlated to the scanned row holding
			// another one correlated to it too; SET: a correlated scalar
			// subquery, evaluated against the pre-update state for every
			// row. p(1,1): q.lim for grp 1 is {2}, r.lim >= 1 holds 2, and
			// id 1 is not in {2}; p(2,1) is, p(4,2) and p(6,2) are (grp 2:
			// {4, 6}), p(7,2) is not. The matched rows get their group's
			// q-row count: 1, 2, 2.
			name:   "correlated-update-two-deep",
			schema: "table t (v int)\ntable p (id int, grp int)\ntable q (grp int, lim int)\ntable r (lim int)",
			rules: `
create rule bump on t
when inserted
then update p set grp = 10 + (select count(*) from q where q.grp = p.grp)
     where id in (select q.lim from q
                  where q.grp = p.grp
                    and q.lim in (select r.lim from r where r.lim >= p.id));
     select id, grp from p
`,
			seed: "insert into p values (1, 1), (2, 1), (4, 2), (6, 2), (7, 2);\n" +
				"insert into q values (1, 2), (2, 4), (2, 6);\n" +
				"insert into r values (2), (4), (6), (7)",
			segs: []string{"insert into t values (0)"},
			check: func(t *testing.T, run modeRun) {
				wantObservables(t, run, "-> (1,1) (2,11) (4,12) (6,12) (7,2)")
			},
		},
		{
			// Both selects read the table they insert into and must see
			// it as it was before their statement's first insert: 2 rows
			// become 4, then the two new ones are doubled again to 6.
			name:   "insert-select-from-self",
			schema: "table t (v int)\ntable p (id int, grp int)",
			rules: `
create rule grow on t
when inserted
then insert into p select id + 100, grp from p;
     insert into p select * from p where id > 100;
     select id, grp from p
`,
			seed: "insert into p values (1, 1), (2, 2)",
			segs: []string{"insert into t values (0)"},
			check: func(t *testing.T, run modeRun) {
				wantObservables(t, run, "-> (1,1) (2,2) (101,1) (102,2) (101,1) (102,2)")
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sys, err := activerules.Load(tc.schema, tc.rules)
			if err != nil {
				t.Fatal(err)
			}
			ms := tc.maxSteps
			if ms == 0 {
				ms = 1000
			}
			run := diffModes(t, sys, tc.seed, tc.segs, twinOptions{maxSteps: ms})
			if tc.check != nil {
				tc.check(t, run)
			}
		})
	}
}

// wantObservables asserts the rows of the run's one observable event.
func wantObservables(t *testing.T, run modeRun, rows string) {
	t.Helper()
	if len(run.observables) != 1 || !strings.HasSuffix(run.observables[0], rows) {
		t.Errorf("observables = %q, want one event with rows %s", run.observables, rows)
	}
}

// TestCompileDifferentialUserShapes holds a compiled engine's user
// statements, which run through its shape cache, to the reference, which
// interprets them: runs of one shape with differing literals — nulls,
// negatives (a unary minus over a lifted literal), ints either side of
// 2⁵³, ints against floats, strings with quotes — shapes that differ
// only in a LIMIT or an IN-list's length, and failing statements, each
// followed by a statement of a shape already cached. Every script's
// results or error
// and the database after it must agree; a failing script must leave the
// database as it was.
func TestCompileDifferentialUserShapes(t *testing.T) {
	sys, err := activerules.Load("table t (id int, v int, f float, s string, b bool)\ntable log (id int)",
		"create rule r on t when updated(v) then insert into log select id from new-updated")
	if err != nil {
		t.Fatal(err)
	}
	const two53 = "9007199254740992"
	scripts := []struct {
		sql  string
		want string // the oracle's rendered results, when pinned
	}{
		{sql: "insert into t values (1, 10, 1.5, 'a', true), (2, 20, 2.5, 'b''c', false), (" + two53 + ", 1, 0.5, 'big', null)"},
		{sql: "insert into t values (9007199254740993, 2, 0.25, 'big1', true), (-4, null, null, null, null)"},
		// Nulls.
		{sql: "select id from t where v = 3"},
		{sql: "select id from t where v = null"},
		{sql: "update t set v = null where id = 1"},
		{sql: "update t set v = 11 where id = 1"},
		{sql: "select id from t where v is null"},
		// Negatives: a unary minus over a lifted literal.
		{sql: "select id from t where id = -4", want: "[{Rows:[[-4]] Affected:0 Rolled:false}]"},
		{sql: "select id from t where id = -1"},
		{sql: "select id from t where v > -100 order by id desc"},
		{sql: "update t set v = -5 where id = -4"},
		{sql: "update t set v = -(-6) where id = -4"},
		// Ints either side of 2⁵³ compare exactly.
		{sql: "select id from t where id = 9007199254740993", want: "[{Rows:[[9007199254740993]] Affected:0 Rolled:false}]"},
		{sql: "select id from t where id = " + two53, want: "[{Rows:[[" + two53 + "]] Affected:0 Rolled:false}]"},
		{sql: "select id from t where id = 9007199254740991", want: "[{Rows:[] Affected:0 Rolled:false}]"},
		{sql: "select id from t where id > " + two53, want: "[{Rows:[[9007199254740993]] Affected:0 Rolled:false}]"},
		{sql: "update t set v = v + 1 where id = 9007199254740993"},
		// Ints against floats.
		{sql: "select id from t where id = 2.0"},
		{sql: "select id from t where id = 2"},
		{sql: "select id from t where f = 2"},
		{sql: "select id from t where f = 2.5"},
		{sql: "select id from t where f < 9007199254740993 and id >= 2.5 order by id"},
		{sql: "update t set f = f + 1 where id = 1"},
		{sql: "update t set f = f + 1.5 where id = 2"},
		// Strings with quotes; bools.
		{sql: "select id from t where s = 'b''c'", want: "[{Rows:[[2]] Affected:0 Rolled:false}]"},
		{sql: "select id from t where s = 'a'"},
		{sql: "select id from t where s = ''''"},
		{sql: "insert into t values (5, 5, 5.5, 'it''s', false)"},
		{sql: "insert into t values (6, 6, 6.5, '''', true)"},
		{sql: "select id from t where s = ''''", want: "[{Rows:[[6]] Affected:0 Rolled:false}]"},
		{sql: "select id from t where b = true order by id"},
		{sql: "select id from t where b = false order by id"},
		// LIMITs and IN-list lengths are shapes of their own.
		{sql: "select id from t order by id limit 1"},
		{sql: "select id from t order by id limit 2"},
		{sql: "select id from t order by id limit 1"},
		{sql: "select id from t where id in (1, 2) order by id"},
		{sql: "select id from t where id in (1, 2, 9007199254740993) order by id"},
		{sql: "select id from t where id in (2, 1) order by id"},
		{sql: "select id from t where id not in (2, null)"},
		// Failures, each followed by a statement of a cached shape.
		{sql: "update t set v = 1 where id = 'x'"},
		{sql: "update t set v = 1 where id = 2"},
		{sql: "update t set v = v / 0 where id = 1"},
		{sql: "update t set v = v / 2 where id = 1"},
		{sql: "update t set w = 1 where id = 1"},
		{sql: "update t set v = 1 where id = 5"},
		{sql: "update t set v = 7 where id = 1; update t set v = v / 0 where id = 2"},
		{sql: "update t set v = 8 where id = 1; update t set v = v / 3 where id = 2"},
		{sql: "insert into t values (10, 'bad', 1.0, 'z', true)"},
		{sql: "insert into t values (7, 7, 7, 'x', null), (8, 8, 8.5, 'y', true)"},
		{sql: "insert into t (id, s) values (11, 'q'), (12, null), (13, 'it''s')"},
		{sql: "insert into t (id, s) values (14, 'q')"},
		{sql: "insert into t (id, s) values (15, -1)"},
		// A sweep: two int kernels under AND.
		{sql: "delete from t where v >= 5 and v < 8"},
		{sql: "delete from t where v >= 100 and v < 200"},
		{sql: "delete from t where id >= -10 and id < 2"},
	}
	var dbs [2][]string
	for mode, compiled := range []bool{false, true} {
		p := newSide(sys, compiled, activerules.EngineOptions{MaxSteps: 100})
		for _, sc := range scripts {
			before := p.DB().String()
			res, err := p.ExecUser(sc.sql)
			line := fmt.Sprintf("%+v", res)
			if err != nil {
				line = fmt.Sprintf("%T: %v", err, err)
				if p.DB().String() != before {
					t.Errorf("compiled=%v: %q failed and changed the database", compiled, sc.sql)
				}
			} else if _, err := p.Assert(); err != nil {
				line += fmt.Sprintf(" assert: %T: %v", err, err)
			}
			if !compiled && sc.want != "" && line != sc.want {
				t.Errorf("reference %q: %s, want %s", sc.sql, line, sc.want)
			}
			dbs[mode] = append(dbs[mode], line+"\n"+p.DB().String())
		}
	}
	for i, sc := range scripts {
		if dbs[0][i] != dbs[1][i] {
			t.Errorf("%q diverged:\n reference:\n%s\n compiled:\n%s", sc.sql, dbs[0][i], dbs[1][i])
		}
	}
}

// TestCompileDifferentialProbes holds point UPDATEs and DELETEs, which a
// compiled engine answers from an equality index, to the reference,
// whose interpreter never probes: as user SQL and as rule actions, on a unique int
// key and a string key held by two rows, beside nulls in the key
// column, after an UPDATE that rewrites the probed column, after a rule
// action's rollback and after Engine.Rollback (both savepoint
// rollbacks in storage), and with a WHERE that can error on another
// row. Every step's results or error, assertion outcome and database
// must agree. A "!" step calls the engine method it names.
func TestCompileDifferentialProbes(t *testing.T) {
	sys, err := activerules.Load("table acct (id int, owner string, bal int)\ntable ev (id int, amt int)", `
create rule credit on ev
when inserted
then update acct set bal = bal + 1 where id = 2; update acct set bal = bal - 1 where owner = 'bo'

create rule close on ev
when inserted
if exists (select 1 from inserted where amt < 0)
then delete from acct where id = 3

create rule guard on ev
when inserted
if exists (select 1 from inserted where amt > 100)
then rollback
`)
	if err != nil {
		t.Fatal(err)
	}
	const list = "select id, owner, bal from acct"
	steps := []string{
		"insert into acct values (1, 'al', 10), (2, 'bo', 20), (3, 'cy', 30), (4, 'bo', 40), (5, null, 0), (null, 'di', 1)",
		"!commit",
		"update acct set bal = bal + 5 where id = 1; " + list,
		"insert into ev values (1, 5); " + list,  // credit probes id 2 and scans 'bo'
		"insert into ev values (2, -1); " + list, // close probes id 3 away
		"!commit",
		"update acct set id = 7 where id = 2; update acct set bal = 1 where id = 7; update acct set bal = 2 where id = 2; " + list,
		"insert into ev values (3, 500)", // guard rolls the transaction back, the rewrite of id 2 with it
		"update acct set bal = 0 where id = 2; update acct set bal = 3 where id = 7; " + list,
		"delete from acct where id = 4; update acct set owner = 'bo' where id = 1; " + list,
		"!rollback",
		"update acct set bal = bal * 2 where id = 4; update acct set bal = bal + 1 where owner = 'bo'; update acct set bal = 9 where owner = 'al'; " + list,
		"update acct set bal = 1 where id = 1 and 10 / bal > 1", // bal is 0 on id 5
		"delete from acct where id = 2 and 10 / bal > 1",
	}
	var runs [2][]string
	for mode, compiled := range []bool{false, true} {
		p := newSide(sys, compiled, activerules.EngineOptions{MaxSteps: 100})
		for _, step := range steps {
			var line string
			switch step {
			case "!commit":
				line = fmt.Sprint(p.Commit())
			case "!rollback":
				line = fmt.Sprint(p.Rollback())
			default:
				res, err := p.ExecUser(step)
				line = fmt.Sprintf("%+v %v", res, err)
				if err == nil {
					ares, err := p.Assert()
					line += fmt.Sprintf(" assert: fired=%d rolledBack=%v %v", ares.Fired, ares.RolledBack, err)
				}
			}
			runs[mode] = append(runs[mode], line+"\n"+p.DB().String())
		}
	}
	for i, step := range steps {
		if runs[0][i] != runs[1][i] {
			t.Errorf("%q diverged:\n reference:\n%s\n compiled:\n%s", step, runs[0][i], runs[1][i])
		}
	}
	for i, want := range map[int]string{7: "rolledBack=true", 12: "division by zero", 13: "division by zero"} {
		if !strings.Contains(runs[0][i], want) {
			t.Errorf("%q: %s; want %s", steps[i], runs[0][i], want)
		}
	}
}

// TestCompileDifferentialProbesExplored model-checks rule actions that
// probe — each fork of the explorer starts without its parent's
// indexes; a fork's first probe of a column scans and its second (inc's
// delete) builds the fork's own index — with execgraph.Explore on the
// engine and with the exhaustive search over reference forks, and
// requires identical verdicts and final states. Without priorities the
// three rules' orders reach four final states.
func TestCompileDifferentialProbesExplored(t *testing.T) {
	sys, err := activerules.Load("table acct (id int, bal int)\ntable ev (v int)", `
create rule dbl on ev
when inserted
then update acct set bal = bal * 2 where id = 1

create rule inc on ev
when inserted
then update acct set bal = bal + 3 where id = 1; delete from acct where id = 2

create rule mv on ev
when inserted
then update acct set id = 20 where id = 2
`)
	if err != nil {
		t.Fatal(err)
	}
	prepare := func(p processor) {
		if _, err := p.ExecUser("insert into acct values (1, 10), (2, 20), (3, 30)"); err != nil {
			t.Fatal(err)
		}
		if err := p.Commit(); err != nil {
			t.Fatal(err)
		}
		if _, err := p.ExecUser("update acct set bal = 11 where id = 1; insert into ev values (1)"); err != nil {
			t.Fatal(err)
		}
	}
	opts := activerules.EngineOptions{MaxSteps: 100}
	ref := newSide(sys, false, opts)
	prepare(ref)
	oracle := exploreReference(t, ref.(*engine.Reference), false, 10000)
	if len(oracle.finals) != 4 {
		t.Fatalf("the reference search reached %d final states, want 4", len(oracle.finals))
	}
	eng := newSide(sys, true, opts)
	prepare(eng)
	if got := exploreEngine(t, eng.(*engine.Engine), activerules.ExploreOptions{MaxStates: 10000}); !reflect.DeepEqual(got, oracle) {
		t.Errorf("compiled exploration: %+v; reference: %+v", got, oracle)
	}
}

// explored is what the differentials compare of an exhaustive
// exploration: whether every path ends, the distinct final database
// fingerprints and (when tracked) the distinct observable streams,
// each sorted.
type explored struct {
	terminates bool
	finals     [][32]byte
	streams    []string
}

// exploreEngine runs execgraph.Explore on eng.
func exploreEngine(t *testing.T, eng *engine.Engine, opts activerules.ExploreOptions) explored {
	t.Helper()
	res, err := activerules.Explore(eng, opts)
	if err != nil {
		t.Fatal(err)
	}
	return explored{terminates: res.Terminates(), finals: res.FinalFingerprints(), streams: res.StreamRenderings()}
}

// exploreReference is the explorer's oracle, written apart from
// internal/execgraph: a depth-first search over forks of ref from its
// assertion point's initial state that considers every eligible rule of
// every state, keys states by the reference's own state identity (the
// observable history added when track is set), reports a revisit on the
// current path as a cycle, and collects the final databases and
// observable streams of the paths that end. More than maxStates states
// make it inconclusive.
func exploreReference(t *testing.T, ref *engine.Reference, track bool, maxStates int) explored {
	t.Helper()
	finals, streams := map[[32]byte]bool{}, map[string]bool{}
	done, onPath := map[string]bool{}, map[string]bool{}
	cycle, bound := false, false
	final := func(p *engine.Reference, stream string) {
		finals[p.DB().Fingerprint()] = true
		if track {
			streams[stream] = true
		}
	}
	var visit func(p *engine.Reference, stream string)
	visit = func(p *engine.Reference, stream string) {
		key := p.StateKey()
		if track && stream != "" {
			key += "#" + stream
		}
		switch {
		case onPath[key]:
			cycle = true
			return
		case done[key]:
			return
		case len(done) >= maxStates:
			bound = true
			return
		}
		onPath[key] = true
		defer func() { delete(onPath, key); done[key] = true }()
		eligible := p.EligibleRules()
		if len(eligible) == 0 {
			final(p, stream)
			return
		}
		for _, r := range eligible {
			fork := p.Clone()
			_, events, rolled, err := fork.Consider(r)
			if err != nil {
				t.Fatalf("reference search: considering %s: %v", r.Name, err)
			}
			next := stream
			for _, ev := range events {
				next += ev.String() + "\n"
			}
			if rolled {
				final(fork, next)
				continue
			}
			visit(fork, next)
		}
	}
	root := ref.Clone()
	root.BeginAssert()
	visit(root, "")
	out := explored{terminates: !cycle && !bound, finals: [][32]byte{}, streams: []string{}}
	for fp := range finals {
		out.finals = append(out.finals, fp)
	}
	sort.Slice(out.finals, func(i, j int) bool { return string(out.finals[i][:]) < string(out.finals[j][:]) })
	for s := range streams {
		out.streams = append(out.streams, s)
	}
	sort.Strings(out.streams)
	return out
}
