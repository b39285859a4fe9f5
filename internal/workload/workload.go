// Package workload generates synthetic schemas, rule sets, databases,
// and user operation scripts for the experiments of EXPERIMENTS.md. The
// paper has no public rule corpus (its authors analyzed internal
// applications by hand, Section 6.4), so parameterized random generation
// stands in: rule count, trigger-graph topology (acyclic or not), write
// conflict rate, priority density, and observable fraction are all
// controlled, and every generator is deterministic for a fixed seed.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"activerules/internal/rules"
	"activerules/internal/schema"
	"activerules/internal/storage"
)

// Config parameterizes generation.
type Config struct {
	Seed int64

	// Tables is the number of tables (each has columns id, v). At least
	// 2; defaults to max(2, Rules/2).
	Tables int

	// Rules is the number of rules to generate.
	Rules int

	// Acyclic forces an acyclic triggering graph: a rule on table ti
	// only writes tables with a strictly larger index. With Acyclic
	// false, writes may target any table, so triggering cycles appear as
	// density allows.
	Acyclic bool

	// WriteFanout is the number of statements per rule action (1..n);
	// defaults to 1.
	WriteFanout int

	// UpdateFrac / DeleteFrac set the probability that an action
	// statement is an update / delete (remainder: insert).
	UpdateFrac, DeleteFrac float64

	// ConditionFrac is the probability a rule has a condition.
	ConditionFrac float64

	// PriorityDensity is the probability that a pair of rules (i < j)
	// receives an ordering i-precedes-j. Orientation by index keeps P
	// acyclic.
	PriorityDensity float64

	// ObservableFrac is the probability a rule's action ends with an
	// observable SELECT.
	ObservableFrac float64

	// TransRefFrac is the probability that a rule's condition and first
	// action statement reference its transition tables (inserted /
	// deleted / new-updated), exercising the set-oriented semantics.
	TransRefFrac float64

	// CyclicShapes appends, after the random rules, one hand-shaped
	// cyclic-but-terminating pattern per entry — "countdown" (a
	// column-stepped monotone countdown, discharged by the tier-2
	// ranking argument), "drain" (a delete-only cycle with a provably
	// out-of-scope refill), "converge" (an idempotent key-bounded
	// update). Each shape lives on its own fresh tables, so it never
	// perturbs the random part, and the knob consumes no randomness:
	// generation with it unset stays byte-identical.
	CyclicShapes []string

	// ValueFloor, when positive, lifts every constant written by the
	// generated insert and update statements by that amount. Generated
	// condition bounds live in [40, 60), so a floor of 60 or more makes
	// every written constant provably violate every condition — food
	// for condition-aware refinement. Zero (the default) leaves
	// generation byte-identical to earlier releases; the knob consumes
	// no randomness either way.
	ValueFloor int
}

func (c Config) withDefaults() Config {
	if c.Tables < 2 {
		c.Tables = c.Rules / 2
		if c.Tables < 2 {
			c.Tables = 2
		}
	}
	if c.WriteFanout < 1 {
		c.WriteFanout = 1
	}
	return c
}

// Generated bundles a generated workload.
type Generated struct {
	Schema *schema.Schema
	Defs   []rules.Definition
	Set    *rules.Set
}

// Generate produces a compiled random rule set. It panics only on
// internal generator bugs (generated definitions must always compile).
func Generate(cfg Config) (*Generated, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	b := schema.NewBuilder()
	for i := 0; i < cfg.Tables; i++ {
		b.Table(tableName(i), schema.Col("id", schema.Int), schema.Col("v", schema.Int))
	}
	shapes := map[string]bool{}
	for _, shape := range cfg.CyclicShapes {
		if shapes[shape] {
			continue
		}
		shapes[shape] = true
		switch shape {
		case "countdown":
			b.Table("cd_cnt", schema.Col("id", schema.Int), schema.Col("v", schema.Int), schema.Col("step", schema.Int))
		case "drain":
			b.Table("dr_pool", schema.Col("id", schema.Int), schema.Col("v", schema.Int))
		case "converge":
			b.Table("cv_keyd", schema.Col("id", schema.Int), schema.Col("v", schema.Int))
		default:
			return nil, fmt.Errorf("workload: unknown cyclic shape %q (want countdown, drain, or converge)", shape)
		}
	}
	sch, err := b.Build()
	if err != nil {
		return nil, err
	}

	defs := make([]rules.Definition, 0, cfg.Rules)
	for k := 0; k < cfg.Rules; k++ {
		defs = append(defs, genRule(cfg, rng, k))
	}
	// Priorities: orient from lower to higher rule index (always
	// acyclic).
	for i := 0; i < cfg.Rules; i++ {
		for j := i + 1; j < cfg.Rules; j++ {
			if rng.Float64() < cfg.PriorityDensity {
				defs[i].Precedes = append(defs[i].Precedes, ruleName(j))
			}
		}
	}
	// The cyclic shapes go AFTER every random draw above, so a config
	// with the knob unset generates byte-identical output (the
	// ValueFloor convention).
	for _, shape := range cfg.CyclicShapes {
		if shapes[shape] {
			shapes[shape] = false // emit each shape once
			defs = append(defs, shapeDefs(shape)...)
		}
	}
	set, err := rules.NewSet(sch, defs)
	if err != nil {
		return nil, fmt.Errorf("workload: generated defs failed to compile: %w", err)
	}
	return &Generated{Schema: sch, Defs: defs, Set: set}, nil
}

// MustGenerate is Generate, panicking on error.
func MustGenerate(cfg Config) *Generated {
	g, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

func tableName(i int) string { return fmt.Sprintf("t%d", i) }
func ruleName(k int) string  { return fmt.Sprintf("r%d", k) }

// shapeDefs returns the hand-shaped cyclic-but-terminating rules for
// one CyclicShapes entry. Each shape is rejected by acyclicity alone
// (it self-triggers) but carries a tier-2 discharge certificate; see
// the testdata fixtures of the same names.
func shapeDefs(shape string) []rules.Definition {
	updV := []rules.TriggerSpec{{Kind: schema.OpUpdate, Columns: []string{"v"}}}
	del := []rules.TriggerSpec{{Kind: schema.OpDelete}}
	switch shape {
	case "countdown":
		return []rules.Definition{{
			Name: "cd_dec", Table: "cd_cnt", Triggers: updV,
			Action: []string{"update cd_cnt set v = v - step where v > 0 and step >= 1"},
		}}
	case "drain":
		return []rules.Definition{{
			Name: "dr_drain", Table: "dr_pool", Triggers: del,
			Action: []string{"delete from dr_pool where v >= 0"},
		}, {
			Name: "dr_echo", Table: "dr_pool", Triggers: del,
			Action: []string{"insert into dr_pool values (9, -5)"},
		}}
	case "converge":
		return []rules.Definition{{
			Name: "cv_set", Table: "cv_keyd", Triggers: updV,
			Action: []string{"update cv_keyd set v = 1 where v = 0"},
		}}
	}
	return nil
}

// genRule produces one rule definition. The rule watches a home table
// and writes 1..WriteFanout target tables.
func genRule(cfg Config, rng *rand.Rand, k int) rules.Definition {
	home := rng.Intn(cfg.Tables)
	if cfg.Acyclic && home == cfg.Tables-1 {
		home = rng.Intn(cfg.Tables - 1) // leave at least one higher table
	}
	def := rules.Definition{
		Name:  ruleName(k),
		Table: tableName(home),
	}
	// Trigger: one random operation kind, remembering which transition
	// table it makes legal.
	var transTable string
	switch rng.Intn(3) {
	case 0:
		def.Triggers = []rules.TriggerSpec{{Kind: schema.OpInsert}}
		transTable = "inserted"
	case 1:
		def.Triggers = []rules.TriggerSpec{{Kind: schema.OpDelete}}
		transTable = "deleted"
	default:
		def.Triggers = []rules.TriggerSpec{{Kind: schema.OpUpdate, Columns: []string{"v"}}}
		transTable = "new-updated"
	}
	useTrans := rng.Float64() < cfg.TransRefFrac

	if rng.Float64() < cfg.ConditionFrac {
		if useTrans {
			def.Condition = fmt.Sprintf("exists (select 1 from %s where v < %d)", transTable, 40+rng.Intn(20))
		} else {
			def.Condition = fmt.Sprintf("exists (select 1 from %s where v < %d)", tableName(home), 40+rng.Intn(20))
		}
	}

	nStmts := 1 + rng.Intn(cfg.WriteFanout)
	var action string
	for s := 0; s < nStmts; s++ {
		target := rng.Intn(cfg.Tables)
		if cfg.Acyclic {
			// Only write strictly higher tables to keep TG_R acyclic.
			target = home + 1 + rng.Intn(cfg.Tables-home-1)
		}
		if s > 0 {
			action += "; "
		}
		if s == 0 && useTrans {
			// A set-oriented statement over the triggering transition.
			action += fmt.Sprintf("insert into %s select id, v from %s where v < %d",
				tableName(target), transTable, 60+rng.Intn(40))
			continue
		}
		p := rng.Float64()
		switch {
		case p < cfg.DeleteFrac:
			action += fmt.Sprintf("delete from %s where v < %d", tableName(target), rng.Intn(3)-3)
		case p < cfg.DeleteFrac+cfg.UpdateFrac:
			action += fmt.Sprintf("update %s set v = %d where id = %d",
				tableName(target), cfg.ValueFloor+rng.Intn(100), rng.Intn(5))
		default:
			action += fmt.Sprintf("insert into %s values (%d, %d)",
				tableName(target), rng.Intn(5), cfg.ValueFloor+rng.Intn(100))
		}
	}
	if rng.Float64() < cfg.ObservableFrac {
		action += fmt.Sprintf("; select v from %s where id = %d", tableName(home), rng.Intn(5))
	}
	def.Action = []string{action}
	return def
}

// SeedDatabase populates a database with n rows per table (ids 0..n-1,
// v = id), deterministically. Columns beyond the first two are padded
// with 1 — in particular cd_cnt.step = 1 satisfies the countdown
// shape's step >= 1 scope.
func SeedDatabase(sch *schema.Schema, n int) *storage.DB {
	db := storage.NewDB(sch)
	for _, t := range sch.TableNames() {
		cols := len(sch.Table(t).Columns)
		for i := 0; i < n; i++ {
			vals := []storage.Value{storage.IntV(int64(i)), storage.IntV(int64(i))}
			for len(vals) < cols {
				vals = append(vals, storage.IntV(1))
			}
			db.MustInsert(t, vals...)
		}
	}
	return db
}

// UserScript produces a small deterministic user transition touching the
// first nOps tables (one insert or update each), suitable as the initial
// transition for model checking.
func UserScript(sch *schema.Schema, rng *rand.Rand, nOps int) string {
	tables := sch.TableNames()
	script := ""
	for i := 0; i < nOps; i++ {
		t := tables[rng.Intn(len(tables))]
		if script != "" {
			script += "; "
		}
		switch rng.Intn(3) {
		case 0:
			script += fmt.Sprintf("insert into %s values (%d, %d)", t, 100+i, rng.Intn(50))
		case 1:
			script += fmt.Sprintf("update %s set v = %d where id = %d", t, rng.Intn(50), rng.Intn(3))
		default:
			script += fmt.Sprintf("delete from %s where id = %d", t, rng.Intn(3))
		}
	}
	return script
}

// CascadeSources restates the benchmark's serve_cascade rule system
// (bench/gen.go's cascadeSources; bench/ is a module of its own): ten
// idle bank clusters, a 24-deep chain copying the inserted set one table
// down per rule, and 8 unordered fan-out rules on the chain head — 62
// rules, 32 of them considered per insert into the chain head. tables
// lists the chain's and the fan-out's tables.
func CascadeSources() (schemaSrc, rulesSrc string, tables []string) {
	const idle, depth, fanout = 10, 24, 8
	var sch, rl strings.Builder
	for i := 0; i < idle; i++ {
		fmt.Fprintf(&sch, "table account%d (id int, owner string, balance float)\n", i)
		fmt.Fprintf(&sch, "table audit%d (id int, owner string)\n", i)
		fmt.Fprintf(&sch, "table holds%d (id int, acct int)\n", i)
		fmt.Fprintf(&rl, "create rule r_audit%d on account%d\nwhen inserted\nthen insert into audit%d select id, owner from inserted\n\n", i, i, i)
		fmt.Fprintf(&rl, "create rule r_hold%d on account%d\nwhen updated(balance)\nif exists (select 1 from new-updated nu where nu.balance < 0)\nthen insert into holds%d select nu.id, nu.id from new-updated nu where nu.balance < 0\n\n", i, i, i)
		fmt.Fprintf(&rl, "create rule r_purge%d on account%d\nwhen deleted\nthen delete from holds%d where acct in (select id from deleted)\n\n", i, i, i)
	}
	for i := 0; i <= depth; i++ {
		tables = append(tables, fmt.Sprintf("c%d", i))
	}
	for j := 0; j < fanout; j++ {
		tables = append(tables, fmt.Sprintf("f%d", j))
	}
	for _, t := range tables {
		fmt.Fprintf(&sch, "table %s (v int)\n", t)
	}
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&rl, "create rule chain%02d on c%d\nwhen inserted\nif exists (select 1 from inserted where v >= 0)\nthen insert into c%d select v from inserted\n\n", i, i, i+1)
	}
	for j := 0; j < fanout; j++ {
		fmt.Fprintf(&rl, "create rule fan%d on c0\nwhen inserted\nthen insert into f%d select v from inserted where v >= 0\n\n", j, j)
	}
	return sch.String(), rl.String(), tables
}
