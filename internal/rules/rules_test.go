package rules

import (
	"strings"
	"testing"

	"activerules/internal/schema"
)

func bankSchema() *schema.Schema {
	return schema.MustParse(`
table account (id int, owner string, balance float)
table audit   (id int, msg string)
table holds   (id int, acct int)
`)
}

// bankDefs builds a small, realistic rule set:
//
//	r_audit: log every new account          (triggered by insert on account)
//	r_hold:  place a hold on overdrawn accounts (update balance -> insert holds)
//	r_purge: drop holds of deleted accounts (delete on account -> delete holds)
//	r_guard: rollback on negative audit ids (observable)
func bankDefs() []Definition {
	return []Definition{
		{
			Name: "r_audit", Table: "account",
			Triggers: []TriggerSpec{{Kind: schema.OpInsert}},
			Action:   []string{"insert into audit select id, owner from inserted"},
		},
		{
			Name: "r_hold", Table: "account",
			Triggers:  []TriggerSpec{{Kind: schema.OpUpdate, Columns: []string{"balance"}}},
			Condition: "exists (select 1 from new-updated nu where nu.balance < 0)",
			Action:    []string{"insert into holds select id, id from new-updated nu where nu.balance < 0"},
		},
		{
			Name: "r_purge", Table: "account",
			Triggers: []TriggerSpec{{Kind: schema.OpDelete}},
			Action:   []string{"delete from holds where acct in (select id from deleted)"},
			Follows:  []string{"r_audit"},
		},
		{
			Name: "r_guard", Table: "audit",
			Triggers:  []TriggerSpec{{Kind: schema.OpInsert}},
			Condition: "exists (select 1 from inserted where id < 0)",
			Action:    []string{"rollback"},
			Precedes:  []string{"r_hold"},
		},
	}
}

// TestWithoutMatchesNamesLikeNewSet: deactivation compares names the way
// NewSet normalizes them, whatever case or padding the definition, the
// priority reference or the caller used; the reduced set validates.
func TestWithoutMatchesNamesLikeNewSet(t *testing.T) {
	defs := bankDefs()
	defs[0].Name = "R_Audit"
	defs[2].Follows = []string{" r_AUDIT "}
	kept := Without(defs, "r_audit ", "R_GUARD")
	var names []string
	for _, d := range kept {
		names = append(names, d.Name)
		if len(d.Precedes)+len(d.Follows) != 0 {
			t.Errorf("%s keeps a priority reference to a deactivated rule: %v %v", d.Name, d.Precedes, d.Follows)
		}
	}
	if strings.Join(names, " ") != "r_hold r_purge" {
		t.Fatalf("kept %v, want [r_hold r_purge]", names)
	}
	if _, err := NewSet(bankSchema(), kept); err != nil {
		t.Fatalf("reduced set: %v", err)
	}
	if got := Without(defs); len(got) != len(defs) {
		t.Errorf("Without() kept %d of %d definitions", len(got), len(defs))
	}
}

func bankSet(t *testing.T) *Set {
	t.Helper()
	s, err := NewSet(bankSchema(), bankDefs())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCompileBasics(t *testing.T) {
	s := bankSet(t)
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	r := s.Rule("R_AUDIT") // case-insensitive
	if r == nil || r.Table != "account" {
		t.Fatal("rule lookup failed")
	}
	if got := r.TriggeredBy().String(); got != "{(I,account)}" {
		t.Errorf("TriggeredBy(r_audit) = %s", got)
	}
	if got := r.Performs().String(); got != "{(I,audit)}" {
		t.Errorf("Performs(r_audit) = %s", got)
	}
	// Reads: transition-table columns charged to account.
	if got := r.Reads().String(); got != "{account.id, account.owner}" {
		t.Errorf("Reads(r_audit) = %s", got)
	}
	if r.Observable() {
		t.Error("r_audit is not observable")
	}
	if !s.Rule("r_guard").Observable() {
		t.Error("r_guard (rollback) is observable")
	}
}

func TestTriggeredByUpdatedAllColumns(t *testing.T) {
	s, err := NewSet(bankSchema(), []Definition{{
		Name: "r", Table: "account",
		Triggers: []TriggerSpec{{Kind: schema.OpUpdate}},
		Action:   []string{"delete from holds"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	got := s.Rule("r").TriggeredBy()
	if got.Len() != 3 { // one (U,account.c) per column
		t.Errorf("bare updated should expand to all columns: %s", got)
	}
}

func TestTriggersRelation(t *testing.T) {
	s := bankSet(t)
	// r_audit inserts into audit, which triggers r_guard.
	got := Names(s.Triggers(s.Rule("r_audit")))
	if len(got) != 1 || got[0] != "r_guard" {
		t.Errorf("Triggers(r_audit) = %v", got)
	}
	// r_hold inserts into holds: triggers nothing.
	if n := len(s.Triggers(s.Rule("r_hold"))); n != 0 {
		t.Errorf("Triggers(r_hold) has %d rules", n)
	}
	if !s.CanTrigger(s.Rule("r_audit"), s.Rule("r_guard")) {
		t.Error("CanTrigger(r_audit, r_guard) should hold")
	}
}

func TestCanUntrigger(t *testing.T) {
	s := bankSet(t)
	// r_purge deletes from holds; it cannot untrigger r_audit.
	if s.CanBeUntriggeredBy(s.Rule("r_audit"), s.Rule("r_purge")) {
		t.Error("r_purge cannot untrigger r_audit")
	}
	// A deletion from account can untrigger the rules triggered by
	// inserts or updates on account, r_audit and r_hold, and no other.
	defs := append(bankDefs(), Definition{
		Name: "r_close", Table: "audit",
		Triggers: []TriggerSpec{{Kind: schema.OpInsert}},
		Action:   []string{"delete from account"},
	})
	s, err := NewSet(bankSchema(), defs)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range s.Rules() {
		if s.CanBeUntriggeredBy(r, s.Rule("r_close")) {
			got = append(got, r.Name)
		}
	}
	if strings.Join(got, ",") != "r_audit,r_hold" {
		t.Errorf("r_close can untrigger %v, want [r_audit r_hold]", got)
	}
}

func TestPriorities(t *testing.T) {
	s := bankSet(t)
	// r_guard precedes r_hold; r_purge follows r_audit (so r_audit higher).
	if !s.Higher(s.Rule("r_guard"), s.Rule("r_hold")) {
		t.Error("r_guard > r_hold expected")
	}
	if !s.Higher(s.Rule("r_audit"), s.Rule("r_purge")) {
		t.Error("r_audit > r_purge expected")
	}
	if s.Higher(s.Rule("r_hold"), s.Rule("r_guard")) {
		t.Error("ordering should be antisymmetric")
	}
	if !s.Unordered(s.Rule("r_audit"), s.Rule("r_hold")) {
		t.Error("r_audit and r_hold are unordered")
	}
	if s.Unordered(s.Rule("r_audit"), s.Rule("r_audit")) {
		t.Error("a rule is not unordered with itself")
	}
}

func TestTransitivePriorities(t *testing.T) {
	defs := []Definition{
		{Name: "a", Table: "audit", Triggers: []TriggerSpec{{Kind: schema.OpInsert}},
			Action: []string{"delete from audit"}, Precedes: []string{"b"}},
		{Name: "b", Table: "audit", Triggers: []TriggerSpec{{Kind: schema.OpInsert}},
			Action: []string{"delete from audit"}, Precedes: []string{"c"}},
		{Name: "c", Table: "audit", Triggers: []TriggerSpec{{Kind: schema.OpInsert}},
			Action: []string{"delete from audit"}},
	}
	s, err := NewSet(bankSchema(), defs)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Higher(s.Rule("a"), s.Rule("c")) {
		t.Error("transitivity: a > c")
	}
}

func TestPriorityCycleRejected(t *testing.T) {
	defs := []Definition{
		{Name: "a", Table: "audit", Triggers: []TriggerSpec{{Kind: schema.OpInsert}},
			Action: []string{"delete from audit"}, Precedes: []string{"b"}},
		{Name: "b", Table: "audit", Triggers: []TriggerSpec{{Kind: schema.OpInsert}},
			Action: []string{"delete from audit"}, Precedes: []string{"a"}},
	}
	if _, err := NewSet(bankSchema(), defs); err == nil {
		t.Error("priority cycle should be rejected")
	}
}

func TestChoose(t *testing.T) {
	s := bankSet(t)
	guard, hold, audit := s.Rule("r_guard"), s.Rule("r_hold"), s.Rule("r_audit")
	got := Names(s.Choose(nil, []*Rule{hold, guard, audit}, nil))
	// r_guard > r_hold, so r_hold is ineligible while r_guard is triggered.
	if strings.Join(got, ",") != "r_guard,r_audit" {
		t.Errorf("Choose = %v", got)
	}
	got2 := Names(s.Choose(nil, []*Rule{hold, audit}, nil))
	if strings.Join(got2, ",") != "r_hold,r_audit" {
		t.Errorf("Choose without guard = %v", got2)
	}
}

func TestUnorderedPairs(t *testing.T) {
	s := bankSet(t)
	pairs := s.UnorderedPairs()
	// 4 rules = 6 pairs; 2 ordered (guard>hold, audit>purge) => 4 unordered.
	if len(pairs) != 4 {
		t.Errorf("UnorderedPairs = %d, want 4", len(pairs))
	}
}

func TestWithOrdering(t *testing.T) {
	s := bankSet(t)
	s2, err := s.WithOrdering([2]string{"r_audit", "r_hold"})
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Higher(s2.Rule("r_audit"), s2.Rule("r_hold")) {
		t.Error("added ordering missing")
	}
	if s.Higher(s.Rule("r_audit"), s.Rule("r_hold")) {
		t.Error("WithOrdering mutated the original set")
	}
	// Adding an ordering that closes a cycle is rejected.
	if _, err := s2.WithOrdering([2]string{"r_hold", "r_audit"}); err == nil {
		t.Error("cycle via WithOrdering should be rejected")
	}
	if _, err := s.WithOrdering([2]string{"nosuch", "r_hold"}); err == nil {
		t.Error("unknown rule should be rejected")
	}
	if _, err := s.WithOrdering([2]string{"r_hold", "r_hold"}); err == nil {
		t.Error("self ordering should be rejected")
	}
}

func TestObservableRulesAndWriters(t *testing.T) {
	s := bankSet(t)
	if got := Names(s.ObservableRules()); len(got) != 1 || got[0] != "r_guard" {
		t.Errorf("ObservableRules = %v", got)
	}
}

func TestCompileErrors(t *testing.T) {
	mk := func(mod func(*Definition)) []Definition {
		d := Definition{
			Name: "r", Table: "account",
			Triggers: []TriggerSpec{{Kind: schema.OpInsert}},
			Action:   []string{"delete from holds"},
		}
		mod(&d)
		return []Definition{d}
	}
	cases := []struct {
		name string
		defs []Definition
	}{
		{"empty name", mk(func(d *Definition) { d.Name = " " })},
		{"unknown table", mk(func(d *Definition) { d.Table = "nosuch" })},
		{"no triggers", mk(func(d *Definition) { d.Triggers = nil })},
		{"bad trigger column", mk(func(d *Definition) {
			d.Triggers = []TriggerSpec{{Kind: schema.OpUpdate, Columns: []string{"nope"}}}
		})},
		{"columns on insert trigger", mk(func(d *Definition) {
			d.Triggers = []TriggerSpec{{Kind: schema.OpInsert, Columns: []string{"id"}}}
		})},
		{"duplicate insert trigger", mk(func(d *Definition) {
			d.Triggers = []TriggerSpec{{Kind: schema.OpInsert}, {Kind: schema.OpInsert}}
		})},
		{"bad condition", mk(func(d *Definition) { d.Condition = "not valid sql ((" })},
		{"condition wrong trans table", mk(func(d *Definition) {
			d.Condition = "exists (select 1 from deleted)" // insert-triggered rule
		})},
		{"no action", mk(func(d *Definition) { d.Action = nil })},
		{"bad action", mk(func(d *Definition) { d.Action = []string{"drop table holds"} })},
		{"action type error", mk(func(d *Definition) {
			d.Action = []string{"update account set balance = 'oops'"}
		})},
		{"condition type error", mk(func(d *Definition) {
			d.Condition = "(select count(*) from audit)" // int, not boolean
		})},
		{"action resolve error", mk(func(d *Definition) { d.Action = []string{"delete from nosuch"} })},
		{"unknown precedes", mk(func(d *Definition) { d.Precedes = []string{"ghost"} })},
		{"unknown follows", mk(func(d *Definition) { d.Follows = []string{"ghost"} })},
		{"self precedes", mk(func(d *Definition) { d.Precedes = []string{"r"} })},
		{"duplicate rule", append(mk(func(d *Definition) {}), mk(func(d *Definition) {})...)},
	}
	for _, c := range cases {
		if _, err := NewSet(bankSchema(), c.defs); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestRuleStringRendering(t *testing.T) {
	s := bankSet(t)
	out := s.Rule("r_hold").String()
	for _, want := range []string{"create rule r_hold on account", "when updated(balance)", "if exists", "then insert into holds"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
	out2 := s.Rule("r_purge").String()
	if !strings.Contains(out2, "follows r_audit") {
		t.Errorf("String() missing follows clause:\n%s", out2)
	}
	if got := (TriggerSpec{Kind: schema.OpUpdate}).String(); got != "updated" {
		t.Errorf("bare updated spec = %q", got)
	}
}
