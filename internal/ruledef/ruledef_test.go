package ruledef

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"activerules/internal/rules"
	"activerules/internal/schema"
)

const sampleRules = `
-- Audit every new account.
create rule r_audit on account
when inserted
then insert into audit select id, owner from inserted

create rule r_hold on account
when updated(balance), deleted
if exists (select 1 from new-updated nu where nu.balance < 0)
then insert into holds select id, id from new-updated nu where nu.balance < 0;
     delete from holds where acct not in (select id from account)
precedes r_audit
follows r_guard

create rule r_guard on audit
when inserted
then rollback
`

func testSchema() *schema.Schema {
	return schema.MustParse(`
table account (id int, owner string, balance float)
table audit   (id int, owner string)
table holds   (id int, acct int)
`)
}

func TestParseSample(t *testing.T) {
	defs, err := Parse(sampleRules)
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) != 3 {
		t.Fatalf("parsed %d rules, want 3", len(defs))
	}
	a := defs[0]
	if a.Name != "r_audit" || a.Table != "account" || len(a.Triggers) != 1 ||
		a.Triggers[0].Kind != schema.OpInsert || a.Condition != "" {
		t.Errorf("r_audit = %+v", a)
	}
	h := defs[1]
	if len(h.Triggers) != 2 || h.Triggers[0].Kind != schema.OpUpdate ||
		h.Triggers[0].Columns[0] != "balance" || h.Triggers[1].Kind != schema.OpDelete {
		t.Errorf("r_hold triggers = %+v", h.Triggers)
	}
	if !strings.HasPrefix(h.Condition, "exists") {
		t.Errorf("condition = %q", h.Condition)
	}
	if len(h.Precedes) != 1 || h.Precedes[0] != "r_audit" ||
		len(h.Follows) != 1 || h.Follows[0] != "r_guard" {
		t.Errorf("ordering clauses = %v / %v", h.Precedes, h.Follows)
	}
	if !strings.Contains(h.Action[0], ";") {
		t.Errorf("multi-statement action lost: %q", h.Action[0])
	}
}

func TestParsedDefsCompile(t *testing.T) {
	defs := MustParse(sampleRules)
	set, err := rules.NewSet(testSchema(), defs)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 3 {
		t.Fatalf("compiled %d rules", set.Len())
	}
	h := set.Rule("r_hold")
	if len(h.Action) != 2 {
		t.Errorf("r_hold action statements = %d, want 2", len(h.Action))
	}
	if !set.Higher(h, set.Rule("r_audit")) {
		t.Error("precedes clause lost")
	}
	if !set.Higher(set.Rule("r_guard"), h) {
		t.Error("follows clause lost")
	}
}

func TestRoundTripThroughRuleString(t *testing.T) {
	// Rule.String() output must reparse to an equivalent definition.
	set, err := rules.NewSet(testSchema(), MustParse(sampleRules))
	if err != nil {
		t.Fatal(err)
	}
	var all []string
	for _, r := range set.Rules() {
		all = append(all, r.String())
	}
	defs, err := Parse(strings.Join(all, "\n\n"))
	if err != nil {
		t.Fatalf("reparse of printed set failed: %v\n%s", err, strings.Join(all, "\n\n"))
	}
	set2, err := rules.NewSet(testSchema(), defs)
	if err != nil {
		t.Fatalf("recompile of printed set failed: %v", err)
	}
	for _, r := range set.Rules() {
		r2 := set2.Rule(r.Name)
		if r2 == nil {
			t.Errorf("rule %q lost in round trip", r.Name)
			continue
		}
		if r2.TriggeredBy().String() != r.TriggeredBy().String() ||
			r2.Performs().String() != r.Performs().String() ||
			r2.Reads().String() != r.Reads().String() {
			t.Errorf("rule %q changed across round trip", r.Name)
		}
		if set.Higher(r, set.Rule("r_audit")) != set2.Higher(r2, set2.Rule("r_audit")) {
			t.Errorf("priorities for %q changed across round trip", r.Name)
		}
	}
}

func TestConditionMayContainParenthesizedKeywords(t *testing.T) {
	// "then"-like words inside parentheses or strings must not terminate
	// sections.
	src := `
create rule r on audit
when inserted
if exists (select 1 from inserted where owner = 'then create precedes')
then insert into audit values (1, 'follows')
`
	defs, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(defs[0].Condition, "'then create precedes'") {
		t.Errorf("condition = %q", defs[0].Condition)
	}
	if !strings.Contains(defs[0].Action[0], "'follows'") {
		t.Errorf("action = %q", defs[0].Action[0])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"create r on t when inserted then rollback",                            // missing 'rule'
		"create rule r when inserted then rollback",                            // missing 'on'
		"create rule r on t then rollback",                                     // missing 'when'
		"create rule r on t when exploded then rollback",                       // bad trigger
		"create rule r on t when updated( then rollback",                       // unbalanced
		"create rule r on t when inserted if then rollback",                    // empty condition
		"create rule r on t when inserted then",                                // empty action
		"create rule r on t when inserted then rollback precedes",              // empty list
		"create rule r on t when inserted then rollback precedes a precedes b", // dup clause
		"create rule r on t when inserted then insert into u values ('oops)",   // unterminated string
		"create rule r on t when updated(a,) then rollback",                    // trailing comma
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestMultipleRulesBoundaries(t *testing.T) {
	src := `
create rule a on t when inserted then delete from t
create rule b on t when deleted then insert into t values (1)
`
	defs, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) != 2 {
		t.Fatalf("got %d defs", len(defs))
	}
	if strings.Contains(defs[0].Action[0], "create") {
		t.Errorf("rule a action leaked into rule b: %q", defs[0].Action[0])
	}
}

// lineColFromZero is a rule's position by a scan of the whole file up to
// its offset: what lineCol resumes from the previous rule must equal.
func lineColFromZero(src string, off int) (line, col int) {
	line, col = 1, 1
	for i := 0; i < off && i < len(src); i++ {
		if src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return line, col
}

// TestLineColMatchesScanFromZero: every definition's Line and Col, over
// every shipped rule file and a generated 256-rule file (comments, tabs,
// CRLF line ends, blank runs, multi-byte text and rules sharing a line),
// are those of a scan from offset 0 to the rule's "create".
func TestLineColMatchesScanFromZero(t *testing.T) {
	files, err := filepath.Glob("../../testdata/*/*.srl")
	if err != nil {
		t.Fatal(err)
	}
	more, err := filepath.Glob("../../cmd/*/testdata/*.srl")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, more...)
	if len(files) < 8 {
		t.Fatalf("found %d shipped rule files: %v", len(files), files)
	}
	srcs := map[string]string{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[f] = string(b)
	}
	var gen strings.Builder
	for i := 0; i < 256; i++ {
		switch i % 4 {
		case 0:
			fmt.Fprintf(&gen, "-- rule %d: ünïcode comment\n", i)
		case 1:
			gen.WriteString("\r\n\r\n\t  ")
		case 2:
			gen.WriteString("\n\n\n")
		case 3:
			gen.WriteString(" ") // on the previous rule's last line
		}
		fmt.Fprintf(&gen, "create rule r%d on account\n\twhen inserted\nif exists (select 1 from inserted where owner = 'é%d')\r\nthen insert into audit select id, owner from inserted", i, i)
	}
	srcs["generated"] = gen.String()

	for name, src := range srcs {
		defs, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		toks, err := lexRuleFile(src)
		if err != nil {
			t.Fatal(err)
		}
		var starts []int
		for _, tk := range toks {
			if tk.word && tk.depth == 0 && tk.text == "create" {
				starts = append(starts, tk.pos)
			}
		}
		if len(starts) != len(defs) {
			t.Fatalf("%s: %d definitions, %d rule starts", name, len(defs), len(starts))
		}
		for i, d := range defs {
			if line, col := lineColFromZero(src, starts[i]); d.Line != line || d.Col != col {
				t.Fatalf("%s: rule %s at %d:%d, a scan from zero says %d:%d", name, d.Name, d.Line, d.Col, line, col)
			}
		}
	}
}
