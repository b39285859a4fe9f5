package activerules_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"activerules"
)

const bankSchema = `
table account (id int, owner string, balance float)
table audit   (id int, owner string)
table holds   (id int, acct int)
`

const bankRules = `
create rule r_audit on account
when inserted
then insert into audit select id, owner from inserted

create rule r_hold on account
when updated(balance)
if exists (select 1 from new-updated nu where nu.balance < 0)
then insert into holds select nu.id, nu.id from new-updated nu where nu.balance < 0

create rule r_purge on account
when deleted
then delete from holds where acct in (select id from deleted)
`

func TestLoadAndAnalyze(t *testing.T) {
	sys, err := activerules.Load(bankSchema, bankRules)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Rules().Len() != 3 {
		t.Fatalf("rules = %d", sys.Rules().Len())
	}
	rep := sys.Analyze(nil)
	if !rep.Termination.Guaranteed {
		t.Error("bank rules terminate (acyclic)")
	}
	out := rep.String()
	for _, want := range []string{"TERMINATION", "CONFLUENCE", "OBSERVABLE DETERMINISM"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := activerules.Load("not a schema", bankRules); err == nil {
		t.Error("bad schema should fail")
	}
	if _, err := activerules.Load(bankSchema, "not rules"); err == nil {
		t.Error("bad rules should fail")
	}
	if _, err := activerules.Load(bankSchema, `
create rule r on nosuch when inserted then rollback
`); err == nil {
		t.Error("unknown table should fail")
	}
}

func TestLoadFiles(t *testing.T) {
	dir := t.TempDir()
	sp := filepath.Join(dir, "schema.sdl")
	rp := filepath.Join(dir, "rules.srl")
	if err := os.WriteFile(sp, []byte(bankSchema), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(rp, []byte(bankRules), 0o644); err != nil {
		t.Fatal(err)
	}
	sys, err := activerules.LoadFiles(sp, rp)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Rules().Len() != 3 {
		t.Error("rules lost in file load")
	}
	if _, err := activerules.LoadFiles("/nonexistent", rp); err == nil {
		t.Error("missing schema file should fail")
	}
	if _, err := activerules.LoadFiles(sp, "/nonexistent"); err == nil {
		t.Error("missing rules file should fail")
	}
}

func TestEndToEndEngine(t *testing.T) {
	sys := activerules.MustLoad(bankSchema, bankRules)
	db := sys.NewDB()
	eng := sys.NewEngine(db, activerules.EngineOptions{})
	if _, err := eng.ExecUser("insert into account values (1, 'ann', 100.0)"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Assert(); err != nil {
		t.Fatal(err)
	}
	if db.Table("audit").Len() != 1 {
		t.Error("audit rule did not fire")
	}
	// Overdraw the account: hold placed.
	if _, err := eng.ExecUser("update account set balance = -50.0 where id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Assert(); err != nil {
		t.Fatal(err)
	}
	if db.Table("holds").Len() != 1 {
		t.Error("hold rule did not fire")
	}
	// Delete the account: hold purged.
	if _, err := eng.ExecUser("delete from account where id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Assert(); err != nil {
		t.Fatal(err)
	}
	if db.Table("holds").Len() != 0 {
		t.Error("purge rule did not fire")
	}
}

func TestExploreViaFacade(t *testing.T) {
	sys := activerules.MustLoad(bankSchema, bankRules)
	eng := sys.NewEngine(sys.NewDB(), activerules.EngineOptions{})
	if _, err := eng.ExecUser("insert into account values (1, 'ann', 100.0)"); err != nil {
		t.Fatal(err)
	}
	res, err := activerules.Explore(eng, activerules.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Confluent() {
		t.Error("single triggered rule should be confluent")
	}
}

func TestWithOrderingFacade(t *testing.T) {
	sys := activerules.MustLoad("table trig (x int)\ntable t (v int)", `
create rule ri on trig when inserted then update t set v = 1
create rule rj on trig when inserted then update t set v = 2
`)
	if sys.Analyze(nil).Confluence.Guaranteed {
		t.Fatal("race should be rejected")
	}
	sys2, err := sys.WithOrdering([2]string{"ri", "rj"})
	if err != nil {
		t.Fatal(err)
	}
	if !sys2.Analyze(nil).Confluence.Guaranteed {
		t.Error("ordered race should be accepted")
	}
}

func TestAnalyzeTablesAndAllGuaranteed(t *testing.T) {
	sys := activerules.MustLoad("table trig (x int)\ntable scratch (v int)\ntable data (v int)", `
create rule rs1 on trig when inserted then update scratch set v = 1
create rule rs2 on trig when inserted then update scratch set v = 2
create rule rd on trig when inserted then insert into data values (7)
`)
	rep := sys.Analyze(nil)
	v := sys.AnalyzeTables(rep, nil, "data")
	if !v.Guaranteed() {
		t.Error("partial confluence on data should hold")
	}
	if rep.AllGuaranteed() {
		t.Error("full confluence fails; AllGuaranteed must be false")
	}
	if !strings.Contains(rep.String(), "PARTIAL CONFLUENCE") {
		t.Error("report missing partial section")
	}
}

func TestFromDefinitionsAndValues(t *testing.T) {
	sch, err := activerules.ParseSchema("table t (v int)")
	if err != nil {
		t.Fatal(err)
	}
	defs, err := activerules.ParseDefinitions("create rule r on t when inserted then delete from t where v < 0")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := activerules.FromDefinitions(sch, defs)
	if err != nil {
		t.Fatal(err)
	}
	db := sys.NewDB()
	db.MustInsert("t", activerules.IntV(1))
	if activerules.Null.IsNull() != true {
		t.Error("Null should be null")
	}
	if activerules.FloatV(1.5).F != 1.5 || activerules.StringV("x").S != "x" || !activerules.BoolV(true).B {
		t.Error("value constructors broken")
	}
}

func TestWithout(t *testing.T) {
	sys := activerules.MustLoad("table t (v int)\ntable u (v int)", `
create rule loop_a on t when inserted then insert into u values (1) precedes keeper
create rule loop_b on u when inserted then insert into t values (1)
create rule keeper on t when inserted then delete from t where v < 0
`)
	if sys.Analyze(nil).Termination.Guaranteed {
		t.Fatal("the loop must be flagged")
	}
	// Deactivating loop_b breaks the cycle; the priority reference from
	// loop_a survives (it names keeper, which remains).
	sys2, err := sys.Without("loop_b")
	if err != nil {
		t.Fatal(err)
	}
	if sys2.Rules().Len() != 2 {
		t.Fatalf("rules = %d", sys2.Rules().Len())
	}
	if !sys2.Analyze(nil).Termination.Guaranteed {
		t.Error("without loop_b the set should terminate")
	}
	// Deactivating keeper must drop loop_a's dangling precedes clause.
	sys3, err := sys.Without("keeper")
	if err != nil {
		t.Fatal(err)
	}
	if sys3.Rules().Rule("loop_a") == nil {
		t.Fatal("loop_a should remain")
	}
	if len(sys3.Rules().Rule("loop_a").Precedes) != 0 {
		t.Error("dangling precedes reference should be dropped")
	}
	// Condition-aware refinement carries over, as it does through
	// WithOrdering.
	sys.SetAnalysisRefinement(true)
	sys4, err := sys.Without("keeper")
	if err != nil {
		t.Fatal(err)
	}
	if !sys4.Analyzer(nil).Refined() {
		t.Error("Without dropped SetAnalysisRefinement")
	}
	sys.SetAnalysisRefinement(false)
	// Errors.
	if _, err := sys.Without("ghost"); err == nil {
		t.Error("unknown rule should fail")
	}
	if _, err := sys.Without("loop_a", "loop_b", "keeper"); err == nil {
		t.Error("removing every rule should fail")
	}
	// The original system is untouched.
	if sys.Rules().Len() != 3 {
		t.Error("Without mutated the original")
	}
}

func TestStrategiesViaFacade(t *testing.T) {
	for _, s := range []activerules.Strategy{
		activerules.FirstByName(), activerules.LastByName(), activerules.SeededStrategy(1),
	} {
		if s == nil {
			t.Error("nil strategy")
		}
	}
}
