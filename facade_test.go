package activerules_test

import (
	"strings"
	"testing"

	"activerules"
)

func TestFacadeRestrictedAnalysis(t *testing.T) {
	sys := activerules.MustLoad("table a (v int)\ntable b (v int)", `
create rule loop_a on a when inserted then insert into b values (1)
create rule loop_b on b when inserted then insert into a values (1)
create rule safe on a when deleted then delete from b where v < 0
`)
	v := sys.AnalyzeRestricted(nil,
		activerules.UserDelete("a"),
		activerules.UserUpdate("a", "v"))
	if !v.Termination.Guaranteed {
		t.Error("only 'safe' is reachable under deletes/updates on a")
	}
	rep := activerules.RestrictedReport(v)
	if !strings.Contains(rep, "RESTRICTED ANALYSIS") || !strings.Contains(rep, "safe") {
		t.Errorf("restricted report:\n%s", rep)
	}
	// Inserts reach the loop.
	v2 := sys.AnalyzeRestricted(nil, activerules.UserInsert("a"))
	if v2.Termination.Guaranteed {
		t.Error("loop reachable under inserts")
	}
}

func TestFacadePartitionReport(t *testing.T) {
	sys := activerules.MustLoad("table a (v int)\ntable b (v int)", `
create rule ra on a when inserted then delete from a where v < 0
create rule rb on b when inserted then delete from b where v < 0
`)
	out := sys.PartitionReport(nil)
	if !strings.Contains(out, "PARTITIONS: 2 independent group(s)") {
		t.Errorf("partition report:\n%s", out)
	}
}

func TestFacadeDOT(t *testing.T) {
	sys := activerules.MustLoad("table a (v int)", `
create rule r on a when inserted then insert into a values (1)
`)
	out := sys.TriggeringGraphDOT(nil)
	if !strings.Contains(out, "digraph triggering") || !strings.Contains(out, "color=red") {
		t.Errorf("DOT output:\n%s", out)
	}
}

func TestFacadeCertificationHelpers(t *testing.T) {
	cert := activerules.NewCertification()
	cert.CertifyCommutes("a", "b").DischargeRule("c")
	if !cert.Commutes("B", "A") {
		t.Error("certification should be symmetric and case-insensitive")
	}
	if !cert.Discharged("C") {
		t.Error("discharge lookup failed")
	}
	if got := cert.CertifiedPairs(); len(got) != 1 || got[0] != [2]string{"a", "b"} {
		t.Errorf("CertifiedPairs = %v", got)
	}
	if got := cert.DischargedRules(); len(got) != 1 || got[0] != "c" {
		t.Errorf("DischargedRules = %v", got)
	}
	cl := cert.Clone()
	cl.CertifyCommutes("x", "y")
	if cert.Commutes("x", "y") {
		t.Error("Clone must be independent")
	}
}

func TestFacadeStatsReport(t *testing.T) {
	sys := activerules.MustLoad("table a (v int)", `
create rule r on a when inserted then insert into a values (1)
`)
	out := sys.StatsReport(nil)
	if !strings.Contains(out, "RULE SET STATISTICS") || !strings.Contains(out, "1 self-loops") {
		t.Errorf("stats report:\n%s", out)
	}
}

func TestFacadeSchemaAccessors(t *testing.T) {
	sys := activerules.MustLoad("table a (v int, w string)", `
create rule r on a when inserted then delete from a where v < 0
`)
	sch := sys.Schema()
	tbl := sch.Table("a")
	if tbl.Column(1).Name != "w" {
		t.Error("Column accessor wrong")
	}
	if got := tbl.ColumnNames(); len(got) != 2 || got[0] != "v" {
		t.Errorf("ColumnNames = %v", got)
	}
	if got := sch.SortedTables(); len(got) != 1 || got[0].Name != "a" {
		t.Errorf("SortedTables = %v", got)
	}
	r := sys.Rules().Rule("r")
	if r.Index() != 0 {
		t.Error("Index wrong")
	}
	if sys.Rules().Schema() != sch {
		t.Error("RuleSet.Schema mismatch")
	}
}
