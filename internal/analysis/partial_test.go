package analysis

import (
	"slices"
	"strings"
	"testing"
)

const scratchSchema = `
table trig (x int)
table scratch (v int)
table data (v int)
`

// scratchRules race on the scratch table but write data disjointly.
const scratchRules = `
create rule ra on trig when inserted then update scratch set v = 1; insert into data values (1)
create rule rb on trig when inserted then update scratch set v = 2; insert into data values (2)
`

func TestSigSeedIsWriters(t *testing.T) {
	a := compile(t, scratchSchema, scratchRules, nil)
	sig := a.Sig([]string{"data"})
	// Both rules write data, so both are significant immediately.
	if len(sig) != 2 {
		t.Errorf("Sig(data) = %v", ruleNames(sig))
	}
}

func TestSigClosureUnderNoncommutativity(t *testing.T) {
	// rc writes data; rb does not, but rb doesn't commute with rc
	// (insert vs delete on data? no —: rb updates scratch which rc
	// reads), so rb joins Sig(data); ra commutes with both and stays
	// out.
	a := compile(t, scratchSchema+"\ntable aux (v int)\n", `
create rule ra on trig when inserted then insert into aux values (1)
create rule rb on trig when inserted then update scratch set v = 2
create rule rc on trig when inserted if exists (select 1 from scratch where v > 0) then insert into data values (1)
`, nil)
	sig := a.Sig([]string{"data"})
	names := strings.Join(sortedNames(sig), ",")
	if names != "rb,rc" {
		t.Errorf("Sig(data) = %s, want rb,rc", names)
	}
}

func TestPartialConfluenceScratchVsData(t *testing.T) {
	// The headline Section 7 scenario: not confluent overall (scratch
	// races) but confluent with respect to the data table... provided
	// the scratch racers are not significant for data. Here they ARE the
	// data writers too, so partial confluence w.r.t. data must FAIL
	// (they don't commute: both update scratch.v).
	a := compile(t, scratchSchema, scratchRules, nil)
	v := a.PartialConfluence([]string{"data"})
	if v.Guaranteed() {
		t.Error("the data writers themselves race on scratch; not partially confluent")
	}
	// With a certification that ra and rb commute on what matters, it
	// passes. (The user has verified the scratch race is harmless —
	// but then full confluence holds too; see next test for the real
	// separation.)
}

func TestPartialConfluenceSeparation(t *testing.T) {
	// Proper separation: rs1/rs2 race on scratch only; rd writes data
	// and commutes with both. Sig(data) = {rd}: partially confluent
	// w.r.t. data, NOT confluent overall.
	a := compile(t, scratchSchema, `
create rule rs1 on trig when inserted then update scratch set v = 1
create rule rs2 on trig when inserted then update scratch set v = 2
create rule rd on trig when inserted then insert into data values (7)
`, nil)
	full := a.Confluence()
	if full.Guaranteed {
		t.Fatal("scratch race should break full confluence")
	}
	v := a.PartialConfluence([]string{"data"})
	if got := strings.Join(v.SigNames(), ","); got != "rd" {
		t.Fatalf("Sig(data) = %s, want rd", got)
	}
	if !v.Guaranteed() {
		t.Errorf("partial confluence w.r.t. data should hold: %v", v.Confluence.Violations)
	}
	// And w.r.t. scratch it fails.
	v2 := a.PartialConfluence([]string{"scratch"})
	if v2.Guaranteed() {
		t.Error("partial confluence w.r.t. scratch must fail")
	}
}

func TestPartialConfluenceNeedsSigTermination(t *testing.T) {
	// Sig(T') must terminate on its own (footnote 7). rd self-triggers:
	// Sig(data) = {rd} has a cycle, so partial confluence fails even
	// though there are no pair violations.
	a := compile(t, scratchSchema, `
create rule rd on data when inserted then insert into data values (1)
`, nil)
	v := a.PartialConfluence([]string{"data"})
	if v.Guaranteed() {
		t.Error("nonterminating Sig must block partial confluence")
	}
	if !v.Confluence.RequirementHolds {
		t.Error("requirement holds vacuously (one rule)")
	}
}

func TestPartialConfluenceImpliedByConfluence(t *testing.T) {
	// Full confluence implies partial confluence for any T'.
	a := compile(t, scratchSchema, `
create rule ra on trig when inserted then insert into data values (1)
create rule rb on trig when inserted then insert into scratch values (2)
`, nil)
	if !a.Confluence().Guaranteed {
		t.Fatal("disjoint inserters should be confluent")
	}
	for _, tbl := range []string{"data", "scratch", "trig"} {
		if !a.PartialConfluence([]string{tbl}).Guaranteed() {
			t.Errorf("partial confluence w.r.t. %s should follow", tbl)
		}
	}
}

// TestSigEmptyForUntouchedTable: an untouched table has an empty Sig,
// which terminates processed on its own, so the table is partially
// confluent and its shard confluent — also when the rest of the set may
// not terminate (grower's self-inserting rule).
func TestSigEmptyForUntouchedTable(t *testing.T) {
	for _, c := range []struct{ schema, rules, table string }{
		{scratchSchema, "create rule ra on trig when inserted then insert into data values (1)\n", "scratch"},
		{"table a (v int)\ntable c (v int)\n", "create rule grow on a when inserted then insert into a select v + 1 from inserted\n", "c"},
	} {
		a := compile(t, c.schema, c.rules, nil)
		if sig := a.Sig([]string{c.table}); len(sig) != 0 {
			t.Errorf("Sig(%s) = %v, want empty", c.table, ruleNames(sig))
		}
		if !a.PartialConfluence([]string{c.table}).Guaranteed() {
			t.Errorf("%s: empty Sig is trivially partially confluent", c.table)
		}
		shards := a.ShardPlan().Shards
		i := slices.IndexFunc(shards, func(g ShardGroup) bool { return slices.Equal(g.Tables, []string{c.table}) })
		if i < 0 || !shards[i].Confluent {
			t.Errorf("%s: plan %+v has no confluent shard of its own for it", c.table, shards)
		}
	}
}

func TestPartialReportRendering(t *testing.T) {
	a := compile(t, scratchSchema, scratchRules, nil)
	out := ReportPartialConfluence(a.PartialConfluence([]string{"data"}))
	for _, want := range []string{"PARTIAL CONFLUENCE", "Sig", "ra", "rb"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
