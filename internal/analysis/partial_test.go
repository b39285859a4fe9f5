package analysis

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"activerules/internal/rules"
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

// TestPartialConfluencePerTableMatchesReference: for every corpus set and
// every schema table, given in reverse order and upper-cased, the batch
// gives the reference's Sig({t}) and Theorem 7.2 verdict over it — with
// certifications, with refinement, and for tables no rule is
// significant for.
func TestPartialConfluencePerTableMatchesReference(t *testing.T) {
	certified, empty := 0, 0
	for _, c := range oracleCorpus(t) {
		ref := newReference(c.analyzer())
		var tables []string
		for _, tb := range c.set.Schema().SortedTables() {
			tables = append([]string{strings.ToUpper(tb.Name)}, tables...)
		}
		sigs, of := c.analyzer().PartialConfluencePerTable(tables)
		if len(of) != len(tables) {
			t.Fatalf("%s: %d verdicts for %d tables", c.name, len(of), len(tables))
		}
		for i, tb := range tables {
			got := sigs[of[i]]
			sig := ref.sig(c.set.Rules(), []string{tb})
			if !slices.Equal(ruleNames(got.Sig), ruleNames(sig)) {
				t.Fatalf("%s: Sig({%s}) = %v, reference %v", c.name, tb, ruleNames(got.Sig), ruleNames(sig))
			}
			if want := ref.confluence(sig, ref.termination(sig)).Guaranteed; got.Confluent != want {
				t.Fatalf("%s: confluent w.r.t. {%s} = %v, reference %v", c.name, tb, got.Confluent, want)
			}
			if len(sig) == 0 {
				empty++
			}
		}
		if c.cert != nil {
			certified++
		}
	}
	if certified == 0 || empty == 0 {
		t.Fatalf("the corpus covers %d certified sets and %d tables no rule is significant for; want both", certified, empty)
	}
}

// TestPartialConfluencePerTableChecksEachPairOnce is the tripwire of the
// batch's pair plane, on the served cascade's shape (ten idle bank
// clusters, a 24-deep chain and 8 fan-out rules on its head: 63 tables,
// 62 rules): over every table it checks the Confluence Requirement for
// each unordered pair of a Sig at most once, where a PartialConfluence
// per table checks the chain's pairs once per chain table.
func TestPartialConfluencePerTableChecksEachPairOnce(t *testing.T) {
	const depth, fan, idle = 24, 8, 10
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
		fmt.Fprintf(&sch, "table c%d (v int)\n", i)
	}
	for j := 0; j < fan; j++ {
		fmt.Fprintf(&sch, "table f%d (v int)\n", j)
	}
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&rl, "create rule chain%02d on c%d\nwhen inserted\nif exists (select 1 from inserted where v >= 0)\nthen insert into c%d select v from inserted\n\n", i, i, i+1)
	}
	for j := 0; j < fan; j++ {
		fmt.Fprintf(&rl, "create rule fan%d on c0\nwhen inserted\nthen insert into f%d select v from inserted where v >= 0\n\n", j, j)
	}
	a := compile(t, sch.String(), rl.String(), nil)
	tables := a.Set().Schema().TableNames()
	if len(tables) != 63 || a.Set().Len() != 62 {
		t.Fatalf("%d tables and %d rules, want 63 and 62", len(tables), a.Set().Len())
	}

	checked := map[[2]int]int{}
	a.requirementHook = func(ri, rj *rules.Rule) { checked[[2]int{ri.Index(), rj.Index()}]++ }
	sigs, _ := a.PartialConfluencePerTable(tables)
	pairs := map[[2]int]bool{} // the distinct unordered pairs of the Sigs
	for _, v := range sigs {
		for i, ri := range v.Sig {
			for _, rj := range v.Sig[i+1:] {
				if a.Set().Unordered(ri, rj) {
					pairs[[2]int{ri.Index(), rj.Index()}] = true
				}
			}
		}
	}
	for p, n := range checked {
		if n > 1 || !pairs[p] {
			t.Errorf("pair (%s, %s) checked %d times; in a Sig: %v", a.Set().Rules()[p[0]].Name, a.Set().Rules()[p[1]].Name, n, pairs[p])
		}
	}

	perTable := 0
	b := New(a.Set(), nil)
	b.requirementHook = func(ri, rj *rules.Rule) { perTable++ }
	for _, tb := range tables {
		b.PartialConfluence([]string{tb})
	}
	if perTable <= len(pairs) {
		t.Fatalf("a PartialConfluence per table made %d checks over %d distinct pairs; the tripwire sees no sharing", perTable, len(pairs))
	}
	t.Logf("%d distinct Sigs, %d distinct unordered pairs: %d checks, against %d for a PartialConfluence per table",
		len(sigs), len(pairs), len(checked), perTable)
}
