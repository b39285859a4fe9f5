package serve

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"activerules/internal/analysis"
	"activerules/internal/rules"
	"activerules/internal/schema"
)

// shippedSystems are the rule systems under testdata/.
var shippedSystems = []string{"bank", "converge", "countdown", "drain", "flipflop", "lintdemo", "powernet"}

// shippedSystem parses testdata/<name>.
func shippedSystem(t testing.TB, name string) (*schema.Schema, []rules.Definition) {
	t.Helper()
	read := func(file string) string {
		b, err := os.ReadFile(filepath.Join("..", "..", "testdata", name, file))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	return mkSystem(t, read("schema.sdl"), read("rules.srl"))
}

// ruleSystem is a rule set with the definitions it was built from.
type ruleSystem struct {
	defs []rules.Definition
	set  *rules.Set
}

// baselineSystems are the cascade's shape and every shipped system, by
// name.
func baselineSystems(t testing.TB) map[string]ruleSystem {
	t.Helper()
	out := map[string]ruleSystem{}
	add := func(name string, sch *schema.Schema, defs []rules.Definition) {
		set, err := rules.NewSet(sch, defs)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = ruleSystem{defs, set}
	}
	schemaSrc, rulesSrc := cascadeSystem()
	sch, defs := mkSystem(t, schemaSrc, rulesSrc)
	add("cascade", sch, defs)
	for _, name := range shippedSystems {
		sch, defs := shippedSystem(t, name)
		add(name, sch, defs)
	}
	return out
}

// perTableBaseline is the baseline by Theorem 7.2 table by table: one
// PartialConfluence per schema table, on a fresh analyzer.
func perTableBaseline(set *rules.Set) *Baseline {
	a := analysis.New(set, nil)
	bl := &Baseline{
		Tables: resolveTables(set.Schema(), nil),
		Sig:    map[string]map[string]bool{},
		Conf:   map[string]bool{},
		Term:   a.Termination().Status,
	}
	for _, t := range bl.Tables {
		v := a.PartialConfluence([]string{t})
		bl.Sig[t] = map[string]bool{}
		for _, name := range v.SigNames() {
			bl.Sig[t][name] = true
		}
		bl.Conf[t] = v.Guaranteed()
	}
	return bl
}

// TestBaselineMatchesPerTablePartialConfluence: the baseline's Sig sets
// and verdicts are PartialConfluence's, table by table, on the cascade
// set and every shipped system.
func TestBaselineMatchesPerTablePartialConfluence(t *testing.T) {
	for name, sys := range baselineSystems(t) {
		a := analysis.New(sys.set, nil)
		got := BaselineOf(a, nil, a.Termination().Status)
		if want := perTableBaseline(sys.set); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: BaselineOf = %+v\nper-table PartialConfluence = %+v", name, got, want)
		}
	}
}

// TestReportMatchesPerTablePartialConfluence: with each rule quarantined
// in turn, and with the first and last together, every affected table's
// reduced-set verdict in the degraded report is PartialConfluence's on
// the reduced set, and every other table keeps the baseline's.
func TestReportMatchesPerTablePartialConfluence(t *testing.T) {
	for name, sys := range baselineSystems(t) {
		a := analysis.New(sys.set, nil)
		bl := BaselineOf(a, nil, a.Termination().Status)
		names := rules.Names(sys.set.Rules())
		sort.Strings(names)
		quarantines := [][]string{{names[0], names[len(names)-1]}}
		for _, n := range names {
			quarantines = append(quarantines, []string{n})
		}
		for _, q := range quarantines {
			reduced, err := rules.NewSet(sys.set.Schema(), rules.Without(sys.defs, q...))
			if err != nil {
				t.Fatal(err)
			}
			ra := analysis.New(reduced, nil)
			for _, g := range newReport("", bl, reduced, q, nil).Tables {
				want := bl.Conf[g.Table]
				if !g.Unaffected {
					want = ra.PartialConfluence([]string{g.Table}).Guaranteed()
				}
				if g.Confluent != want {
					t.Errorf("%s without %v: table %s (unaffected %v) confluent=%v, want %v", name, q, g.Table, g.Unaffected, g.Confluent, want)
				}
			}
		}
	}
}

// baselineSink keeps BenchmarkBaselineOf's result live.
var baselineSink *Baseline

// BenchmarkBaselineOf times BaselineOf on an analyzer whose termination
// verdict is computed, as a server's start computes it.
func BenchmarkBaselineOf(b *testing.B) {
	sets := baselineSystems(b)
	for _, c := range []struct {
		name string
		set  *rules.Set
	}{{"bank", sets["bank"].set}, {"cascade", sets["cascade"].set}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a := analysis.New(c.set, nil)
				term := a.Termination().Status
				b.StartTimer()
				baselineSink = BaselineOf(a, nil, term)
			}
		})
	}
}
