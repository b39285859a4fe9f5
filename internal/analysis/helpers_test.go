package analysis

import (
	"os"
	"testing"

	"activerules/internal/ruledef"
	"activerules/internal/rules"
	"activerules/internal/schema"
)

// compile builds an analyzer from schema and rule sources.
func compile(t testing.TB, schemaSrc, rulesSrc string, cert *Certification) *Analyzer {
	t.Helper()
	sch := schema.MustParse(schemaSrc)
	defs, err := ruledef.Parse(rulesSrc)
	if err != nil {
		t.Fatal(err)
	}
	set, err := rules.NewSet(sch, defs)
	if err != nil {
		t.Fatal(err)
	}
	return New(set, cert)
}

// fixtureSources reads the schema and rule sources of the shipped system
// testdata/<name>.
func fixtureSources(t *testing.T, name string) (sch, rls string) {
	t.Helper()
	read := func(file string) string {
		b, err := os.ReadFile("../../testdata/" + name + "/" + file)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	return read("schema.sdl"), read("rules.srl")
}

// fixtureSet compiles the shipped system testdata/<name>.
func fixtureSet(t *testing.T, name string) *rules.Set {
	t.Helper()
	sch, rls := fixtureSources(t, name)
	return compile(t, sch, rls, nil).set
}

// raceEnabled is set by race_test.go, which only a -race build compiles.
var raceEnabled bool

// names extracts rule names in slice order.
func ruleNames(rs []*rules.Rule) []string { return rules.Names(rs) }
