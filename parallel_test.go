package activerules_test

// Metamorphic coverage through the public facade: the analyses are a
// function of the rule set alone, on the shipped sample applications.

import (
	"testing"

	"activerules"
)

// TestAnalysisParallelismFacade pins the facade metamorphic relation: a
// System's rendered report is identical across repeated runs and across
// two Systems loaded from the same files, on both shipped sample
// applications.
func TestAnalysisParallelismFacade(t *testing.T) {
	for _, tc := range []struct{ name, schema, rules string }{
		{"bank", "testdata/bank/schema.sdl", "testdata/bank/rules.srl"},
		{"powernet", "testdata/powernet/schema.sdl", "testdata/powernet/rules.srl"},
	} {
		load := func() *activerules.System {
			sys, err := activerules.LoadFiles(tc.schema, tc.rules)
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}
		sys := load()
		base := sys.Analyze(nil).String()
		for i, other := range []*activerules.System{sys, load()} {
			if got := other.Analyze(nil).String(); got != base {
				t.Errorf("%s run %d: report differs from the first", tc.name, i+2)
			}
		}
	}
}
