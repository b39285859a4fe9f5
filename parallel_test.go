package activerules_test

// Metamorphic coverage through the public facade: the parallel analyses
// must agree with their sequential counterparts on the shipped sample
// applications.

import (
	"testing"

	"activerules"
)

// TestAnalysisParallelismFacade pins the facade metamorphic relation:
// a System's rendered report is identical at every analysis worker
// count, on both shipped sample applications.
func TestAnalysisParallelismFacade(t *testing.T) {
	for _, tc := range []struct{ name, schema, rules string }{
		{"bank", "testdata/bank/schema.sdl", "testdata/bank/rules.srl"},
		{"powernet", "testdata/powernet/schema.sdl", "testdata/powernet/rules.srl"},
	} {
		sys, err := activerules.LoadFiles(tc.schema, tc.rules)
		if err != nil {
			t.Fatal(err)
		}
		base := sys.Analyze(nil).String()
		for _, workers := range []int{0, 2, 8} {
			sys.SetAnalysisParallelism(workers)
			if got := sys.Analyze(nil).String(); got != base {
				t.Errorf("%s workers=%d: report differs from sequential", tc.name, workers)
			}
		}
	}
}
