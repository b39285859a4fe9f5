package main

// Golden-file tests for rulecheck's report surfaces. Run with -update to
// rewrite the golden files after an intentional output change:
//
//	go test ./cmd/rulecheck -run TestGolden -update
//
// Every surface the command renders — the full report, the quiet
// summary, JSON, Graphviz DOT, the pair explainer, partial confluence,
// statistics, and the auto-repair plan — must be byte-stable: the
// analyses iterate sets in sorted order precisely so that two runs (and
// any worker count) print identical bytes.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

const bankSchema = "../../testdata/bank/schema.sdl"
const bankRules = "../../testdata/bank/rules.srl"
const bankCerts = "../../testdata/bank/certs.txt"
const powerSchema = "../../testdata/powernet/schema.sdl"
const powerRules = "../../testdata/powernet/rules.srl"
const lintSchema = "../../testdata/lintdemo/schema.sdl"
const lintRules = "../../testdata/lintdemo/rules.srl"
const cdSchema = "../../testdata/countdown/schema.sdl"
const cdRules = "../../testdata/countdown/rules.srl"
const drSchema = "../../testdata/drain/schema.sdl"
const drRules = "../../testdata/drain/rules.srl"
const cvSchema = "../../testdata/converge/schema.sdl"
const cvRules = "../../testdata/converge/rules.srl"
const flSchema = "../../testdata/flipflop/schema.sdl"
const flRules = "../../testdata/flipflop/rules.srl"

func TestGolden(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		wantCode int
	}{
		{"bank-report", []string{"-schema", bankSchema, "-rules", bankRules}, 1},
		{"bank-report-cert", []string{"-schema", bankSchema, "-rules", bankRules, "-cert", bankCerts}, 0},
		{"bank-quiet", []string{"-schema", bankSchema, "-rules", bankRules, "-quiet"}, 1},
		{"bank-json", []string{"-schema", bankSchema, "-rules", bankRules, "-json"}, 1},
		{"bank-dot", []string{"-schema", bankSchema, "-rules", bankRules, "-dot"}, 0},
		{"bank-why", []string{"-schema", bankSchema, "-rules", bankRules, "-why", "r_hold,r_purge"}, 0},
		{"bank-tables", []string{"-schema", bankSchema, "-rules", bankRules, "-cert", bankCerts, "-tables", "audit"}, 0},
		{"bank-stats", []string{"-schema", bankSchema, "-rules", bankRules, "-stats", "-cert", bankCerts}, 0},
		{"bank-autorepair", []string{"-schema", bankSchema, "-rules", bankRules, "-autorepair"}, 0},
		{"bank-shard-plan", []string{"-schema", bankSchema, "-rules", bankRules, "-shard-plan"}, 0},
		{"bank-shard-plan-json", []string{"-schema", bankSchema, "-rules", bankRules, "-shard-plan", "-json"}, 0},
		{"powernet-shard-plan", []string{"-schema", powerSchema, "-rules", powerRules, "-shard-plan"}, 0},
		{"powernet-report", []string{"-schema", powerSchema, "-rules", powerRules}, 1},
		{"powernet-dot", []string{"-schema", powerSchema, "-rules", powerRules, "-dot"}, 0},
		{"lintdemo-report", []string{"-schema", lintSchema, "-rules", lintRules}, 1},
		{"lintdemo-refined", []string{"-schema", lintSchema, "-rules", lintRules, "-refine"}, 0},
		{"lintdemo-refined-json", []string{"-schema", lintSchema, "-rules", lintRules, "-refine", "-json"}, 0},
		{"lintdemo-refined-dot", []string{"-schema", lintSchema, "-rules", lintRules, "-refine", "-dot"}, 0},
		{"lintdemo-why-refine", []string{"-schema", lintSchema, "-rules", lintRules, "-refine", "-why", "r_low,r_hi"}, 0},
		{"lintdemo-lint", []string{"-schema", lintSchema, "-rules", lintRules, "-lint"}, 3},
		{"lintdemo-lint-json", []string{"-schema", lintSchema, "-rules", lintRules, "-lint", "-json"}, 3},
		// The only fixture whose plan lists priority blockers.
		{"lintdemo-shard-plan", []string{"-schema", lintSchema, "-rules", lintRules, "-shard-plan"}, 0},
		{"lintdemo-shard-plan-json", []string{"-schema", lintSchema, "-rules", lintRules, "-shard-plan", "-json"}, 0},
		{"bank-lint", []string{"-schema", bankSchema, "-rules", bankRules, "-lint"}, 0},
		// Tier-2 termination fixtures: three cyclic-but-terminating rule
		// sets that acyclicity alone rejects but a discharge certificate
		// accepts (countdown/ranking, drain/delete-only,
		// converge/convergent-update), plus the undischargeable flipflop
		// control. countdown and drain exit 1 for confluence, not
		// termination.
		{"countdown-report", []string{"-schema", cdSchema, "-rules", cdRules}, 1},
		{"countdown-json", []string{"-schema", cdSchema, "-rules", cdRules, "-json"}, 1},
		{"countdown-lint", []string{"-schema", cdSchema, "-rules", cdRules, "-lint"}, 0},
		{"countdown-why-scc", []string{"-schema", cdSchema, "-rules", cdRules, "-why-scc", "1"}, 0},
		{"countdown-dot", []string{"-schema", cdSchema, "-rules", cdRules, "-dot"}, 0},
		{"drain-report", []string{"-schema", drSchema, "-rules", drRules}, 1},
		{"drain-lint", []string{"-schema", drSchema, "-rules", drRules, "-lint"}, 0},
		{"converge-report", []string{"-schema", cvSchema, "-rules", cvRules}, 0},
		{"converge-lint", []string{"-schema", cvSchema, "-rules", cvRules, "-lint"}, 0},
		{"flipflop-report", []string{"-schema", flSchema, "-rules", flRules}, 1},
		{"flipflop-lint", []string{"-schema", flSchema, "-rules", flRules, "-lint"}, 0},
		{"flipflop-why-scc", []string{"-schema", flSchema, "-rules", flRules, "-why-scc", "1"}, 0},
		// Shard plans whose Sig holds a cycle: flipflop's is never
		// discharged, countdown's is.
		{"flipflop-shard-plan", []string{"-schema", flSchema, "-rules", flRules, "-shard-plan"}, 0},
		{"countdown-shard-plan", []string{"-schema", cdSchema, "-rules", cdRules, "-shard-plan"}, 0},
		// A workload that reaches no rule: the empty reachable set
		// terminates, so flipflop's cycle does not count against it.
		{"flipflop-user-insert", []string{"-schema", flSchema, "-rules", flRules, "-user", "insert:fl"}, 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			code := run(tc.args, &out, &errb)
			if code != tc.wantCode {
				t.Fatalf("exit = %d, want %d; stderr: %s", code, tc.wantCode, errb.String())
			}
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("output differs from %s (run with -update after intentional changes)\ngot:\n%s\nwant:\n%s",
					golden, out.String(), want)
			}
		})
	}
}

// TestWhySCCBadID checks the out-of-range -why-scc diagnostics: a
// usage-level failure (exit 2) that names the valid ID range, or the
// acyclic message when there is no cyclic component at all.
func TestWhySCCBadID(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-schema", cdSchema, "-rules", cdRules, "-why-scc", "99"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if want := "no cyclic component 99: IDs run 1..1"; !bytes.Contains(errb.Bytes(), []byte(want)) {
		t.Errorf("stderr %q does not contain %q", errb.String(), want)
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-schema", bankSchema, "-rules", bankRules, "-why-scc", "1"}, &out, &errb); code != 2 {
		t.Fatalf("acyclic: exit = %d, want 2", code)
	}
	if want := "the analyzed triggering graph is acyclic"; !bytes.Contains(errb.Bytes(), []byte(want)) {
		t.Errorf("stderr %q does not contain %q", errb.String(), want)
	}
}

// TestGoldenStableAcrossParallelism re-renders every golden surface a
// second time, in one process after TestGolden's run, and compares
// against the same golden files: no state shared between runs may
// change a byte of output.
func TestGoldenStableAcrossParallelism(t *testing.T) {
	cases := [][]string{
		{"-schema", bankSchema, "-rules", bankRules},
		{"-schema", bankSchema, "-rules", bankRules, "-cert", bankCerts},
		{"-schema", bankSchema, "-rules", bankRules, "-json"},
		{"-schema", powerSchema, "-rules", powerRules},
		{"-schema", lintSchema, "-rules", lintRules, "-refine"},
		{"-schema", lintSchema, "-rules", lintRules, "-refine", "-json"},
		{"-schema", lintSchema, "-rules", lintRules, "-lint"},
		{"-schema", lintSchema, "-rules", lintRules, "-lint", "-json"},
		{"-schema", bankSchema, "-rules", bankRules, "-shard-plan"},
		{"-schema", bankSchema, "-rules", bankRules, "-shard-plan", "-json"},
		{"-schema", cdSchema, "-rules", cdRules},
		{"-schema", cdSchema, "-rules", cdRules, "-json"},
		{"-schema", cdSchema, "-rules", cdRules, "-why-scc", "1"},
		{"-schema", flSchema, "-rules", flRules},
		{"-schema", flSchema, "-rules", flRules, "-lint"},
	}
	goldens := []string{"bank-report", "bank-report-cert", "bank-json", "powernet-report",
		"lintdemo-refined", "lintdemo-refined-json", "lintdemo-lint", "lintdemo-lint-json",
		"bank-shard-plan", "bank-shard-plan-json",
		"countdown-report", "countdown-json", "countdown-why-scc",
		"flipflop-report", "flipflop-lint"}
	for i, args := range cases {
		want, err := os.ReadFile(filepath.Join("testdata", goldens[i]+".golden"))
		if err != nil {
			t.Fatalf("%v (run TestGolden with -update first)", err)
		}
		var out, errb bytes.Buffer
		run(args, &out, &errb)
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s: second run differs from golden", goldens[i])
		}
	}
}

// TestGoldenRepeatable runs the full report twice in-process and demands
// byte equality — a tripwire for any nondeterministic iteration sneaking
// back into the analyses or report rendering.
func TestGoldenRepeatable(t *testing.T) {
	render := func() string {
		var out, errb bytes.Buffer
		if code := run([]string{"-schema", bankSchema, "-rules", bankRules, "-stats"}, &out, &errb); code != 1 {
			t.Fatalf("exit = %d; stderr: %s", code, errb.String())
		}
		return out.String()
	}
	first := render()
	for i := 0; i < 5; i++ {
		if got := render(); got != first {
			t.Fatalf("run %d differs from run 0:\n%s", i+1, fmt.Sprintf("got:\n%s\nwant:\n%s", got, first))
		}
	}
}
