package analysis

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestLintFixtureFiresEveryCode: the shipped lintdemo fixture exercises
// every RL0xx code exactly as designed.
func TestLintFixtureFiresEveryCode(t *testing.T) {
	lr := loadFixture(t, nil).Lint()
	got := map[string][]string{}
	for _, d := range lr.Diagnostics {
		got[d.Code] = append(got[d.Code], d.Rule)
	}
	want := map[string][]string{
		"RL001": {"r_dead"},
		"RL002": {"r_selfcap"},
		"RL003": {"r_ping"},
		"RL004": {"r_stamp"},
		"RL005": {"r_ping", "r_selfcap"},
	}
	for code, rules := range want {
		if strings.Join(got[code], ",") != strings.Join(rules, ",") {
			t.Errorf("%s fired for %v, want %v", code, got[code], rules)
		}
	}
	if len(lr.Diagnostics) != 6 {
		t.Errorf("total = %d, want 6", len(lr.Diagnostics))
	}
	if lr.Errors != 1 || lr.Warnings != 2 || lr.Infos != 3 {
		t.Errorf("counts = %d/%d/%d, want 1/2/3", lr.Errors, lr.Warnings, lr.Infos)
	}
	if !lr.HasErrors() {
		t.Error("HasErrors should report true")
	}
}

// TestLintSpansAndOrdering: diagnostics carry real source spans and are
// sorted by (Line, Col, Code, Rule).
func TestLintSpansAndOrdering(t *testing.T) {
	lr := loadFixture(t, nil).Lint()
	prev := [2]int{0, 0}
	for _, d := range lr.Diagnostics {
		if d.Line <= 0 || d.Col <= 0 {
			t.Errorf("%s [%s]: missing span %d:%d", d.Code, d.Rule, d.Line, d.Col)
		}
		cur := [2]int{d.Line, d.Col}
		if cur[0] < prev[0] || (cur[0] == prev[0] && cur[1] < prev[1]) {
			t.Errorf("diagnostics out of order at %s [%s]", d.Code, d.Rule)
		}
		prev = cur
	}
	// RL005 must justify every pruned edge of its component.
	for _, d := range lr.Diagnostics {
		if d.Code == "RL005" && len(d.Notes) == 0 {
			t.Errorf("RL005 [%s] lacks per-edge justifications", d.Rule)
		}
	}
}

// TestLintCleanSet: a healthy rule set produces no findings.
func TestLintCleanSet(t *testing.T) {
	a := compile(t, "table t (v int)\ntable u (v int)", `
create rule r1 on t when inserted then insert into u values (1)
`, nil)
	lr := a.Lint()
	if len(lr.Diagnostics) != 0 {
		t.Errorf("clean set produced findings: %v", lr.Diagnostics)
	}
	if out := RenderLintText(lr, "x.srl"); !strings.Contains(out, "no lint findings") {
		t.Errorf("text render = %q", out)
	}
}

// TestLintRenderers: text and JSON renderings are deterministic, and the
// JSON round-trips with string severities.
func TestLintRenderers(t *testing.T) {
	lr := loadFixture(t, nil).Lint()
	text := RenderLintText(lr, "rules.srl")
	for _, want := range []string{
		"rules.srl:3:1: error RL001 [r_dead]",
		"warning RL002 [r_selfcap]",
		"warning RL003 [r_ping]",
		"info RL004 [r_stamp]",
		"info RL005",
		"6 findings (1 errors, 2 warnings, 3 info)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text render missing %q:\n%s", want, text)
		}
	}
	if again := RenderLintText(loadFixture(t, nil).Lint(), "rules.srl"); again != text {
		t.Error("text render not deterministic")
	}

	b, err := RenderLintJSON(lr, "rules.srl")
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		File        string `json:"file"`
		Diagnostics []struct {
			Code     string `json:"code"`
			Severity string `json:"severity"`
		} `json:"diagnostics"`
		Errors int `json:"errors"`
	}
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.File != "rules.srl" || decoded.Errors != 1 || len(decoded.Diagnostics) != 6 {
		t.Errorf("decoded = %+v", decoded)
	}
	if decoded.Diagnostics[0].Severity != "error" {
		t.Errorf("severity rendered as %q, want string form", decoded.Diagnostics[0].Severity)
	}
	b2, _ := RenderLintJSON(loadFixture(t, nil).Lint(), "rules.srl")
	if string(b2) != string(b) {
		t.Error("JSON render not deterministic")
	}
}

// TestLintWorksWithoutRefinementFlag: Lint builds its own refinement
// and must not flip the analyzer into refined mode as a side effect.
func TestLintWorksWithoutRefinementFlag(t *testing.T) {
	a := loadFixture(t, nil)
	if lr := a.Lint(); lr.Errors != 1 {
		t.Errorf("lint without SetRefinement: errors = %d, want 1", lr.Errors)
	}
	if a.Refined() {
		t.Error("Lint must not enable refinement on the analyzer")
	}
	if a.Termination().Guaranteed {
		t.Error("raw termination verdict must be unaffected by Lint")
	}
}

// TestLintAllocs: rendering a lint result takes the buffer and the
// string, whatever the number of findings; and linting takes at most
// one and a quarter allocations per RL003 finding (the message; the
// clause is quoted on the stack and the findings are merged, not
// sorted), measured as the slope between two fully ordered chains,
// where every rule precedes every later one and so every clause but the
// adjacent ones is redundant.
func TestLintAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	g := verdictWorkload(t, 1000003+256, 256)
	lr := New(g.Set, nil).SetRefinement(true).Lint()
	if len(lr.Diagnostics) < 9000 {
		t.Fatalf("%d findings: the set is supposed to be densely ordered", len(lr.Diagnostics))
	}
	if got := testing.AllocsPerRun(5, func() { _ = RenderLintText(lr, "gen256") }); got > 2 {
		t.Errorf("RenderLintText of %d findings: %.0f allocations, want at most 2", len(lr.Diagnostics), got)
	}

	chain := func(n int) (allocs float64, findings int) {
		var src strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&src, "create rule r%d on a when inserted then insert into b values (1)\n", i)
			for j := i + 1; j < n; j++ {
				if j == i+1 {
					src.WriteString("precedes ")
				} else {
					src.WriteString(", ")
				}
				fmt.Fprintf(&src, "r%d", j)
			}
			src.WriteString("\n\n")
		}
		a := compile(t, "table a (v int)\ntable b (v int)\n", src.String(), nil)
		for _, d := range a.Lint().Diagnostics {
			if d.Code == "RL003" {
				findings++
			}
		}
		return testing.AllocsPerRun(3, func() { a.Lint() }), findings
	}
	a32, f32 := chain(32)
	a96, f96 := chain(96)
	if f32 != 31*30/2 || f96 != 95*94/2 {
		t.Fatalf("chains of 32 and 96 rules have %d and %d RL003 findings", f32, f96)
	}
	per := (a96 - a32) / float64(f96-f32)
	t.Logf("%.0f allocations for %d RL003 findings, %.0f for %d: %.2f per finding", a96, f96, a32, f32, per)
	if per > 1.25 {
		t.Errorf("%.2f allocations per RL003 finding, want at most 1.25", per)
	}
}
