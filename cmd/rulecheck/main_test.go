package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// write writes content to a file inside dir and returns its path.
func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const testSchema = `
table trig (x int)
table t (v int)
`

const racyRules = `
create rule ri on trig when inserted then update t set v = 1
create rule rj on trig when inserted then update t set v = 2
`

func TestRulecheckFlagsRace(t *testing.T) {
	dir := t.TempDir()
	sp := write(t, dir, "schema.sdl", testSchema)
	rp := write(t, dir, "rules.srl", racyRules)
	var out, errb bytes.Buffer
	code := run([]string{"-schema", sp, "-rules", rp}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errb.String())
	}
	for _, want := range []string{"may not be confluent", "summary: termination=true confluence=false"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRulecheckCertRepairs(t *testing.T) {
	dir := t.TempDir()
	sp := write(t, dir, "schema.sdl", testSchema)
	rp := write(t, dir, "rules.srl", racyRules)
	cp := write(t, dir, "certs.txt", "-- repair the race\norder ri rj\n")
	var out, errb bytes.Buffer
	code := run([]string{"-schema", sp, "-rules", rp, "-cert", cp, "-quiet"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "confluence=true") {
		t.Errorf("summary wrong: %s", out.String())
	}
	// -quiet suppresses the detailed sections.
	if strings.Contains(out.String(), "TERMINATION:") {
		t.Error("-quiet should suppress sections")
	}
}

func TestRulecheckCommuteAndDischargeDirectives(t *testing.T) {
	dir := t.TempDir()
	sp := write(t, dir, "schema.sdl", testSchema)
	rp := write(t, dir, "rules.srl", `
create rule loop on t when updated(v) then update t set v = v * 2 where v < 10 and v > 0
create rule ri on trig when inserted then insert into t values (1)
create rule rj on trig when inserted then delete from t where v < 0
`)
	cp := write(t, dir, "certs.txt", "discharge loop\ncommute ri rj\ncommute loop ri\ncommute loop rj\n")
	var out, errb bytes.Buffer
	code := run([]string{"-schema", sp, "-rules", rp, "-cert", cp, "-quiet", "-tables", "t"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d; stderr=%s out=%s", code, errb.String(), out.String())
	}
	if !strings.Contains(out.String(), "partial[t]=true") {
		t.Errorf("partial summary missing: %s", out.String())
	}
}

func TestRulecheckPartition(t *testing.T) {
	dir := t.TempDir()
	sp := write(t, dir, "schema.sdl", testSchema+"\ntable iso (y int)\n")
	rp := write(t, dir, "rules.srl", racyRules+`
create rule solo on iso when inserted then delete from iso where y < 0
`)
	var out, errb bytes.Buffer
	run([]string{"-schema", sp, "-rules", rp, "-partition"}, &out, &errb)
	s := out.String()
	if !strings.Contains(s, "PARTITIONS: 2 independent group(s)") {
		t.Errorf("partition report missing:\n%s", s)
	}
	if !strings.Contains(s, "solo") || !strings.Contains(s, "violation(s)") {
		t.Errorf("partition details missing:\n%s", s)
	}
}

func TestRulecheckRestricted(t *testing.T) {
	dir := t.TempDir()
	sp := write(t, dir, "schema.sdl", testSchema)
	rp := write(t, dir, "rules.srl", racyRules)
	// Updates on t trigger neither rule: everything is unreachable, all
	// properties hold.
	var out, errb bytes.Buffer
	code := run([]string{"-schema", sp, "-rules", rp, "-user", "update:t.v"}, &out, &errb)
	if code != 0 {
		t.Fatalf("restricted exit = %d:\n%s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "RESTRICTED ANALYSIS") {
		t.Errorf("missing restricted report:\n%s", out.String())
	}
	// Inserts on trig reach the race: flagged.
	var out2, err2 bytes.Buffer
	if code := run([]string{"-schema", sp, "-rules", rp, "-user", "insert:trig"}, &out2, &err2); code != 1 {
		t.Errorf("reachable race should exit 1, got %d", code)
	}
	// Bad syntax.
	for _, u := range []string{"frob:t", "insert", "update:t"} {
		var o, e bytes.Buffer
		if code := run([]string{"-schema", sp, "-rules", rp, "-user", u}, &o, &e); code != 2 {
			t.Errorf("user %q: exit = %d, want 2", u, code)
		}
	}
}

func TestRulecheckWhyAndAutorepair(t *testing.T) {
	dir := t.TempDir()
	sp := write(t, dir, "schema.sdl", testSchema)
	rp := write(t, dir, "rules.srl", racyRules)
	var out, errb bytes.Buffer
	code := run([]string{"-schema", sp, "-rules", rp, "-why", "ri, rj"}, &out, &errb)
	if code != 0 {
		t.Fatalf("why exit = %d; %s", code, errb.String())
	}
	for _, want := range []string{"PAIR (ri, rj)", "may NOT commute", "R1 = {ri}", "VIOLATED"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("why output missing %q:\n%s", want, out.String())
		}
	}
	// Errors.
	for _, w := range []string{"ri", "ri,ghost"} {
		var o, e bytes.Buffer
		if code := run([]string{"-schema", sp, "-rules", rp, "-why", w}, &o, &e); code != 2 {
			t.Errorf("-why %q: exit = %d, want 2", w, code)
		}
	}
	// Auto-repair.
	var out2, err2 bytes.Buffer
	if code := run([]string{"-schema", sp, "-rules", rp, "-autorepair"}, &out2, &err2); code != 0 {
		t.Fatalf("autorepair exit = %d", code)
	}
	if !strings.Contains(out2.String(), "AUTO-REPAIR: confluence guaranteed") ||
		!strings.Contains(out2.String(), "order ri rj") {
		t.Errorf("autorepair output:\n%s", out2.String())
	}
}

func TestRulecheckStats(t *testing.T) {
	dir := t.TempDir()
	sp := write(t, dir, "schema.sdl", testSchema)
	rp := write(t, dir, "rules.srl", racyRules)
	var out, errb bytes.Buffer
	run([]string{"-schema", sp, "-rules", rp, "-stats"}, &out, &errb)
	if !strings.Contains(out.String(), "RULE SET STATISTICS") {
		t.Errorf("stats missing:\n%s", out.String())
	}
}

func TestRulecheckJSON(t *testing.T) {
	dir := t.TempDir()
	sp := write(t, dir, "schema.sdl", testSchema)
	rp := write(t, dir, "rules.srl", racyRules)
	var out, errb bytes.Buffer
	code := run([]string{"-schema", sp, "-rules", rp, "-json", "-tables", "t"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d", code)
	}
	var parsed map[string]any
	if err := json.Unmarshal(out.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	conf := parsed["confluence"].(map[string]any)
	if conf["guaranteed"].(bool) {
		t.Error("confluence should be false")
	}
	if len(conf["violations"].([]any)) != 1 {
		t.Error("expected one violation in JSON")
	}
	if parsed["all_guaranteed"].(bool) {
		t.Error("all_guaranteed should be false")
	}
	if parsed["partial_confluence"].(map[string]any)["t"].(bool) {
		t.Error("partial on racing table should be false")
	}
}

func TestRulecheckDOT(t *testing.T) {
	dir := t.TempDir()
	sp := write(t, dir, "schema.sdl", testSchema)
	rp := write(t, dir, "rules.srl", racyRules)
	var out, errb bytes.Buffer
	code := run([]string{"-schema", sp, "-rules", rp, "-dot"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out.String(), "digraph triggering") {
		t.Errorf("missing DOT output:\n%s", out.String())
	}
}

func TestRulecheckErrors(t *testing.T) {
	dir := t.TempDir()
	sp := write(t, dir, "schema.sdl", testSchema)
	rp := write(t, dir, "rules.srl", racyRules)
	cases := [][]string{
		{},              // missing flags
		{"-schema", sp}, // missing rules
		{"-schema", "/nope", "-rules", rp},
		{"-schema", sp, "-rules", "/nope"},
		{"-schema", sp, "-rules", rp, "-cert", "/nope"},
		{"-badflag"},
		{"-schema", sp, "-rules", rp, "-parallel", "2"}, // no such flag
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
	// The noedge directive breaks cycles without removing rules.
	rp2 := write(t, dir, "cyc.srl", `
create rule r1 on t when updated(v) then update trig set x = 1
create rule r2 on trig when updated(x) then update t set v = 1
`)
	np := write(t, dir, "noedge.txt", "noedge r2 r1\ncommute r1 r2\n")
	var nout, nerr bytes.Buffer
	if code := run([]string{"-schema", sp, "-rules", rp2, "-cert", np, "-quiet"}, &nout, &nerr); code != 0 {
		t.Errorf("noedge cert should pass: exit %d\n%s%s", code, nout.String(), nerr.String())
	}

	// Bad cert directives.
	for _, cert := range []string{"frobnicate x", "commute onlyone", "discharge", "order a", "order a a a", "noedge a"} {
		cp := write(t, dir, "bad.txt", cert)
		var out, errb bytes.Buffer
		if code := run([]string{"-schema", sp, "-rules", rp, "-cert", cp}, &out, &errb); code != 2 {
			t.Errorf("cert %q: exit = %d, want 2", cert, code)
		}
	}
	// Ordering cycle via cert file.
	cp := write(t, dir, "cycle.txt", "order ri rj\norder rj ri\n")
	var out, errb bytes.Buffer
	if code := run([]string{"-schema", sp, "-rules", rp, "-cert", cp}, &out, &errb); code != 2 {
		t.Errorf("cyclic order: exit = %d, want 2", code)
	}
}
