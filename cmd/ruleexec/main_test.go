package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func fixture(t *testing.T) (schemaPath, rulesPath, scriptPath string) {
	dir := t.TempDir()
	schemaPath = write(t, dir, "schema.sdl", `
table src (v int)
table dst (v int)
`)
	rulesPath = write(t, dir, "rules.srl", `
create rule copy on src
when inserted
then insert into dst select v from inserted; select v from inserted
`)
	scriptPath = write(t, dir, "ops.sql", "insert into src values (7)")
	return
}

func TestRuleexecBasicRun(t *testing.T) {
	sp, rp, op := fixture(t)
	var out, errb bytes.Buffer
	code := run([]string{"-schema", sp, "-rules", rp, "-script", op}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d; stderr: %s", code, errb.String())
	}
	for _, want := range []string{"considered=1 fired=1", "observable: copy:", "dst (1 rows)", "(7)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRuleexecSeedCommitted(t *testing.T) {
	sp, rp, _ := fixture(t)
	dir := t.TempDir()
	seed := write(t, dir, "seed.sql", "insert into src values (1)")
	op := write(t, dir, "ops.sql", "insert into src values (2)")
	var out, errb bytes.Buffer
	code := run([]string{"-schema", sp, "-rules", rp, "-script", op, "-seed", seed}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d; %s", code, errb.String())
	}
	// Only the scripted insert is part of the transition: one row copied.
	if !strings.Contains(out.String(), "dst (1 rows)") {
		t.Errorf("seed leaked into the transition:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "src (2 rows)") {
		t.Errorf("seed row missing:\n%s", out.String())
	}
}

func TestRuleexecStrategies(t *testing.T) {
	sp, rp, op := fixture(t)
	for _, s := range []string{"first", "last", "random:3"} {
		var out, errb bytes.Buffer
		if code := run([]string{"-schema", sp, "-rules", rp, "-script", op, "-strategy", s}, &out, &errb); code != 0 {
			t.Errorf("strategy %s: exit %d (%s)", s, code, errb.String())
		}
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-schema", sp, "-rules", rp, "-script", op, "-strategy", "bogus"}, &out, &errb); code != 2 {
		t.Error("bogus strategy should exit 2")
	}
	if code := run([]string{"-schema", sp, "-rules", rp, "-script", op, "-strategy", "random:x"}, &out, &errb); code != 2 {
		t.Error("bad random seed should exit 2")
	}
}

func TestRuleexecExplore(t *testing.T) {
	sp, rp, op := fixture(t)
	var out, errb bytes.Buffer
	code := run([]string{"-schema", sp, "-rules", rp, "-script", op, "-explore"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d; %s", code, errb.String())
	}
	for _, want := range []string{"final database states: 1", "observable streams: 1", "--- stream 1 ---"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("explore output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRuleexecExploreDivergence(t *testing.T) {
	dir := t.TempDir()
	sp := write(t, dir, "schema.sdl", "table trig (x int)\ntable t (v int)")
	rp := write(t, dir, "rules.srl", `
create rule ra on trig when inserted then update t set v = 1
create rule rb on trig when inserted then update t set v = 2
`)
	seed := write(t, dir, "seed.sql", "insert into t values (0)")
	op := write(t, dir, "ops.sql", "insert into trig values (1)")
	var out, errb bytes.Buffer
	code := run([]string{"-schema", sp, "-rules", rp, "-script", op, "-seed", seed, "-explore"}, &out, &errb)
	if code != 1 {
		t.Fatalf("divergent exploration should exit 1, got %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "final database states: 2") {
		t.Errorf("expected 2 final states:\n%s", out.String())
	}
}

func TestRuleexecBudgetExceeded(t *testing.T) {
	dir := t.TempDir()
	sp := write(t, dir, "schema.sdl", "table t (v int)")
	rp := write(t, dir, "rules.srl", "create rule loop on t when inserted then insert into t values (1)")
	op := write(t, dir, "ops.sql", "insert into t values (0)")
	var out, errb bytes.Buffer
	code := run([]string{"-schema", sp, "-rules", rp, "-script", op, "-maxsteps", "25"}, &out, &errb)
	if code != 1 {
		t.Fatalf("budget run should exit 1, got %d", code)
	}
	if !strings.Contains(errb.String(), "step budget") {
		t.Errorf("stderr missing budget message: %s", errb.String())
	}
}

func TestRuleexecAssertionSegments(t *testing.T) {
	sp, rp, _ := fixture(t)
	dir := t.TempDir()
	op := write(t, dir, "multi.sql", `
insert into src values (1)
assert
insert into src values (2), (3)
ASSERT;
insert into src values (4)
`)
	var out, errb bytes.Buffer
	code := run([]string{"-schema", sp, "-rules", rp, "-script", op}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d; %s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{
		"assertion point 1: considered=1 fired=1",
		"assertion point 2: considered=1 fired=1",
		"assertion point 3: considered=1 fired=1",
		"dst (4 rows)",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRuleexecTrace(t *testing.T) {
	sp, rp, op := fixture(t)
	var out, errb bytes.Buffer
	code := run([]string{"-schema", sp, "-rules", rp, "-script", op, "-trace"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d; %s", code, errb.String())
	}
	for _, want := range []string{"trace: assert: begin", "trace: choose copy", "trace: fire copy", "trace: assert: end"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("trace missing %q:\n%s", want, out.String())
		}
	}
}

func TestRuleexecErrors(t *testing.T) {
	sp, rp, op := fixture(t)
	wd := t.TempDir()
	cases := [][]string{
		{},
		{"-schema", sp, "-rules", rp}, // missing script
		{"-schema", "/nope", "-rules", rp, "-script", op},
		{"-schema", sp, "-rules", "/nope", "-script", op},
		{"-schema", sp, "-rules", rp, "-script", "/nope"},
		{"-schema", sp, "-rules", rp, "-script", op, "-seed", "/nope"},
		{"-schema", sp, "-rules", rp, "-script", op, "-explore", "-parallel", "2"},     // no such flag
		{"-schema", sp, "-rules", rp, "-script", op, "-compiled=false"},                // no such flag
		{"-schema", sp, "-rules", rp, "-script", op, "-wal", wd, "-fsync", "always"},   // no such policy
		{"-schema", sp, "-rules", rp, "-script", op, "-wal", wd, "-group-commit", "2"}, // no such flag
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
	// A script with a rollback is rejected by the engine.
	dir := t.TempDir()
	bad := write(t, dir, "bad.sql", "rollback")
	var out, errb bytes.Buffer
	if code := run([]string{"-schema", sp, "-rules", rp, "-script", bad}, &out, &errb); code != 2 {
		t.Error("user rollback script should exit 2")
	}
}

// pingPongFixture writes a two-rule livelock set: ra and rb bounce a
// single tuple between tables a and b forever.
func pingPongFixture(t *testing.T) (schemaPath, rulesPath, scriptPath string) {
	t.Helper()
	dir := t.TempDir()
	schemaPath = write(t, dir, "schema.sdl", "table a (v int)\ntable b (v int)")
	rulesPath = write(t, dir, "rules.srl", `
create rule ra on a when inserted then delete from a; insert into b values (1)
create rule rb on b when inserted then delete from b; insert into a values (1)
`)
	scriptPath = write(t, dir, "ops.sql", "insert into a values (1)")
	return
}

func TestRuleexecLivelockWitness(t *testing.T) {
	sp, rp, op := pingPongFixture(t)
	var out, errb bytes.Buffer
	code := run([]string{"-schema", sp, "-rules", rp, "-script", op, "-maxsteps", "100"}, &out, &errb)
	if code != 3 {
		t.Fatalf("livelock run should exit 3, got %d; stderr: %s", code, errb.String())
	}
	for _, want := range []string{"livelock", "period 2", "ra", "rb", "->"} {
		if !strings.Contains(errb.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, errb.String())
		}
	}
}

func TestRuleexecRuntimeActionError(t *testing.T) {
	dir := t.TempDir()
	sp := write(t, dir, "schema.sdl", "table t (v int)")
	rp := write(t, dir, "rules.srl", "create rule bad on t when inserted then update t set v = v / 0")
	op := write(t, dir, "ops.sql", "insert into t values (1)")
	var out, errb bytes.Buffer
	code := run([]string{"-schema", sp, "-rules", rp, "-script", op}, &out, &errb)
	if code != 4 {
		t.Fatalf("runtime action failure should exit 4, got %d; stderr: %s", code, errb.String())
	}
	for _, want := range []string{`rule "bad"`, "division by zero", "rolled back"} {
		if !strings.Contains(errb.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, errb.String())
		}
	}
}

func TestRuleexecTimeout(t *testing.T) {
	// An already-expired deadline: AssertContext observes it before the
	// first consideration, so the exit code is deterministic.
	sp, rp, op := pingPongFixture(t)
	var out, errb bytes.Buffer
	code := run([]string{"-schema", sp, "-rules", rp, "-script", op, "-timeout", "1ns"}, &out, &errb)
	if code != 5 {
		t.Fatalf("timed-out run should exit 5, got %d; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "interrupted") {
		t.Errorf("stderr missing interruption diagnostic:\n%s", errb.String())
	}

	// -timeout also bounds -explore (exploration of this set would
	// otherwise only stop at the cycle check).
	out.Reset()
	errb.Reset()
	code = run([]string{"-schema", sp, "-rules", rp, "-script", op, "-explore", "-timeout", "1ns"}, &out, &errb)
	if code != 5 {
		t.Fatalf("timed-out exploration should exit 5, got %d; stderr: %s", code, errb.String())
	}
}

func TestRuleexecRecoverAcrossRuns(t *testing.T) {
	sp, rp, op := fixture(t)
	wal := filepath.Join(t.TempDir(), "wal")
	args := []string{"-schema", sp, "-rules", rp, "-script", op, "-wal", wal}

	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("first run: exit %d; %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "wal: fresh directory (gen=1)") {
		t.Errorf("first run missing fresh-directory line:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "dst (1 rows)") {
		t.Errorf("first run wrong state:\n%s", out.String())
	}

	// Second run: the first run's committed state is recovered, so the
	// same script accumulates on top of it.
	out.Reset()
	errb.Reset()
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("second run: exit %d; %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "wal: recovered gen=1") {
		t.Errorf("second run missing recovery summary:\n%s", out.String())
	}
	for _, want := range []string{"dst (2 rows)", "src (2 rows)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("second run missing %q (recovered state lost):\n%s", want, out.String())
		}
	}
}

func TestRuleexecSnapshotEveryRotatesGenerations(t *testing.T) {
	sp, rp, op := fixture(t)
	wal := filepath.Join(t.TempDir(), "wal")
	args := []string{"-schema", sp, "-rules", rp, "-script", op, "-wal", wal, "-snapshot-every", "1"}
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d; %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "wal: checkpoint gen=2") {
		t.Errorf("missing checkpoint line:\n%s", out.String())
	}
	out.Reset()
	errb.Reset()
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("post-checkpoint run: exit %d; %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "wal: recovered gen=2") {
		t.Errorf("recovery did not resume from the rotated generation:\n%s", out.String())
	}
}

func TestRuleexecUnrecoverableLogExitCode(t *testing.T) {
	sp, rp, op := fixture(t)
	wal := filepath.Join(t.TempDir(), "wal")
	args := []string{"-schema", sp, "-rules", rp, "-script", op, "-wal", wal}
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("priming run: exit %d; %s", code, errb.String())
	}
	// Trash the snapshot foundation: the directory must be reported
	// unrecoverable with exit status 7, never silently reset.
	if err := os.WriteFile(filepath.Join(wal, "snapshot.db"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errb.Reset()
	if code := run(args, &out, &errb); code != 7 {
		t.Fatalf("corrupt snapshot: exit %d, want 7; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "unrecoverable write-ahead log") {
		t.Errorf("stderr missing diagnostic:\n%s", errb.String())
	}
}

func TestRuleexecWALFlagValidation(t *testing.T) {
	sp, rp, op := fixture(t)
	wal := filepath.Join(t.TempDir(), "wal")
	var out, errb bytes.Buffer
	code := run([]string{"-schema", sp, "-rules", rp, "-script", op, "-wal", wal, "-fsync", "bogus"}, &out, &errb)
	if code != 2 {
		t.Fatalf("bad -fsync should exit 2, got %d", code)
	}
	if !strings.Contains(errb.String(), "unknown -fsync policy") {
		t.Errorf("stderr missing policy diagnostic:\n%s", errb.String())
	}
}
