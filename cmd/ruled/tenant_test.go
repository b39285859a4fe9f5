package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const tenantTestSchema = `
table t (v int)
table l (v int)
table ping (v int)
table pong (v int)
`

const tenantTestRules = `create rule copy on t when inserted then insert into l select v from inserted`

// tenantTestRegress adds an undischargeable insert-only cycle: the
// termination (and confluence) verdicts regress versus tenantTestRules.
const tenantTestRegress = tenantTestRules + `
create rule ra on ping when inserted then insert into pong values (1)
create rule rb on pong when inserted then insert into ping values (1)
`

// op builds one wire-protocol request line.
func op(t *testing.T, fields map[string]any) string {
	t.Helper()
	b, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestRuledTenantStdioSession(t *testing.T) {
	dir := t.TempDir()
	lines := []string{
		op(t, map[string]any{"op": "tenant-create", "tenant": "acme", "schema": tenantTestSchema, "rules": tenantTestRules}),
		op(t, map[string]any{"op": "tenant-create", "tenant": "beta", "schema": tenantTestSchema, "rules": tenantTestRules}),
		op(t, map[string]any{"op": "assert", "tenant": "acme", "sql": "insert into t values (7)"}),
		op(t, map[string]any{"op": "assert", "tenant": "beta", "sql": "insert into t values (8)"}),
		op(t, map[string]any{"op": "assert", "tenant": "acme", "sql": "select v from l"}),
		op(t, map[string]any{"op": "assert", "tenant": "beta", "sql": "select v from l"}),
		op(t, map[string]any{"op": "assert", "sql": "insert into t values (1)"}),
		op(t, map[string]any{"op": "assert", "tenant": "nosuch", "sql": "insert into t values (1)"}),
		op(t, map[string]any{"op": "tenant-swap", "tenant": "acme", "rules": tenantTestRegress}),
		op(t, map[string]any{"op": "health", "tenant": "acme"}),
		op(t, map[string]any{"op": "tenant-stats"}),
		op(t, map[string]any{"op": "tenant-drop", "tenant": "beta", "destroy": true}),
		op(t, map[string]any{"op": "assert", "tenant": "beta", "sql": "insert into t values (1)"}),
		op(t, map[string]any{"op": "shutdown"}),
	}
	var out, errb bytes.Buffer
	code := run([]string{"-tenants", dir}, strings.NewReader(strings.Join(lines, "\n")), &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d; stderr: %s", code, errb.String())
	}
	resps := decodeLines(t, out.String())
	if len(resps) != len(lines) {
		t.Fatalf("got %d responses, want %d:\n%s", len(resps), len(lines), out.String())
	}

	// Both creates report the analyzer's verdicts — and the same hash,
	// since the rule sets are byte-identical.
	for i := 0; i < 2; i++ {
		if resps[i]["ok"] != true || resps[i]["terminates"] != true || resps[i]["confluent"] != true {
			t.Errorf("create %d = %v", i, resps[i])
		}
	}
	if resps[0]["rule_set_hash"] != resps[1]["rule_set_hash"] {
		t.Errorf("identical rule sets hashed differently: %v vs %v", resps[0]["rule_set_hash"], resps[1]["rule_set_hash"])
	}

	// Each tenant's rules ran in its own system.
	if resps[2]["fired"] != float64(1) || resps[3]["fired"] != float64(1) {
		t.Errorf("asserts = %v / %v", resps[2], resps[3])
	}
	for i, want := range map[int]string{4: "[[7]]", 5: "[[8]]"} {
		res, _ := json.Marshal(resps[i]["results"])
		if !strings.Contains(string(res), want) {
			t.Errorf("response %d: results %s, want %s (tenant isolation)", i, res, want)
		}
	}

	// Routing errors: missing tenant field, unknown tenant.
	if resps[6]["ok"] != false || resps[6]["code"] != "bad-request" {
		t.Errorf("tenantless assert = %v, want code bad-request", resps[6])
	}
	if resps[7]["ok"] != false || resps[7]["code"] != "no-tenant" {
		t.Errorf("unknown-tenant assert = %v, want code no-tenant", resps[7])
	}

	// The verdict-regressing swap is rejected by the analyzer gate.
	if resps[8]["ok"] != false || resps[8]["code"] != "swap-rejected" {
		t.Errorf("regressing swap = %v, want code swap-rejected", resps[8])
	}
	if msg, _ := resps[8]["error"].(string); !strings.Contains(msg, "termination") {
		t.Errorf("swap rejection does not name the lost verdict: %q", msg)
	}

	// The rejected swap left acme serving and healthy.
	if resps[9]["ok"] != true || resps[9]["ready"] != true || resps[9]["tenant"] != "acme" {
		t.Errorf("health = %v", resps[9])
	}

	// Fleet stats: two tenants; the cache holds the shared live set plus
	// the rejected swap candidate, and the identical second create hit.
	if resps[10]["tenants"] != float64(2) || resps[10]["cache_entries"] != float64(2) {
		t.Errorf("fleet stats = %v", resps[10])
	}
	if hits, _ := resps[10]["cache_hits"].(float64); hits < 1 {
		t.Errorf("fleet stats report no cache hits: %v", resps[10])
	}

	// Dropped (destroyed) tenants are gone.
	if resps[11]["ok"] != true || resps[11]["destroyed"] != true {
		t.Errorf("drop = %v", resps[11])
	}
	if resps[12]["code"] != "no-tenant" {
		t.Errorf("assert to destroyed tenant = %v, want code no-tenant", resps[12])
	}

	// Restart: the surviving tenant is restored from its own WAL, with
	// the durable row and the pre-swap rule set intact.
	out.Reset()
	second := []string{
		op(t, map[string]any{"op": "assert", "tenant": "acme", "sql": "select v from l"}),
		op(t, map[string]any{"op": "tenant-stats", "tenant": "acme"}),
	}
	if code := run([]string{"-tenants", dir}, strings.NewReader(strings.Join(second, "\n")), &out, &errb); code != 0 {
		t.Fatalf("second session: exit %d; %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "ruled: 1 tenant(s)") {
		t.Errorf("restart did not restore the fleet:\n%s", out.String())
	}
	resps = decodeLines(t, out.String())
	res, _ := json.Marshal(resps[0]["results"])
	if !strings.Contains(string(res), "[[7]]") {
		t.Errorf("durable state lost across restart: %s", res)
	}
	if resps[1]["rule_set_hash"] == "" || resps[1]["tenant"] != "acme" {
		t.Errorf("restored stats = %v", resps[1])
	}
}

func TestRuledTenantFlagConflicts(t *testing.T) {
	dir := t.TempDir()
	for _, extra := range [][]string{
		{"-shards", "2"},
		{"-replicate", "127.0.0.1:0"},
		{"-follow", "127.0.0.1:1"},
	} {
		var out, errb bytes.Buffer
		args := append([]string{"-tenants", dir}, extra...)
		if code := run(args, strings.NewReader(""), &out, &errb); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
}

// TestRuledTenantStatsGolden pins the tenant-stats wire body to a
// golden transcript and requires it to be byte-stable across runs, each
// with a fresh fleet and so a fresh shared cache. The scenario is
// request-free so every counter is zero.
func TestRuledTenantStatsGolden(t *testing.T) {
	lines := []string{
		op(t, map[string]any{"op": "tenant-create", "tenant": "acme", "schema": tenantTestSchema, "rules": tenantTestRules}),
		op(t, map[string]any{"op": "tenant-stats", "tenant": "acme"}),
		op(t, map[string]any{"op": "tenant-stats"}),
	}
	var base string
	for i := 1; i <= 3; i++ {
		var out, errb bytes.Buffer
		code := run([]string{"-tenants", t.TempDir()},
			strings.NewReader(strings.Join(lines, "\n")), &out, &errb)
		if code != 0 {
			t.Fatalf("run %d: exit %d; %s", i, code, errb.String())
		}
		// Keep only the JSON lines: the transcript proper.
		var jsonLines []string
		for _, line := range strings.Split(out.String(), "\n") {
			if line != "" && !strings.HasPrefix(line, "ruled:") {
				jsonLines = append(jsonLines, line)
			}
		}
		got := strings.Join(jsonLines, "\n") + "\n"
		if base == "" {
			base = got
			continue
		}
		if got != base {
			t.Fatalf("tenant-stats transcript differs on run %d:\n--- base ---\n%s--- got ---\n%s", i, base, got)
		}
	}

	checkGolden(t, "tenant_stats.golden", base)
}
