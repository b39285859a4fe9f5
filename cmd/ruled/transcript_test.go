package main

// The wire oracle: full-session transcripts and an error-code matrix,
// pinned byte for byte. Both drive only run, errorBody and the layers'
// exported error types, so the goldens can be (and were) recorded from
// the commit before any refactor of the wire front and replayed
// unchanged after it.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"activerules/internal/cluster"
	"activerules/internal/engine"
	"activerules/internal/serve"
	"activerules/internal/shard"
	"activerules/internal/sqlmini"
	"activerules/internal/tenant"
)

// wireSchema has four independent table clusters ({a,b}, {c,d},
// {ping,pong}, {e}), so `-shards 2` owns a real partition and a
// cross-shard statement exists.
const wireSchema = `table a (id int, v int)
table b (id int, v int)
table c (id int, v int)
table d (id int, v int)
table e (v int)
table ping (v int)
table pong (v int)
`

// wireBaseRules terminates and is confluent; r_div faults at run time
// (code "exec").
const wireBaseRules = `create rule r_ab on a when inserted then insert into b select id, v from inserted
create rule r_cd on c when inserted then insert into d select id, v from inserted
create rule r_div on e when inserted then update e set v = v / 0
`

// wireLivelockRules adds a delete/insert ping-pong pair: a runtime
// livelock (code "livelock"), three of which quarantine the pair and
// put the §7 Sig(T') report on the wire. As a tenant swap it loses the
// guaranteed termination verdict.
const wireLivelockRules = wireBaseRules + `create rule ra on ping when inserted then delete from ping; insert into pong values (1)
create rule rb on pong when inserted then delete from pong; insert into ping values (1)
`

// wireScript is one request stream for every topology: each op appears
// with no tenant, a known tenant and an unknown one, so a single-system
// session pins the no-tenant rejections and a fleet session the
// tenant-required ones.
func wireScript(t *testing.T) []string {
	t.Helper()
	line := func(kv ...any) string {
		m := map[string]any{}
		for i := 0; i < len(kv); i += 2 {
			m[kv[i].(string)] = kv[i+1]
		}
		return op(t, m)
	}
	var s []string
	// routed emits the op without a tenant, for acme, and for a tenant
	// that does not exist.
	routed := func(kv ...any) {
		s = append(s, line(kv...))
		s = append(s, line(append([]any{"tenant", "acme"}, kv...)...))
		s = append(s, line(append([]any{"tenant", "nosuch"}, kv...)...))
	}
	// An empty fleet: the roster and per_tenant are [] (not null).
	s = append(s, line("op", "health"), line("op", "stats"), line("op", "tenant-stats"))
	s = append(s,
		line("op", "tenant-create", "tenant", "acme", "schema", wireSchema, "rules", wireBaseRules),
		line("op", "tenant-create", "tenant", "acme", "schema", wireSchema, "rules", wireBaseRules),
		line("op", "tenant-create", "tenant", "../escape", "schema", wireSchema, "rules", wireBaseRules),
		line("op", "tenant-create", "schema", wireSchema, "rules", wireBaseRules),
		line("op", "tenant-create", "tenant", "broken", "schema", wireSchema, "rules", "create rule"),
		line("op", "tenant-create", "tenant", "beta", "schema", wireSchema, "rules", wireBaseRules),
	)
	routed("op", "assert", "sql", "insert into a values (1, 10)", "deadline_ms", 60000)
	routed("op", "assert", "sql", "select id, v from b")
	routed("op", "assert", "sql", "insert into")
	routed("op", "assert", "sql", "insert into nosuch values (1)")
	routed("op", "assert", "sql", "insert into a values (2, 2); insert into c values (2, 2)")
	routed("op", "assert", "sql", "insert into c values (3, 30); insert into e values (3)")
	routed("op", "assert")
	routed("op", "assert", "sql", "insert into e values (1)")
	routed("op", "checkpoint")
	routed("op", "tenant-swap", "rules", wireLivelockRules)
	s = append(s, line("op", "tenant-swap", "tenant", "acme", "rules", "create rule"))
	for i := 0; i < 4; i++ {
		s = append(s, line("op", "assert", "sql", "insert into ping values (1)"))
		s = append(s, line("op", "assert", "tenant", "acme", "sql", "insert into ping values (1)"))
	}
	routed("op", "health")
	routed("op", "stats")
	routed("op", "tenant-stats")
	s = append(s,
		line("op", "tenant-drop", "tenant", "beta"),
		line("op", "assert", "tenant", "beta", "sql", "select id from a"),
		line("op", "tenant-create", "tenant", "beta", "schema", wireSchema, "rules", wireBaseRules),
		line("op", "tenant-load", "tenant", "beta"),
		line("op", "tenant-load", "tenant", "beta"),
		line("op", "tenant-load"),
		line("op", "tenant-drop", "tenant", "beta", "destroy", true),
		line("op", "tenant-load", "tenant", "beta"),
		line("op", "tenant-drop", "tenant", "beta"),
		line("op", "tenant-drop"),
		line("op", "frobnicate"),
		line("op", "frobnicate", "tenant", "acme"),
		`{not json`,
		``,
		`null`,
		`[1,2,3]`,
		line("op", "shutdown", "tenant", "nosuch"),
	)
	return s
}

var avgServiceRE = regexp.MustCompile(`"avg_service_ns":\d+`)

// renderTranscript interleaves each request with its response line;
// "ruled:" status lines stand alone. The one wall-clock field is
// normalised and the fixture directory masked.
func renderTranscript(t *testing.T, dir string, args, reqs []string, code int, stdout, stderr string) string {
	t.Helper()
	mask := func(s string) string {
		return avgServiceRE.ReplaceAllString(strings.ReplaceAll(s, dir, "$DIR"), `"avg_service_ns":0`)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "$ ruled %s\n", mask(strings.Join(args, " ")))
	var pending []string
	for _, r := range reqs {
		if strings.TrimSpace(r) != "" {
			pending = append(pending, r)
		}
	}
	for _, out := range strings.Split(strings.TrimRight(stdout, "\n"), "\n") {
		if !strings.HasPrefix(out, "{") {
			fmt.Fprintf(&b, "%s\n", mask(out))
			continue
		}
		if len(pending) == 0 {
			t.Fatalf("response with no request: %s", out)
		}
		fmt.Fprintf(&b, "> %s\n< %s\n", pending[0], mask(out))
		pending = pending[1:]
	}
	for _, r := range pending {
		fmt.Fprintf(&b, "> %s\n< (no response)\n", r)
	}
	fmt.Fprintf(&b, "exit %d\nstderr: %s\n", code, mask(stderr))
	return b.String()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if os.Getenv("RULED_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with RULED_UPDATE_GOLDEN=1 to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted:\n--- want ---\n%s--- got ---\n%s", golden, want, got)
	}
}

// TestWireTranscripts replays one session per topology through run and
// compares every emitted byte — responses, status lines, stderr and the
// exit code — against goldens recorded before the wire front was
// refactored.
func TestWireTranscripts(t *testing.T) {
	reqs := wireScript(t)
	for _, tc := range []struct {
		name  string
		fleet bool
		extra []string
	}{
		{name: "flat"},
		{name: "shards", extra: []string{"-shards", "2"}},
		{name: "tenants", fleet: true},
		{name: "tenants_quarantine", fleet: true, extra: []string{"-quarantine-on-regress"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			args := []string{"-maxsteps", "64", "-no-probe"}
			if tc.fleet {
				args = append(args, "-tenants", filepath.Join(dir, "fleet"))
			} else {
				args = append(args,
					"-schema", write(t, dir, "schema.sdl", wireSchema),
					"-rules", write(t, dir, "rules.srl", wireLivelockRules),
					"-wal", filepath.Join(dir, "wal"))
			}
			args = append(args, tc.extra...)
			var out, errb bytes.Buffer
			code := run(args, strings.NewReader(strings.Join(reqs, "\n")+"\n"), &out, &errb)
			checkGolden(t, "wire_"+tc.name+".golden",
				renderTranscript(t, dir, args, reqs, code, out.String(), errb.String()))
		})
	}
}

// TestErrorCodeMatrix pins the wire code (and the whole error body) of
// every exported typed error, bare and under every wrapper a layer
// really applies to it. Only reachable chains are listed: the code of a
// chain is its OUTERMOST coded error's, which differs from the old
// ladder's fixed order only for DurabilityError{Cause: *ExecError} and
// for an errors.Join — and no code path builds either
// (DurabilityError.Cause is always a WAL error; the only Join is
// Manager.Shutdown's, printed to stderr, never sent).
func TestErrorCodeMatrix(t *testing.T) {
	_, parseErr := sqlmini.ParseStatements("insert into")
	if parseErr == nil {
		t.Fatal("fixture: expected a parse error")
	}
	exec := &engine.ExecError{Rule: "r", Statement: "update e set v = v / 0", Cause: errors.New("division by zero")}
	durability := &engine.DurabilityError{Op: "commit", Cause: errors.New("wal: write failed")}
	livelock := &engine.LivelockError{Cycle: []string{"ra", "rb"}, Period: 2, Steps: 64}
	closed := &serve.ClosedError{State: serve.StateClosed}
	rows := []struct {
		name string
		err  error
	}{
		{"engine.ExecError", exec},
		{"engine.ExecError/condition", &engine.ExecError{Rule: "r", Cause: errors.New("boom")}},
		{"engine.ExecError/panic", &engine.ExecError{Rule: "r", Cause: &engine.PanicError{Value: "boom"}}},
		{"engine.LivelockError", livelock},
		{"engine.ErrMaxSteps", engine.ErrMaxSteps},
		{"engine.ErrMaxSteps/wrapped", fmt.Errorf("assert: %w", engine.ErrMaxSteps)},
		{"engine.CancelledError/canceled", &engine.CancelledError{Cause: context.Canceled}},
		{"engine.CancelledError/deadline", &engine.CancelledError{Cause: context.DeadlineExceeded}},
		{"engine.DurabilityError", durability},
		{"serve.OverloadError/queue-full", &serve.OverloadError{Reason: serve.OverloadQueueFull, QueueLen: 64, QueueCap: 64}},
		{"serve.OverloadError/projected-wait", &serve.OverloadError{Tenant: "acme", Reason: serve.OverloadProjectedWait,
			QueueLen: 3, QueueCap: 64, ProjectedWait: 30 * time.Millisecond, Deadline: 10 * time.Millisecond}},
		{"serve.DeadlineError", &serve.DeadlineError{Waited: 12 * time.Millisecond}},
		{"serve.ClosedError/draining", &serve.ClosedError{State: serve.StateDraining}},
		{"serve.ClosedError/tenant", &serve.ClosedError{Tenant: "acme", State: serve.StateClosed}},
		{"serve.ClosedError/failed-durability", &serve.ClosedError{State: serve.StateFailed, Cause: durability}},
		{"serve.ClosedError/failed-exec", &serve.ClosedError{State: serve.StateFailed, Cause: exec}},
		{"shard.ShardError/span", &shard.ShardError{Tables: []string{"a", "c"}, Shards: []int{0, 1}, Reason: "statements span 2 shards; the plan proves independence only within one"}},
		{"shard.ShardError/no-table", &shard.ShardError{Reason: "request touches no table; cannot be routed"}},
		{"shard-wrapped/closed", fmt.Errorf("shard %d: %w", 1, closed)},
		{"shard-wrapped/overload", fmt.Errorf("shard %d: %w", 0, &serve.OverloadError{Reason: serve.OverloadQueueFull, QueueLen: 64, QueueCap: 64})},
		{"cluster.NotLeaderError/leader", &cluster.NotLeaderError{Leader: "node-a"}},
		{"cluster.NotLeaderError/unknown", &cluster.NotLeaderError{}},
		{"cluster.NotLeaderError/suspended", &cluster.NotLeaderError{Suspended: true}},
		{"cluster.UnackedError/ctx", &cluster.UnackedError{Gen: 1, Off: 130, Cause: context.DeadlineExceeded}},
		{"cluster.UnackedError/closed", &cluster.UnackedError{Gen: 2, Off: 64, Cause: closed}},
		{"tenant.NotFoundError", &tenant.NotFoundError{Tenant: "nosuch"}},
		{"tenant.ExistsError", &tenant.ExistsError{Tenant: "acme"}},
		{"tenant.ExistsError/detached", &tenant.ExistsError{Tenant: "acme", Detached: true}},
		{"tenant.IDError", &tenant.IDError{Tenant: "../escape"}},
		{"tenant.QuotaError/slots", &tenant.QuotaError{Tenant: "acme", Kind: tenant.QuotaSlots, Used: 8, Limit: 8}},
		{"tenant.QuotaError/tenants", &tenant.QuotaError{Tenant: "fz", Kind: tenant.QuotaTenants, Used: 8, Limit: 8}},
		{"tenant.SwapRejectedError", &tenant.SwapRejectedError{Tenant: "acme", Lost: []string{"termination", "confluence"}, WasConfluent: true}},
		{"tenant.ErrManagerClosed", tenant.ErrManagerClosed},
		{"tenant-wrapped/closed", fmt.Errorf("tenant %q: %w", "acme", closed)},
		{"tenant-wrapped/durability", fmt.Errorf("tenant %q: %w", "acme", durability)},
		{"plain", errors.New("something else")},
		{"parse", parseErr},
	}
	var b strings.Builder
	for _, r := range rows {
		body, err := json.Marshal(errorBody(r.err))
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		fmt.Fprintf(&b, "%s\t%s\n", r.name, body)
	}
	checkGolden(t, "error_codes.golden", b.String())
}
