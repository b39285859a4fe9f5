package main

// CLI coverage for the sharded (-shards) and replicated
// (-replicate/-follow) serving modes.

import (
	"encoding/json"
	"io"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// shardFixture has two independent table clusters {a,b} and {c,d}, so
// the maximal shard plan has exactly two shards.
func shardFixture(t *testing.T) (schemaPath, rulesPath, walDir string) {
	t.Helper()
	dir := t.TempDir()
	schemaPath = write(t, dir, "schema.sdl", `
table a (id int, v int)
table b (id int, v int)
table c (id int, v int)
table d (id int, v int)
`)
	rulesPath = write(t, dir, "rules.srl", `
create rule r_ab on a
when inserted
then insert into b select id, v from inserted

create rule r_cd on c
when inserted
then insert into d select id, v from inserted
`)
	return schemaPath, rulesPath, filepath.Join(dir, "wal")
}

func TestRuledShardedSession(t *testing.T) {
	sp, rp, wd := shardFixture(t)
	stdin := strings.NewReader(strings.Join([]string{
		`{"op":"assert","sql":"insert into a values (1, 10)"}`,
		`{"op":"assert","sql":"insert into c values (1, 100)"}`,
		`{"op":"assert","sql":"insert into a values (2, 2); insert into c values (2, 2)"}`,
		`{"op":"health"}`,
		`{"op":"stats"}`,
		`{"op":"checkpoint"}`,
		`{"op":"shutdown"}`,
	}, "\n"))
	var out, errb syncBuffer
	code := run([]string{"-schema", sp, "-rules", rp, "-wal", wd, "-shards", "2"}, stdin, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d; stderr: %s", code, errb.String())
	}
	resps := decodeLines(t, out.String())
	if len(resps) != 7 {
		t.Fatalf("got %d responses, want 7:\n%s", len(resps), out.String())
	}
	for _, i := range []int{0, 1} {
		if resps[i]["ok"] != true || resps[i]["fired"] != float64(1) {
			t.Fatalf("in-shard assert %d = %v", i, resps[i])
		}
	}
	if resps[2]["ok"] != false || resps[2]["code"] != "shard" {
		t.Fatalf("cross-shard assert = %v, want code shard", resps[2])
	}
	health := resps[3]
	if health["ready"] != true {
		t.Fatalf("sharded health = %v", health)
	}
	if shards, ok := health["shards"].([]any); !ok || len(shards) != 2 {
		t.Fatalf("sharded health shards = %v, want 2 entries", health["shards"])
	}
	if resps[4]["accepted"] != float64(2) {
		t.Fatalf("sharded stats accepted = %v, want 2 (the rejected request is never admitted)", resps[4])
	}
	for _, i := range []int{5, 6} {
		if resps[i]["ok"] != true {
			t.Fatalf("response %d = %v", i, resps[i])
		}
	}
}

func TestRuledReplicationFlagConflicts(t *testing.T) {
	sp, rp, wd := fixture(t)
	for _, args := range [][]string{
		{"-schema", sp, "-rules", rp, "-wal", wd, "-shards", "2", "-replicate", "127.0.0.1:0"},
		{"-schema", sp, "-rules", rp, "-wal", wd, "-follow", "127.0.0.1:1", "-shards", "2"},
		{"-schema", sp, "-rules", rp, "-wal", wd, "-follow", "127.0.0.1:1", "-replicate", "127.0.0.1:0"},
	} {
		var out, errb syncBuffer
		if code := run(args, strings.NewReader(""), &out, &errb); code != 2 {
			t.Fatalf("%v: exit = %d, want 2; stderr: %s", args, code, errb.String())
		}
	}
}

// TestRuledFollowerReadOnly runs a follower of a source that is not
// there: it must still serve health (disconnected, retrying) and reject
// asserts with code "read-only".
func TestRuledFollowerReadOnly(t *testing.T) {
	sp, rp, wd := fixture(t)
	// A port with no listener: bind one, note it, release it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	stdin := strings.NewReader(strings.Join([]string{
		`{"op":"health"}`,
		`{"op":"assert","sql":"insert into src values (1)"}`,
		`{"op":"checkpoint"}`,
		`{"op":"assert","tenant":"acme","sql":"insert into src values (1)"}`,
		`{"op":"shutdown"}`,
	}, "\n"))
	var out, errb syncBuffer
	code := run([]string{"-schema", sp, "-rules", rp, "-wal", wd, "-follow", addr}, stdin, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d; stderr: %s", code, errb.String())
	}
	resps := decodeLines(t, out.String())
	if len(resps) != 5 {
		t.Fatalf("got %d responses, want 5:\n%s", len(resps), out.String())
	}
	if resps[0]["ok"] != true || resps[0]["ready"] == true {
		t.Fatalf("disconnected follower health = %v", resps[0])
	}
	if resps[1]["code"] != "read-only" || resps[2]["code"] != "read-only" {
		t.Fatalf("follower mutating ops = %v, %v, want code read-only", resps[1], resps[2])
	}
	// The tenant field is resolved before the op, on a follower too.
	if resps[3]["code"] != "no-tenant" {
		t.Fatalf("tenant-routed assert on a follower = %v, want code no-tenant", resps[3])
	}
}

// ruledProc drives one in-process run() over pipes, collecting output.
type ruledProc struct {
	t    *testing.T
	in   *io.PipeWriter
	out  *syncBuffer
	errb *syncBuffer
	done chan int
}

func startRuled(t *testing.T, args []string) *ruledProc {
	t.Helper()
	pr, pw := io.Pipe()
	p := &ruledProc{t: t, in: pw, out: &syncBuffer{}, errb: &syncBuffer{}, done: make(chan int, 1)}
	go func() { p.done <- run(args, pr, p.out, p.errb) }()
	return p
}

func (p *ruledProc) send(line string) {
	p.t.Helper()
	if _, err := io.WriteString(p.in, line+"\n"); err != nil {
		p.t.Fatalf("send %q: %v", line, err)
	}
}

// statusLine polls stdout for a "ruled: <prefix>..." line and returns
// the remainder.
func (p *ruledProc) statusLine(prefix string) string {
	p.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, line := range strings.Split(p.out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				return strings.TrimSpace(rest)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	p.t.Fatalf("no %q line; stdout: %s stderr: %s", prefix, p.out.String(), p.errb.String())
	return ""
}

// responses decodes the JSON lines emitted so far.
func (p *ruledProc) responses() []map[string]any {
	p.t.Helper()
	var resps []map[string]any
	for _, line := range strings.Split(p.out.String(), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "ruled:") {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			p.t.Fatalf("non-JSON response line %q: %v", line, err)
		}
		resps = append(resps, m)
	}
	return resps
}

// waitResponses blocks until n responses have been emitted.
func (p *ruledProc) waitResponses(n int) []map[string]any {
	p.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if resps := p.responses(); len(resps) >= n {
			return resps
		}
		time.Sleep(5 * time.Millisecond)
	}
	p.t.Fatalf("timed out waiting for %d responses; stdout: %s", n, p.out.String())
	return nil
}

func (p *ruledProc) shutdown() {
	p.t.Helper()
	p.send(`{"op":"shutdown"}`)
	p.in.Close()
	select {
	case code := <-p.done:
		if code != 0 {
			p.t.Fatalf("exit = %d; stderr: %s", code, p.errb.String())
		}
	case <-time.After(15 * time.Second):
		p.t.Fatalf("no exit after shutdown; stdout: %s", p.out.String())
	}
}

// TestRuledReplicationEndToEnd wires a leader (-replicate) to a
// follower (-follow) through the CLI and checks the follower converges
// to the leader's committed state hash.
func TestRuledReplicationEndToEnd(t *testing.T) {
	sp, rp, wd := fixture(t)
	leader := startRuled(t, []string{"-schema", sp, "-rules", rp, "-wal", wd, "-replicate", "127.0.0.1:0"})
	addr := leader.statusLine("ruled: replicating on ")

	leader.send(`{"op":"assert","sql":"insert into src values (7)"}`)
	// The trailing empty assert fences the insert: a follower applies a
	// committed transaction only once a later begin arrives (until then
	// a streamed abort could still cancel it).
	leader.send(`{"op":"assert"}`)
	lresps := leader.waitResponses(2)
	if lresps[0]["ok"] != true || lresps[0]["fired"] != float64(1) {
		t.Fatalf("leader assert = %v", lresps[0])
	}
	wantHash, _ := lresps[0]["state_hash"].(string)
	if wantHash == "" {
		t.Fatalf("leader assert carries no state_hash: %v", lresps[0])
	}

	fwd := filepath.Join(t.TempDir(), "replica-wal")
	follower := startRuled(t, []string{"-schema", sp, "-rules", rp, "-wal", fwd, "-follow", addr})
	deadline := time.Now().Add(10 * time.Second)
	caught := false
	polls := 0
	for !caught && time.Now().Before(deadline) {
		follower.send(`{"op":"health"}`)
		polls++
		for _, r := range follower.waitResponses(polls) {
			if r["state_hash"] == wantHash {
				caught = true
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !caught {
		t.Fatalf("follower never reached leader hash %s; follower out: %s", wantHash, follower.out.String())
	}
	follower.shutdown()
	leader.shutdown()
}
