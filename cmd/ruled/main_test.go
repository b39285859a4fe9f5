package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func fixture(t *testing.T) (schemaPath, rulesPath, walDir string) {
	dir := t.TempDir()
	schemaPath = write(t, dir, "schema.sdl", `
table src (v int)
table dst (v int)
`)
	rulesPath = write(t, dir, "rules.srl", `
create rule copy on src
when inserted
then insert into dst select v from inserted
`)
	return schemaPath, rulesPath, filepath.Join(dir, "wal")
}

// decodeLines parses every JSON line of a session transcript, skipping
// the human-readable "ruled:" status lines.
func decodeLines(t *testing.T, out string) []map[string]any {
	t.Helper()
	var resps []map[string]any
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "ruled:") {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("non-JSON response line %q: %v", line, err)
		}
		resps = append(resps, m)
	}
	return resps
}

func TestRuledStdioSession(t *testing.T) {
	sp, rp, wd := fixture(t)
	stdin := strings.NewReader(strings.Join([]string{
		`{"op":"assert","sql":"insert into src values (7)"}`,
		`{"op":"assert","sql":"select v from dst"}`,
		`{"op":"health"}`,
		`{"op":"checkpoint"}`,
		`{"op":"stats"}`,
		`{"op":"shutdown"}`,
	}, "\n"))
	var out, errb bytes.Buffer
	code := run([]string{"-schema", sp, "-rules", rp, "-wal", wd}, stdin, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d; stderr: %s", code, errb.String())
	}
	resps := decodeLines(t, out.String())
	if len(resps) != 6 {
		t.Fatalf("got %d responses, want 6:\n%s", len(resps), out.String())
	}
	for i, r := range resps {
		if r["ok"] != true {
			t.Fatalf("response %d not ok: %v", i, r)
		}
	}
	if resps[0]["fired"] != float64(1) || resps[0]["state_hash"] == "" {
		t.Errorf("assert response = %v", resps[0])
	}
	// The copied row is visible to the follow-up select.
	res, _ := json.Marshal(resps[1]["results"])
	if got := string(res); !strings.Contains(got, "[[7]]") {
		t.Errorf("select results = %s, want row [7]", got)
	}
	if resps[2]["ready"] != true || resps[2]["degraded"] != false {
		t.Errorf("health = %v", resps[2])
	}
	if resps[4]["completed"] != float64(2) {
		t.Errorf("stats completed = %v, want 2 (checkpoints are not counted)", resps[4]["completed"])
	}
	if resps[5]["state"] != "draining" {
		t.Errorf("shutdown ack state = %v", resps[5]["state"])
	}
	if !strings.Contains(out.String(), "ruled: drained cleanly") {
		t.Errorf("missing drain confirmation:\n%s", out.String())
	}
}

func TestRuledDurableAcrossSessions(t *testing.T) {
	sp, rp, wd := fixture(t)
	var out, errb bytes.Buffer
	code := run([]string{"-schema", sp, "-rules", rp, "-wal", wd},
		strings.NewReader(`{"op":"assert","sql":"insert into src values (3)"}`), &out, &errb)
	if code != 0 {
		t.Fatalf("first session: exit %d; %s", code, errb.String())
	}
	out.Reset()
	code = run([]string{"-schema", sp, "-rules", rp, "-wal", wd},
		strings.NewReader(`{"op":"assert","sql":"select v from dst"}`), &out, &errb)
	if code != 0 {
		t.Fatalf("second session: exit %d; %s", code, errb.String())
	}
	resps := decodeLines(t, out.String())
	res, _ := json.Marshal(resps[0]["results"])
	if got := string(res); !strings.Contains(got, "[[3]]") {
		t.Errorf("state did not survive restart: select = %s", got)
	}
}

func TestRuledBadRequestLines(t *testing.T) {
	sp, rp, wd := fixture(t)
	stdin := strings.NewReader(strings.Join([]string{
		`{not json`,
		`{"op":"frobnicate"}`,
		`{"op":"assert","sql":"insert into nosuch values (1)"}`,
	}, "\n"))
	var out, errb bytes.Buffer
	if code := run([]string{"-schema", sp, "-rules", rp, "-wal", wd}, stdin, &out, &errb); code != 0 {
		t.Fatalf("exit = %d; %s", code, errb.String())
	}
	resps := decodeLines(t, out.String())
	if len(resps) != 3 {
		t.Fatalf("got %d responses, want 3:\n%s", len(resps), out.String())
	}
	if resps[0]["ok"] != false || resps[0]["code"] != "bad-request" {
		t.Errorf("bad JSON response = %v", resps[0])
	}
	if resps[1]["code"] != "bad-request" || !strings.Contains(resps[1]["error"].(string), "frobnicate") {
		t.Errorf("unknown op response = %v", resps[1])
	}
	// A failed assert is an error response, not a dead server.
	if resps[2]["ok"] != false {
		t.Errorf("bad SQL response = %v", resps[2])
	}
}

func TestRuledLivelockErrorCode(t *testing.T) {
	dir := t.TempDir()
	sp := write(t, dir, "schema.sdl", "table ping (v int)\ntable pong (v int)\n")
	rp := write(t, dir, "rules.srl", `
create rule ra on ping when inserted then delete from ping; insert into pong values (1)
create rule rb on pong when inserted then delete from pong; insert into ping values (1)
`)
	stdin := strings.NewReader(strings.Join([]string{
		`{"op":"assert","sql":"insert into ping values (1)"}`,
		`{"op":"assert","sql":"select v from ping"}`,
	}, "\n"))
	var out, errb bytes.Buffer
	code := run([]string{"-schema", sp, "-rules", rp, "-wal", filepath.Join(dir, "wal"), "-maxsteps", "64"}, stdin, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d; %s", code, errb.String())
	}
	resps := decodeLines(t, out.String())
	if resps[0]["ok"] != false || resps[0]["code"] != "livelock" {
		t.Errorf("livelocked assert = %v, want code livelock", resps[0])
	}
	// The livelocked transaction rolled back: ping is empty.
	res, _ := json.Marshal(resps[1]["results"])
	if got := string(res); strings.Contains(got, "[[1]]") {
		t.Errorf("livelocked transaction leaked rows: %s", got)
	}
}

func TestRuledUsageErrors(t *testing.T) {
	sp, rp, wd := fixture(t)
	cases := [][]string{
		{},
		{"-schema", sp, "-rules", rp},
		{"-schema", sp, "-rules", rp, "-wal", wd, "-fsync", "bogus"},
		{"-schema", sp, "-rules", rp, "-wal", wd, "-strategy", "bogus"},
		{"-schema", "/nonexistent", "-rules", rp, "-wal", wd},
		{"-schema", sp, "-rules", rp, "-wal", wd, "-parallel", "2"},     // no such flag
		{"-schema", sp, "-rules", rp, "-wal", wd, "-compiled=false"},    // no such flag
		{"-schema", sp, "-rules", rp, "-wal", wd, "-fsync", "always"},   // no such policy
		{"-schema", sp, "-rules", rp, "-wal", wd, "-group-commit", "2"}, // no such flag
		{"-schema", sp, "-rules", rp, "-wal", wd, "-seed", "1"},         // no such flag
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(args, strings.NewReader(""), &out, &errb); code != 2 {
			t.Errorf("args %v: exit %d, want 2; stderr: %s", args, code, errb.String())
		}
	}
}

func TestRuledUnrecoverableWALExitCode(t *testing.T) {
	sp, rp, wd := fixture(t)
	var out, errb bytes.Buffer
	if code := run([]string{"-schema", sp, "-rules", rp, "-wal", wd},
		strings.NewReader(`{"op":"assert","sql":"insert into src values (1)"}`), &out, &errb); code != 0 {
		t.Fatalf("priming session: exit %d; %s", code, errb.String())
	}
	if err := os.WriteFile(filepath.Join(wd, "snapshot.db"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errb.Reset()
	code := run([]string{"-schema", sp, "-rules", rp, "-wal", wd}, strings.NewReader(""), &out, &errb)
	if code != 7 {
		t.Fatalf("corrupt snapshot: exit %d, want 7; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "unrecoverable write-ahead log") {
		t.Errorf("stderr missing diagnostic:\n%s", errb.String())
	}
}

// syncBuffer lets the test read stdout while run writes it from another
// goroutine.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestRuledTCPSession(t *testing.T) {
	sp, rp, wd := fixture(t)
	var out syncBuffer
	var errb syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-schema", sp, "-rules", rp, "-wal", wd, "-listen", "127.0.0.1:0"},
			strings.NewReader(""), &out, &errb)
	}()

	// The server prints its bound address once listening.
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server never listened; stdout: %s stderr: %s", out.String(), errb.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "ruled: listening "); ok {
				addr = strings.TrimSpace(rest)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	send := func(line string) map[string]any {
		t.Helper()
		if _, err := fmt.Fprintln(conn, line); err != nil {
			t.Fatal(err)
		}
		if !sc.Scan() {
			t.Fatalf("no response to %q: %v", line, sc.Err())
		}
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad response %q: %v", sc.Text(), err)
		}
		return m
	}

	if r := send(`{"op":"assert","sql":"insert into src values (9)"}`); r["ok"] != true || r["fired"] != float64(1) {
		t.Fatalf("assert over TCP = %v", r)
	}
	if r := send(`{"op":"health"}`); r["ready"] != true {
		t.Fatalf("health over TCP = %v", r)
	}
	if r := send(`{"op":"shutdown"}`); r["ok"] != true {
		t.Fatalf("shutdown over TCP = %v", r)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit = %d; stderr: %s", code, errb.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not exit after shutdown op")
	}
}
