package main

// The wire front over a fake serve.Service: which method each op
// reaches for each routing case, what code comes back when it reaches
// none, and the over-long-line rejection.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"activerules"
	"activerules/internal/serve"
	"activerules/internal/wal"
)

// fakeService records the Service methods the front calls on it.
type fakeService struct {
	mu    sync.Mutex
	calls []string
	delay time.Duration // Submit's service time
}

func (f *fakeService) called(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = append(f.calls, name)
}

func (f *fakeService) Submit(_ context.Context, req serve.Request) (*serve.Response, error) {
	f.called("Submit")
	time.Sleep(f.delay)
	return &serve.Response{StateHash: req.SQL}, nil
}
func (f *fakeService) Checkpoint(context.Context) error { f.called("Checkpoint"); return nil }
func (f *fakeService) HealthView() any {
	f.called("HealthView")
	return map[string]any{"view": "health"}
}
func (f *fakeService) StatsView() any { f.called("StatsView"); return map[string]any{"view": "stats"} }

// TestFrontRouting is op × routing case → the root method called (""
// for none) and the wire code ("" for ok). A single system rejects
// every tenant-routed op; a fleet sends tenant-less ops to its root and
// refuses to resolve a tenant it does not host.
func TestFrontRouting(t *testing.T) {
	m, err := activerules.OpenTenants("root", activerules.TenantConfig{FS: wal.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())

	type want struct{ call, code string }
	routes := []struct {
		name   string
		fleet  bool
		tenant string
	}{
		{"single/no-tenant", false, ""},
		{"single/tenant", false, "acme"},
		{"fleet/no-tenant", true, ""},
		{"fleet/unknown-tenant", true, "nosuch"},
	}
	ops := []struct {
		op    string
		wants [4]want // parallel to routes
	}{
		{"assert", [4]want{{"Submit", ""}, {"", "no-tenant"}, {"Submit", ""}, {"", "no-tenant"}}},
		{"checkpoint", [4]want{{"Checkpoint", ""}, {"", "no-tenant"}, {"Checkpoint", ""}, {"", "no-tenant"}}},
		{"health", [4]want{{"HealthView", ""}, {"", "no-tenant"}, {"HealthView", ""}, {"", "no-tenant"}}},
		{"stats", [4]want{{"StatsView", ""}, {"", "no-tenant"}, {"StatsView", ""}, {"", "no-tenant"}}},
		{"tenant-stats", [4]want{{"", "no-tenant"}, {"", "no-tenant"}, {"StatsView", ""}, {"", "no-tenant"}}},
		{"tenant-load", [4]want{{"", "no-tenant"}, {"", "no-tenant"}, {"", "bad-request"}, {"", "no-tenant"}}},
		{"tenant-swap", [4]want{{"", "no-tenant"}, {"", "no-tenant"}, {"", "bad-request"}, {"", "no-tenant"}}},
		{"tenant-drop", [4]want{{"", "no-tenant"}, {"", "no-tenant"}, {"", "bad-request"}, {"", "no-tenant"}}},
		{"tenant-create", [4]want{{"", "no-tenant"}, {"", "no-tenant"}, {"", "bad-request"}, {"", "error"}}},
		{"frobnicate", [4]want{{"", "bad-request"}, {"", "bad-request"}, {"", "bad-request"}, {"", "bad-request"}}},
	}
	for _, o := range ops {
		for i, r := range routes {
			fake := &fakeService{}
			f := front{root: fake}
			if r.fleet {
				f.fleet = m
			}
			var out bytes.Buffer
			// The schema is a parse error, should a tenant-create get that far.
			line := op(t, map[string]any{"op": o.op, "tenant": r.tenant, "schema": "table"})
			f.serveLines(strings.NewReader(line), &out, func() {})
			var resp map[string]any
			if err := json.Unmarshal(out.Bytes(), &resp); err != nil {
				t.Fatalf("%s %s: response %q: %v", o.op, r.name, out.String(), err)
			}
			code, _ := resp["code"].(string)
			if got := strings.Join(fake.calls, ","); got != o.wants[i].call || code != o.wants[i].code {
				t.Errorf("%s %s: called %q, code %q; want %q, %q (response %s)",
					o.op, r.name, got, code, o.wants[i].call, o.wants[i].code, out.String())
			}
			if (code == "") != (resp["ok"] == true) {
				t.Errorf("%s %s: ok and code disagree: %s", o.op, r.name, out.String())
			}
		}
	}
}

// TestFrontConcurrentPeersWholeLines runs several peers at once against
// one slow service and one shared writer: their responses may
// interleave, but only as whole lines.
func TestFrontConcurrentPeersWholeLines(t *testing.T) {
	const peers, perPeer = 8, 20
	f := front{root: &fakeService{delay: 200 * time.Microsecond}}
	var out syncBuffer
	var wg sync.WaitGroup
	for p := 0; p < peers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var in strings.Builder
			for i := 0; i < perPeer; i++ {
				fmt.Fprintf(&in, "{\"op\":\"assert\",\"sql\":\"peer %d request %d\"}\n", p, i)
			}
			f.serveLines(strings.NewReader(in.String()), &out, func() {})
		}(p)
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, r := range decodeLines(t, out.String()) {
		if r["ok"] != true {
			t.Fatalf("response = %v", r)
		}
		seen[r["state_hash"].(string)] = true
	}
	if len(seen) != peers*perPeer {
		t.Errorf("%d distinct whole responses, want %d", len(seen), peers*perPeer)
	}
}

// overlongSession is a request line over the scanner's cap between two
// good ones.
func overlongSession() string {
	return `{"op":"health"}` + "\n" +
		`{"op":"assert","sql":"` + strings.Repeat("x", maxLine) + `"}` + "\n" +
		`{"op":"health"}` + "\n"
}

// TestRuledOverlongLineStdio: the line the scanner cannot hold is
// answered with bad-request naming the limit — it used to get no
// response while the session "ended cleanly" — and, the stream being
// unreadable past it, the server then drains as on EOF.
func TestRuledOverlongLineStdio(t *testing.T) {
	sp, rp, wd := fixture(t)
	var out, errb bytes.Buffer
	code := run([]string{"-schema", sp, "-rules", rp, "-wal", wd}, strings.NewReader(overlongSession()), &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d; stderr: %s", code, errb.String())
	}
	resps := decodeLines(t, out.String())
	if len(resps) != 2 {
		t.Fatalf("got %d responses, want 2 (health, then the rejection):\n%s", len(resps), out.String())
	}
	if resps[0]["ok"] != true {
		t.Errorf("health before the long line = %v", resps[0])
	}
	msg, _ := resps[1]["error"].(string)
	if resps[1]["ok"] != false || resps[1]["code"] != "bad-request" || !strings.Contains(msg, fmt.Sprint(maxLine)) {
		t.Errorf("over-long line response = %v, want bad-request naming the %d-byte limit", resps[1], maxLine)
	}
}

// TestRuledOverlongLineTCP: the offending peer is answered and released;
// the server keeps serving the others.
func TestRuledOverlongLineTCP(t *testing.T) {
	sp, rp, wd := fixture(t)
	p := startRuled(t, []string{"-schema", sp, "-rules", rp, "-wal", wd, "-listen", "127.0.0.1:0"})
	addr := p.statusLine("ruled: listening ")

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() { _, _ = conn.Write([]byte(overlongSession())) }()
	sc := bufio.NewScanner(conn)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != 2 || !strings.Contains(lines[1], `"code":"bad-request"`) || !strings.Contains(lines[1], fmt.Sprint(maxLine)) {
		t.Fatalf("peer got %q, want a health response, the bad-request, then EOF", lines)
	}

	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	fmt.Fprintln(conn2, `{"op":"health"}`)
	sc2 := bufio.NewScanner(conn2)
	if !sc2.Scan() || !strings.Contains(sc2.Text(), `"ready":true`) {
		t.Fatalf("server stopped serving after one peer's over-long line: %q %v", sc2.Text(), sc2.Err())
	}
	fmt.Fprintln(conn2, `{"op":"shutdown"}`)
	select {
	case code := <-p.done:
		if code != 0 {
			t.Fatalf("exit = %d; stderr: %s", code, p.errb.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("no exit after shutdown")
	}
}
