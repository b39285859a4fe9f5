package main

// CLI coverage for the automatic-failover (-cluster) serving mode and
// the follower lag-health surface.

import (
	"net"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestRuledClusterFlagConflicts(t *testing.T) {
	sp, rp, wd := fixture(t)
	for _, args := range [][]string{
		{"-schema", sp, "-rules", rp, "-wal", wd, "-cluster", "-replicate", "127.0.0.1:0", "-peer", "127.0.0.1:1", "-shards", "2"},
		{"-schema", sp, "-rules", rp, "-wal", wd, "-cluster", "-replicate", "127.0.0.1:0", "-peer", "127.0.0.1:1", "-follow", "127.0.0.1:1"},
		{"-schema", sp, "-rules", rp, "-wal", wd, "-cluster", "-peer", "127.0.0.1:1"},
		{"-schema", sp, "-rules", rp, "-wal", wd, "-cluster", "-replicate", "127.0.0.1:0"},
		{"-tenants", t.TempDir(), "-cluster"},
	} {
		var out, errb syncBuffer
		if code := run(args, strings.NewReader(""), &out, &errb); code != 2 {
			t.Fatalf("%v: exit = %d, want 2; stderr: %s", args, code, errb.String())
		}
	}
}

// freePort binds an ephemeral port, notes it, and releases it, so two
// cluster members can be cross-wired with static -peer flags.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestRuledClusterPairEndToEnd starts both members of a failover pair
// in-process: the bootstrap node must lead and acknowledge asserts, the
// peer must follow and answer asserts with a redirect carrying the
// leader's advertised address, and both health surfaces must report the
// supervisor's view.
func TestRuledClusterPairEndToEnd(t *testing.T) {
	sp, rp, _ := fixture(t)
	dirA := filepath.Join(t.TempDir(), "wal-a")
	dirB := filepath.Join(t.TempDir(), "wal-b")
	addrA, addrB := freePort(t), freePort(t)

	a := startRuled(t, []string{"-schema", sp, "-rules", rp, "-wal", dirA,
		"-cluster", "-replicate", addrA, "-peer", addrB,
		"-bootstrap", "-lease", "300ms", "-advertise", "node-a"})
	a.statusLine("ruled: cluster member on ")
	b := startRuled(t, []string{"-schema", sp, "-rules", rp, "-wal", dirB,
		"-cluster", "-replicate", addrB, "-peer", addrA,
		"-lease", "300ms", "-advertise", "node-b"})
	b.statusLine("ruled: cluster member on ")

	// A fresh leader is suspended until its follower's first ack, so
	// the first asserts may bounce with a redirect; retry until acked.
	deadline := time.Now().Add(15 * time.Second)
	sent, acked := 0, false
	for !acked && time.Now().Before(deadline) {
		a.send(`{"op":"assert","sql":"insert into src values (7)"}`)
		sent++
		resp := a.waitResponses(sent)[sent-1]
		switch {
		case resp["ok"] == true:
			acked = true
		case resp["code"] == "redirect":
			time.Sleep(20 * time.Millisecond)
		default:
			t.Fatalf("leader assert = %v", resp)
		}
	}
	if !acked {
		t.Fatalf("bootstrap node never acknowledged an assert; out: %s", a.out.String())
	}

	b.send(`{"op":"assert","sql":"insert into src values (8)"}`)
	if resp := b.waitResponses(1)[0]; resp["code"] != "redirect" || resp["leader"] != "node-a" {
		t.Fatalf("follower assert = %v, want code redirect with leader node-a", resp)
	}

	a.send(`{"op":"health"}`)
	ah := a.waitResponses(sent + 1)[sent]
	if ah["role"] != "leader" || ah["epoch"] != float64(1) || ah["ready"] != true {
		t.Fatalf("leader health = %v", ah)
	}
	if _, ok := ah["serve"].(map[string]any); !ok {
		t.Fatalf("leader health carries no serve sub-view: %v", ah)
	}
	b.send(`{"op":"health"}`)
	bh := b.waitResponses(2)[1]
	if bh["role"] != "follower" || bh["leader"] != "node-a" {
		t.Fatalf("follower health = %v", bh)
	}
	if repl, ok := bh["replication"].(map[string]any); !ok || repl["leader"] != "node-a" {
		t.Fatalf("follower health replication sub-view = %v", bh["replication"])
	}

	// The bodies' shapes are pinned as sorted, dotted key sets: values
	// carry ports and epochs, keys do not. A follower's stats is its
	// health.
	a.send(`{"op":"stats"}`)
	as := a.waitResponses(sent + 2)[sent+1]
	b.send(`{"op":"stats"}`)
	bs := b.waitResponses(3)[2]
	const followerKeys = "epoch failovers leader ok ready replication.behind replication.epoch replication.gen " +
		"replication.last_frame_ms replication.leader replication.off replication.ready replication.state " +
		"replication.state_hash role"
	for _, tc := range []struct {
		name string
		body map[string]any
		want string
	}{
		{"leader health", ah, "epoch failovers leader ok ready role serve.degraded serve.probing serve.quarantined " +
			"serve.ready serve.report serve.state"},
		{"leader stats", as, "accepted avg_service_ns completed failed ok probing quarantined queue_cap queue_len " +
			"reopens shed_deadline shed_overload state"},
		{"follower health", bh, followerKeys},
		{"follower stats", bs, followerKeys},
	} {
		if got := strings.Join(dottedKeys(tc.body), " "); got != tc.want {
			t.Errorf("%s keys:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}

	b.shutdown()
	a.shutdown()
}

// dottedKeys flattens a response body to its sorted key paths. The
// last_error keys are skipped: they record a transient (a dial that
// raced the peer's listener) and so come and go between runs.
func dottedKeys(body map[string]any) []string {
	var keys []string
	var walk func(prefix string, m map[string]any)
	walk = func(prefix string, m map[string]any) {
		for k, v := range m {
			if sub, ok := v.(map[string]any); ok {
				walk(prefix+k+".", sub)
			} else if k != "last_error" {
				keys = append(keys, prefix+k)
			}
		}
	}
	walk("", body)
	sort.Strings(keys)
	return keys
}

// TestRuledFollowerLagHealthGolden pins the follower health wire shape
// — including the replication-lag fields — as a golden transcript. The
// one wall-clock field (last_frame_ms) is normalized to 0.
func TestRuledFollowerLagHealthGolden(t *testing.T) {
	sp, rp, wd := fixture(t)
	leader := startRuled(t, []string{"-schema", sp, "-rules", rp, "-wal", wd, "-replicate", "127.0.0.1:0"})
	addr := leader.statusLine("ruled: replicating on ")
	leader.send(`{"op":"assert","sql":"insert into src values (7)"}`)
	leader.send(`{"op":"assert"}`) // fence: makes the insert applicable
	lresps := leader.waitResponses(2)
	wantHash, _ := lresps[0]["state_hash"].(string)
	if wantHash == "" {
		t.Fatalf("leader assert carries no state_hash: %v", lresps[0])
	}

	fwd := filepath.Join(t.TempDir(), "replica-wal")
	follower := startRuled(t, []string{"-schema", sp, "-rules", rp, "-wal", fwd, "-follow", addr})
	norm := regexp.MustCompile(`"last_frame_ms":\d+`)
	var got string
	deadline := time.Now().Add(10 * time.Second)
	polls := 0
	for got == "" && time.Now().Before(deadline) {
		follower.send(`{"op":"health"}`)
		polls++
		resps := follower.waitResponses(polls)
		r := resps[polls-1]
		if r["state"] == "following" && r["state_hash"] == wantHash && r["behind"] == float64(0) {
			lines := strings.Split(strings.TrimSpace(follower.out.String()), "\n")
			got = norm.ReplaceAllString(lines[len(lines)-1], `"last_frame_ms":0`) + "\n"
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got == "" {
		t.Fatalf("follower never caught up to %s; out: %s", wantHash, follower.out.String())
	}
	follower.shutdown()
	leader.shutdown()

	checkGolden(t, "follower_health.golden", got)
}
