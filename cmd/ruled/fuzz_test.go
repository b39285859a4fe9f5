package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"activerules"
	"activerules/internal/wal"
)

// FuzzWireOp throws arbitrary bytes at the wire-protocol line decoder —
// including the tenant lifecycle ops — against a live multi-tenant
// backend. Invariants: serveLines never panics, and every response line
// is a JSON object carrying an "ok" field (malformed input becomes a
// typed wire error, never silence or garbage).

var (
	fuzzOnce  sync.Once
	fuzzFront front
)

const fuzzTenant = "inv"

// fuzzManager builds one in-memory manager per test process. MaxTenants
// caps what hostile tenant-create streams can allocate.
func fuzzManager(f *testing.F) front {
	f.Helper()
	fuzzOnce.Do(func() {
		m, err := activerules.OpenTenants("root", activerules.TenantConfig{
			FS:         wal.NewMemFS(),
			MaxTenants: 8,
		})
		if err != nil {
			f.Fatal(err)
		}
		fuzzFront = front{root: m.Fleet(), fleet: m}
	})
	if fuzzFront.fleet == nil {
		f.Fatal("fuzz manager failed to start in an earlier target")
	}
	return fuzzFront
}

// ensureInvariantTenant restores the standing tenant a legitimate fuzz
// input may have dropped: Load revives a detached drop, Create replaces
// a destroyed one, and a stranger is evicted if an input-made fleet
// filled the MaxTenants quota.
func ensureInvariantTenant(t *testing.T, b front) {
	t.Helper()
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if _, err := b.fleet.Load(fuzzTenant); err == nil {
			return
		}
		if _, err := b.fleet.Create(fuzzTenant, "table t (v int)\ntable l (v int)\n",
			"create rule copy on t when inserted then insert into l select v from inserted"); err == nil {
			return
		} else {
			lastErr = err
		}
		for _, id := range b.fleet.Tenants() {
			if id != fuzzTenant {
				_ = b.fleet.Drop(id, true)
				break
			}
		}
	}
	t.Fatalf("cannot restore invariant tenant: %v", lastErr)
}

func FuzzWireOp(f *testing.F) {
	seeds := []string{
		`{"op":"assert","tenant":"inv","sql":"insert into t values (1)"}`,
		`{"op":"assert","tenant":"inv","sql":"select v from l"}`,
		`{"op":"assert","sql":"insert into t values (1)"}`,
		`{"op":"checkpoint","tenant":"inv"}`,
		`{"op":"health"}` + "\n" + `{"op":"stats","tenant":"inv"}`,
		`{"op":"tenant-create","tenant":"fz","schema":"table a (v int)\n","rules":""}`,
		`{"op":"tenant-swap","tenant":"inv","rules":"create rule r on t when inserted then insert into t values (1)"}`,
		`{"op":"tenant-drop","tenant":"inv","destroy":true}`,
		`{"op":"tenant-stats"}`,
		`{"op":"tenant-load","tenant":"../escape"}`,
		`{"op":"frobnicate"}`,
		`{not json`,
		``,
		`null`,
		`[1,2,3]`,
		`{"op":"assert","tenant":"inv","sql":"` + strings.Repeat("select ", 40) + `"}`,
		"{\"op\":\"assert\",\"tenant\":\"inv\",\"sql\":\"insert into t values (\xff\xfe)\"}",
		`{"op":"shutdown"}`,
		// Over the scanner's cap: answered with bad-request, never parsed.
		overlongSession(),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	b := fuzzManager(f)
	f.Fuzz(func(t *testing.T, line string) {
		// Inputs between what a parser can be made to chew on cheaply and
		// the scanner's cap are skipped; past the cap the scanner rejects
		// the line unread, which is cheap again and must still be answered.
		if len(line) > 2048 && len(line) <= maxLine {
			t.Skip("oversized input")
		}
		ensureInvariantTenant(t, b)
		var out bytes.Buffer
		b.serveLines(strings.NewReader(line), &out, func() {})
		for _, resp := range strings.Split(strings.TrimRight(out.String(), "\n"), "\n") {
			if resp == "" {
				continue
			}
			var m map[string]any
			if err := json.Unmarshal([]byte(resp), &m); err != nil {
				t.Fatalf("non-JSON response line %q to input %q: %v", resp, line, err)
			}
			if _, hasOK := m["ok"]; !hasOK {
				t.Fatalf("response %q to input %q lacks the ok field", resp, line)
			}
		}
	})
}
