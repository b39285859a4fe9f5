package tenant

import (
	"bytes"
	"context"
	"testing"

	"activerules/internal/wal"
)

// The shared-analysis-cache guarantees (tentpole + satellite): byte-
// identical rule sets across tenants pay for analysis exactly once, a
// one-rule perturbation misses, entries survive tenant drops, and the
// verify tripwire holds cache hits to byte-equal reports.

const cacheSchema = `
table t (v int)
table l (v int)
`

const cacheRules = `create rule copy on t when inserted then insert into l select v from inserted`

// cacheRulesPerturbed differs from cacheRules by one rule name only.
const cacheRulesPerturbed = `create rule copy2 on t when inserted then insert into l select v from inserted`

func openTestManager(t *testing.T, fsys wal.FS, cfg Config) *Manager {
	t.Helper()
	cfg.FS = fsys
	m, err := Open("root", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Shutdown(context.Background()) })
	return m
}

func TestTenantCacheSharesAnalysis(t *testing.T) {
	m := openTestManager(t, wal.NewMemFS(), Config{})
	sumA, err := m.Create("a", cacheSchema, cacheRules)
	if err != nil {
		t.Fatal(err)
	}
	sumB, err := m.Create("b", cacheSchema, cacheRules)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses, entries := m.CacheStats()
	if misses != 1 {
		t.Errorf("two identical tenants ran the analyzer %d times, want 1", misses)
	}
	if hits == 0 {
		t.Errorf("second tenant did not hit the cache (hits=%d)", hits)
	}
	if entries != 1 {
		t.Errorf("cache holds %d entries, want 1", entries)
	}
	if sumA.Hash != sumB.Hash {
		t.Errorf("identical rule sets hashed differently: %s vs %s", sumA.Hash, sumB.Hash)
	}
	if !bytes.Equal(sumA.Report, sumB.Report) {
		t.Errorf("identical rule sets returned different reports:\n--- a ---\n%s--- b ---\n%s", sumA.Report, sumB.Report)
	}
	if len(sumA.Report) == 0 {
		t.Error("summary report is empty")
	}
}

func TestTenantCachePerturbationMisses(t *testing.T) {
	m := openTestManager(t, wal.NewMemFS(), Config{})
	sumA, err := m.Create("a", cacheSchema, cacheRules)
	if err != nil {
		t.Fatal(err)
	}
	sumB, err := m.Create("b", cacheSchema, cacheRulesPerturbed)
	if err != nil {
		t.Fatal(err)
	}
	_, misses, entries := m.CacheStats()
	if misses != 2 {
		t.Errorf("a one-rule perturbation should miss: misses=%d, want 2", misses)
	}
	if entries != 2 {
		t.Errorf("cache holds %d entries, want 2", entries)
	}
	if sumA.Hash == sumB.Hash {
		t.Errorf("different rule sets share hash %s", sumA.Hash)
	}
}

func TestTenantCacheSurvivesDrop(t *testing.T) {
	m := openTestManager(t, wal.NewMemFS(), Config{})
	if _, err := m.Create("a", cacheSchema, cacheRules); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("b", cacheSchema, cacheRules); err != nil {
		t.Fatal(err)
	}
	// Drop (and destroy) one of the two tenants referencing the entry.
	if err := m.Drop("a", true); err != nil {
		t.Fatal(err)
	}
	if _, _, entries := m.CacheStats(); entries != 1 {
		t.Errorf("cache entry did not survive the drop (entries=%d)", entries)
	}
	// A re-created tenant with the same rule set is a guaranteed hit.
	hitsBefore, missesBefore, _ := m.CacheStats()
	if _, err := m.Create("c", cacheSchema, cacheRules); err != nil {
		t.Fatal(err)
	}
	hits, misses, _ := m.CacheStats()
	if misses != missesBefore {
		t.Errorf("re-created rule set re-ran the analyzer (misses %d -> %d)", missesBefore, misses)
	}
	if hits <= hitsBefore {
		t.Errorf("re-created rule set did not hit the cache (hits %d -> %d)", hitsBefore, hits)
	}
	// The surviving tenant b still serves.
	if _, err := m.Submit(context.Background(), "b", serveRequest("insert into t values (1)")); err != nil {
		t.Fatal(err)
	}
}

// TestTenantCacheVerifyTripwire runs the byte-equality tripwire: with
// NewCache(true), every hit recomputes the analysis and compares
// reports byte-for-byte. A deterministic analyzer passes, on every
// one of several hits.
func TestTenantCacheVerifyTripwire(t *testing.T) {
	c := NewCache(true)
	sch, defs, err := parseSources(cacheSchema, cacheRules)
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.Summary(cacheSchema, cacheRules, sch, defs)
	if err != nil {
		t.Fatal(err)
	}
	for hit := 1; hit <= 3; hit++ {
		again, err := c.Summary(cacheSchema, cacheRules, sch, defs)
		if err != nil {
			t.Fatalf("hit %d: tripwire fired on a deterministic analyzer: %v", hit, err)
		}
		if first != again {
			t.Errorf("hit %d returned a different entry pointer", hit)
		}
	}
}

// TestTenantCacheReportParallelismStable pins the byte-stability the
// verify tripwire relies on: fresh caches render identical reports.
func TestTenantCacheReportParallelismStable(t *testing.T) {
	sch, defs, err := parseSources(cacheSchema, cacheRules)
	if err != nil {
		t.Fatal(err)
	}
	var base []byte
	for run := 1; run <= 3; run++ {
		sum, err := NewCache(false).Summary(cacheSchema, cacheRules, sch, defs)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = sum.Report
			continue
		}
		if !bytes.Equal(base, sum.Report) {
			t.Errorf("analysis report differs on run %d", run)
		}
	}
}
