package tenant

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"activerules/internal/analysis"
	"activerules/internal/ruledef"
	"activerules/internal/rules"
	"activerules/internal/schema"
	"activerules/internal/serve"
)

// The shared analysis cache. Hosting thousands of tenants would pay the
// §5–§8 analyses per tenant even though fleets overwhelmingly deploy a
// handful of distinct rule sets; the cache keys each analysis by the
// canonical rule-set hash so byte-identical (schema, rules) pairs run
// the analyzer exactly once, whatever tenant loads them and in
// whatever order. Entries are immutable and never evicted: a Summary
// outlives every tenant that referenced it, so a drop-and-recreate
// cycle is a guaranteed hit.

// RuleSetHash is the canonical identity of a (schema, rules) source
// pair: hex(sha256(schemaSrc || 0x00 || rulesSrc)). Hashing the source
// bytes rather than a parsed form is deliberate — "identical rule set"
// in the cache-sharing guarantee means byte-identical, the only
// equality cheap enough to check on every load.
func RuleSetHash(schemaSrc, rulesSrc string) string {
	h := sha256.New()
	h.Write([]byte(schemaSrc))
	h.Write([]byte{0})
	h.Write([]byte(rulesSrc))
	return hex.EncodeToString(h.Sum(nil))
}

// Summary is one cache entry: everything the tenant layer needs from a
// full analyzer run over one rule set. It is immutable after
// construction and shared by reference across tenants.
type Summary struct {
	// Hash is the entry's RuleSetHash key.
	Hash string
	// TermGuaranteed / Term are the §5 termination verdict and its
	// tiered status; ConfGuaranteed the §6 confluence verdict;
	// ObsGuaranteed the §8 observable-determinism verdict. Swap gating
	// compares the Guaranteed fields.
	TermGuaranteed bool
	Term           analysis.TerminationStatus
	ConfGuaranteed bool
	ObsGuaranteed  bool
	// Baseline is the per-table §7 Sig/partial-confluence baseline the
	// serving layer's degraded mode starts from. Shared (read-only)
	// across every server with this rule set.
	Baseline *serve.Baseline
	// Report is the rendered analysis report (termination, confluence,
	// observable determinism). The cache's byte-equality tripwire
	// re-renders on verified hits and insists on identical bytes.
	Report []byte
}

// Cache is the shared analysis cache. Safe for concurrent use; the
// compute lock is held across the analyzer run, so concurrent loads of
// the same rule set single-flight into one run.
type Cache struct {
	// verify enables the byte-equality tripwire: every hit recomputes
	// the analysis and fails loudly if the cached report differs.
	verify bool

	mu      sync.Mutex
	entries map[string]*Summary
	hits    int
	misses  int
}

// NewCache returns an empty cache; verify enables the hit tripwire.
func NewCache(verify bool) *Cache {
	return &Cache{verify: verify, entries: map[string]*Summary{}}
}

// Summary returns the analysis summary for (sch, defs) sources,
// computing and caching it on first sight. The parsed forms are passed
// alongside the sources so the caller's parse is not repeated; they
// MUST correspond to the source bytes.
func (c *Cache) Summary(schemaSrc, rulesSrc string, sch *schema.Schema, defs []rules.Definition) (*Summary, error) {
	key := RuleSetHash(schemaSrc, rulesSrc)
	c.mu.Lock()
	defer c.mu.Unlock()
	if sum, ok := c.entries[key]; ok {
		c.hits++
		if c.verify {
			again, err := c.compute(key, sch, defs)
			if err != nil {
				return nil, fmt.Errorf("tenant: cache verify recompute: %w", err)
			}
			if !bytes.Equal(again.Report, sum.Report) {
				return nil, fmt.Errorf("tenant: analysis cache tripwire: hit for %s returned a different report than recomputation", key[:12])
			}
		}
		return sum, nil
	}
	c.misses++
	sum, err := c.compute(key, sch, defs)
	if err != nil {
		return nil, err
	}
	c.entries[key] = sum
	return sum, nil
}

// compute runs one full analyzer pass. Called with c.mu held.
func (c *Cache) compute(key string, sch *schema.Schema, defs []rules.Definition) (*Summary, error) {
	set, err := rules.NewSet(sch, defs)
	if err != nil {
		return nil, err
	}
	a := analysis.New(set, nil)
	term := a.Termination()
	conf := a.Confluence()
	obs := a.ObservableDeterminism()

	sum := &Summary{
		Hash:           key,
		TermGuaranteed: term.Guaranteed,
		Term:           term.Status,
		ConfGuaranteed: conf.Guaranteed,
		ObsGuaranteed:  obs.Guaranteed(),
		Baseline:       serve.BaselineOf(a, nil, term.Status),
	}

	var rep bytes.Buffer
	rep.WriteString(analysis.ReportTermination(term))
	rep.WriteString(analysis.ReportConfluence(conf))
	rep.WriteString(analysis.ReportObservable(obs))
	sum.Report = rep.Bytes()
	return sum, nil
}

// Stats returns (hits, misses, entries). Misses equal analyzer runs
// when verification is off.
func (c *Cache) Stats() (hits, misses, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.entries)
}

// parseSources parses a (schema, rules) source pair into the forms the
// cache and the serving layer consume.
func parseSources(schemaSrc, rulesSrc string) (*schema.Schema, []rules.Definition, error) {
	sch, err := schema.Parse(schemaSrc)
	if err != nil {
		return nil, nil, err
	}
	defs, err := ruledef.Parse(rulesSrc)
	if err != nil {
		return nil, nil, err
	}
	return sch, defs, nil
}
