// Package tenant hosts many independent rule systems inside one
// process: each tenant is a full System (schema + rules + private WAL
// directory) supervised by its own internal/serve server, while the
// expensive parts — the §5–§8 analyses — are shared through a cache
// keyed by the canonical rule-set hash. The manager adds the three
// guarantees single-tenant serving cannot give:
//
//   - isolation: a tenant's panicking rule, livelock pair, or storage
//     fault is confined to that tenant's server; every other tenant's
//     results, analysis verdicts, and degraded-mode reports are
//     byte-identical to running alone (the multi-tenant soak asserts
//     exactly this).
//   - quota fencing: per-tenant admission quotas (an outstanding-
//     request cap covering queue share + in-flight work) are enforced
//     BEFORE the tenant's queue, so one flooding tenant sheds with a
//     distinct *QuotaError while the others keep their slots.
//   - analyzer-gated reconfiguration: a hot rule-set swap is admitted
//     only if the candidate's Guaranteed termination and confluence
//     verdicts do not regress versus the live set; a regressing swap
//     is rejected (*SwapRejectedError) or, under QuarantineOnRegress,
//     admitted in degraded mode with the §7 Sig(T') per-table report.
//
// Durability: every tenant persists under root/tenants/<id>/wal plus a
// manifest file (manifest.go); Open rebuilds the whole fleet from disk,
// each tenant recovering its own last durable point from its own WAL.
package tenant

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"

	"activerules/internal/analysis"
	"activerules/internal/rules"
	"activerules/internal/schema"
	"activerules/internal/serve"
	"activerules/internal/wal"
)

// DefaultTenantSlots is the per-tenant outstanding-request quota when
// Config.TenantSlots is zero.
const DefaultTenantSlots = 8

// Config configures a Manager.
type Config struct {
	// FS is the filesystem hosting every tenant's WAL and the manifest
	// registry; nil means the real one (wal.OS). It overrides
	// Serve.WAL.FS.
	FS wal.FS
	// Serve is the per-tenant server template. The manager overrides
	// WAL.FS, Tenant, and Baseline per tenant; everything else (queue
	// depth, deadlines, breaker thresholds, fault injection in tests)
	// applies to every tenant alike.
	Serve serve.Config
	// TenantSlots caps each tenant's outstanding requests (queued plus
	// in-flight, counted at the manager's admission fence); 0 means
	// DefaultTenantSlots. Keep it below Serve.QueueDepth so a single
	// tenant can never fill a shared deployment's queues.
	TenantSlots int
	// MaxTenants caps resident tenants; 0 means unlimited.
	MaxTenants int
	// QuarantineOnRegress admits verdict-regressing swaps in degraded
	// mode (with a persistent QuarantineReport) instead of rejecting
	// them.
	QuarantineOnRegress bool
	// Customize, when non-nil, edits each tenant's serve.Config after
	// the manager's overrides — the test hook for per-tenant fault
	// injection.
	Customize func(id string, cfg *serve.Config)
}

// Manager supervises the tenant fleet. All methods are safe for
// concurrent use.
type Manager struct {
	root  string
	fs    wal.FS
	cfg   Config
	cache *Cache
	slots int

	// opMu serializes lifecycle operations (Create/Load/Swap/Drop) so
	// manifest writes and registry mutations cannot interleave; the data
	// plane (Submit/Checkpoint/Health/Stats) only ever takes mu or a
	// tenantState's own lock, so lifecycle work never stalls other
	// tenants' traffic.
	opMu sync.Mutex
	mu   sync.Mutex
	ts   map[string]*tenantState
	down bool
}

// tenantState is one resident tenant: its server behind the quota
// fence, which is what makes it a serve.Service (Manager.Tenant).
type tenantState struct {
	id    string
	slots int // the outstanding-request quota
	srv   *serve.Server

	mu         sync.Mutex
	schemaSrc  string
	summary    *Summary
	quarantine *QuarantineReport
	// outstanding counts admitted-but-unfinished requests; shedQuota
	// counts requests refused at the quota fence.
	outstanding int
	shedQuota   uint64
}

// Open attaches (or initializes) a tenant root: the registry directory
// is created if missing and every manifest found in it is started, each
// tenant recovering from its own WAL. A tenant that fails to start
// fails Open by name, after closing the tenants already started.
func Open(root string, cfg Config) (*Manager, error) {
	fs := cfg.FS
	if fs == nil {
		fs = wal.OS
	}
	slots := cfg.TenantSlots
	if slots <= 0 {
		slots = DefaultTenantSlots
	}
	m := &Manager{
		root:  root,
		fs:    fs,
		cfg:   cfg,
		cache: NewCache(false),
		slots: slots,
		ts:    map[string]*tenantState{},
	}
	if err := fs.MkdirAll(path.Join(root, tenantsDir)); err != nil {
		return nil, err
	}
	ids, err := m.listManifests()
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		mf, err := m.readManifest(id)
		if err == nil && mf == nil {
			err = fmt.Errorf("tenant %q: manifest vanished during open", id)
		}
		var ts *tenantState
		if err == nil {
			ts, err = m.parseAndBuild(mf)
		}
		if err != nil {
			_ = m.Shutdown(context.Background())
			return nil, fmt.Errorf("tenant %q: start: %w", id, err)
		}
		m.mu.Lock()
		m.ts[id] = ts
		m.mu.Unlock()
	}
	return m, nil
}

// parseAndBuild parses a manifest's sources and builds its tenant.
func (m *Manager) parseAndBuild(mf *manifest) (*tenantState, error) {
	sch, defs, err := parseSources(mf.Schema, mf.Rules)
	if err != nil {
		return nil, err
	}
	return m.build(mf, sch, defs)
}

// build fetches the shared analysis summary for a manifest whose
// sources parse to (sch, defs), and starts the tenant's server over its
// WAL directory.
func (m *Manager) build(mf *manifest, sch *schema.Schema, defs []rules.Definition) (*tenantState, error) {
	sum, err := m.cache.Summary(mf.Schema, mf.Rules, sch, defs)
	if err != nil {
		return nil, err
	}
	cfg := m.serveConfig(mf.ID, sum)
	srv, err := serve.New(sch, defs, walDir(m.root, mf.ID), cfg)
	if err != nil {
		return nil, err
	}
	return &tenantState{
		id:         mf.ID,
		slots:      m.slots,
		srv:        srv,
		schemaSrc:  mf.Schema,
		summary:    sum,
		quarantine: mf.Quarantine,
	}, nil
}

// serveConfig instantiates the per-tenant server config from the
// template.
func (m *Manager) serveConfig(id string, sum *Summary) serve.Config {
	cfg := m.cfg.Serve
	cfg.WAL.FS = m.fs
	cfg.Tenant = id
	cfg.Baseline = sum.Baseline
	if m.cfg.Customize != nil {
		m.cfg.Customize(id, &cfg)
	}
	return cfg
}

// Create registers a brand-new tenant from (schema, rules) sources:
// the sources are parsed and analyzed (through the shared cache)
// before anything touches disk, then the manifest is written atomically
// and the tenant's server starts on a fresh WAL directory.
func (m *Manager) Create(id, schemaSrc, rulesSrc string) (*Summary, error) {
	if !validID(id) {
		return nil, &IDError{Tenant: id}
	}
	m.opMu.Lock()
	defer m.opMu.Unlock()
	m.mu.Lock()
	if m.down {
		m.mu.Unlock()
		return nil, ErrManagerClosed
	}
	if _, ok := m.ts[id]; ok {
		m.mu.Unlock()
		return nil, &ExistsError{Tenant: id}
	}
	if m.cfg.MaxTenants > 0 && len(m.ts) >= m.cfg.MaxTenants {
		used := len(m.ts)
		m.mu.Unlock()
		return nil, &QuotaError{Tenant: id, Kind: QuotaTenants, Used: used, Limit: m.cfg.MaxTenants}
	}
	m.mu.Unlock()
	if mf, err := m.readManifest(id); err != nil {
		return nil, err
	} else if mf != nil {
		return nil, &ExistsError{Tenant: id, Detached: true}
	}

	// Validate before persisting: a tenant whose rule set does not parse
	// or analyze never reaches disk.
	sch, defs, err := parseSources(schemaSrc, rulesSrc)
	if err != nil {
		return nil, fmt.Errorf("tenant %q: %w", id, err)
	}
	if _, err := m.cache.Summary(schemaSrc, rulesSrc, sch, defs); err != nil {
		return nil, fmt.Errorf("tenant %q: %w", id, err)
	}
	mf := &manifest{ID: id, Schema: schemaSrc, Rules: rulesSrc}
	if err := m.writeManifest(mf); err != nil {
		return nil, err
	}
	ts, err := m.build(mf, sch, defs)
	if err != nil {
		// Roll the registration back so a failed start is not
		// rediscovered on the next Open.
		_ = m.fs.Remove(manifestPath(m.root, id))
		return nil, fmt.Errorf("tenant %q: start: %w", id, err)
	}
	return ts.summary, m.register(ts)
}

// Load attaches a detached on-disk tenant (idempotent: loading a
// resident tenant returns its summary unchanged).
func (m *Manager) Load(id string) (*Summary, error) {
	if !validID(id) {
		return nil, &IDError{Tenant: id}
	}
	m.opMu.Lock()
	defer m.opMu.Unlock()
	ts, err := m.lookup(id)
	if err == nil {
		ts.mu.Lock()
		defer ts.mu.Unlock()
		return ts.summary, nil
	}
	if !isNotFound(err) {
		return nil, err
	}
	mf, err := m.readManifest(id)
	if err != nil {
		return nil, err
	}
	if mf == nil {
		return nil, &NotFoundError{Tenant: id}
	}
	ts, err = m.parseAndBuild(mf)
	if err != nil {
		return nil, fmt.Errorf("tenant %q: start: %w", id, err)
	}
	return ts.summary, m.register(ts)
}

// register inserts a built tenant into the registry (or closes it when
// the manager raced shutdown). Caller holds opMu.
func (m *Manager) register(ts *tenantState) error {
	m.mu.Lock()
	if m.down {
		m.mu.Unlock()
		_ = ts.srv.Close()
		return ErrManagerClosed
	}
	m.ts[ts.id] = ts
	m.mu.Unlock()
	return nil
}

// Swap hot-replaces a tenant's rule set with rulesSrc (the schema is
// fixed for a tenant's lifetime — durable state depends on it). The
// candidate is analyzed through the shared cache and gated on the
// analyzer before the server is touched:
//
//   - no verdict regresses → the swap installs at a transaction
//     boundary and any standing quarantine report clears;
//   - Guaranteed termination or confluence regresses and
//     QuarantineOnRegress is off → *SwapRejectedError, the live set
//     keeps serving;
//   - regresses with QuarantineOnRegress on → the swap installs in
//     degraded mode and the returned QuarantineReport (also persisted
//     in the manifest and visible through Health) names the lost
//     verdicts and, per table, the candidate's Sig(T) where
//     determinism was lost.
func (m *Manager) Swap(ctx context.Context, id, rulesSrc string) (*Summary, *QuarantineReport, error) {
	m.opMu.Lock()
	defer m.opMu.Unlock()
	ts, err := m.lookup(id)
	if err != nil {
		return nil, nil, err
	}
	ts.mu.Lock()
	schemaSrc := ts.schemaSrc
	live := ts.summary
	ts.mu.Unlock()

	sch, defs, err := parseSources(schemaSrc, rulesSrc)
	if err != nil {
		return nil, nil, fmt.Errorf("tenant %q: %w", id, err)
	}
	cand, err := m.cache.Summary(schemaSrc, rulesSrc, sch, defs)
	if err != nil {
		return nil, nil, fmt.Errorf("tenant %q: %w", id, err)
	}

	var lost []string
	if live.TermGuaranteed && !cand.TermGuaranteed {
		lost = append(lost, "termination")
	}
	if live.ConfGuaranteed && !cand.ConfGuaranteed {
		lost = append(lost, "confluence")
	}
	var quar *QuarantineReport
	if len(lost) != 0 {
		if !m.cfg.QuarantineOnRegress {
			return nil, nil, &SwapRejectedError{
				Tenant:         id,
				Lost:           lost,
				WasTermination: live.Term,
				Termination:    cand.Term,
				WasConfluent:   live.ConfGuaranteed,
				Confluent:      cand.ConfGuaranteed,
			}
		}
		quar = quarantineReport(id, lost, live, cand)
	}

	if err := ts.srv.SwapRules(ctx, defs, cand.Baseline); err != nil {
		return nil, nil, err
	}
	ts.mu.Lock()
	ts.summary = cand
	ts.quarantine = quar
	ts.mu.Unlock()
	if err := m.writeManifest(&manifest{ID: id, Schema: schemaSrc, Rules: rulesSrc, Quarantine: quar}); err != nil {
		return nil, nil, fmt.Errorf("tenant %q: swap installed but manifest write failed: %w", id, err)
	}
	return cand, quar, nil
}

// Drop detaches a tenant: it leaves the registry, drains, and closes.
// destroy additionally deletes its manifest and WAL files (a detached
// tenant can instead be re-attached later with Load). The shared
// analysis cache deliberately keeps the rule set's entry — other
// tenants may still reference it, and a re-created tenant is a
// guaranteed cache hit.
func (m *Manager) Drop(id string, destroy bool) error {
	m.opMu.Lock()
	defer m.opMu.Unlock()
	m.mu.Lock()
	ts, ok := m.ts[id]
	if ok {
		delete(m.ts, id)
	}
	down := m.down
	m.mu.Unlock()
	if down {
		return ErrManagerClosed
	}
	if !ok {
		// Destroying a detached tenant is still meaningful.
		if !destroy {
			return &NotFoundError{Tenant: id}
		}
		if mf, err := m.readManifest(id); err != nil {
			return err
		} else if mf == nil {
			return &NotFoundError{Tenant: id}
		}
	}
	var closeErr error
	if ts != nil {
		closeErr = ts.srv.Close()
	}
	if destroy {
		if err := m.destroyFiles(id); err != nil && closeErr == nil {
			closeErr = err
		}
	}
	return closeErr
}

// destroyFiles removes a tenant's manifest and WAL files. The FS
// surface has no recursive remove, so the WAL directory is emptied
// file-by-file; the empty directory husk is harmless (discovery keys
// on manifest files only).
func (m *Manager) destroyFiles(id string) error {
	var firstErr error
	if names, err := m.fs.ReadDir(walDir(m.root, id)); err == nil {
		for _, name := range names {
			if err := m.fs.Remove(path.Join(walDir(m.root, id), name)); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	} else if !wal.IsNotExist(err) && firstErr == nil {
		firstErr = err
	}
	if err := m.fs.Remove(manifestPath(m.root, id)); err != nil && !wal.IsNotExist(err) && firstErr == nil {
		firstErr = err
	}
	if err := m.fs.SyncDir(path.Join(m.root, tenantsDir)); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// lookup resolves a resident tenant.
func (m *Manager) lookup(id string) (*tenantState, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.down {
		return nil, ErrManagerClosed
	}
	ts, ok := m.ts[id]
	if !ok {
		return nil, &NotFoundError{Tenant: id}
	}
	return ts, nil
}

// Tenant resolves a resident tenant to the serve.Service a front end
// drives: the tenant's own server behind its admission quota.
func (m *Manager) Tenant(id string) (serve.Service, error) {
	ts, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	return ts, nil
}

// Submit runs one request on a tenant's server, behind the tenant's
// admission quota: at most TenantSlots requests may be outstanding
// (queued or in flight) per tenant, and the quota is checked before
// the request touches the tenant's queue, so a flooding tenant sheds
// *QuotaError here without consuming anything another tenant wants.
func (m *Manager) Submit(ctx context.Context, id string, req serve.Request) (*serve.Response, error) {
	ts, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	return ts.Submit(ctx, req)
}

func (ts *tenantState) Submit(ctx context.Context, req serve.Request) (*serve.Response, error) {
	if err := ts.acquire(); err != nil {
		return nil, err
	}
	defer ts.release()
	return ts.srv.Submit(ctx, req)
}

// Checkpoint commits and rotates one tenant's WAL, behind the same
// quota fence as Submit (a checkpoint occupies a queue slot too).
func (m *Manager) Checkpoint(ctx context.Context, id string) error {
	ts, err := m.lookup(id)
	if err != nil {
		return err
	}
	return ts.Checkpoint(ctx)
}

func (ts *tenantState) Checkpoint(ctx context.Context) error {
	if err := ts.acquire(); err != nil {
		return err
	}
	defer ts.release()
	return ts.srv.Checkpoint(ctx)
}

func (ts *tenantState) acquire() error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.outstanding >= ts.slots {
		ts.shedQuota++
		return &QuotaError{Tenant: ts.id, Kind: QuotaSlots, Used: ts.outstanding, Limit: ts.slots}
	}
	ts.outstanding++
	return nil
}

func (ts *tenantState) release() {
	ts.mu.Lock()
	ts.outstanding--
	ts.mu.Unlock()
}

// Health is one tenant's readiness view, extended with any standing
// swap-quarantine report.
type Health struct {
	Tenant string
	serve.Health
	// SwapQuarantine is the report of a regressing swap admitted under
	// QuarantineOnRegress (nil when the live set was admitted cleanly).
	SwapQuarantine *QuarantineReport
}

// Health reports one tenant's state, degraded-mode report, and swap
// quarantine.
func (m *Manager) Health(id string) (*Health, error) {
	ts, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	return ts.health(), nil
}

func (ts *tenantState) health() *Health {
	h := ts.srv.Health()
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return &Health{Tenant: ts.id, Health: h, SwapQuarantine: ts.quarantine}
}

// HealthView is the tenant's health body: its server's, plus the tenant
// id and the swap-quarantine report in its String form (the report's
// own JSON form is the manifest's).
func (ts *tenantState) HealthView() any {
	h := ts.health()
	v := struct {
		Tenant string `json:"tenant"`
		serve.Health
		SwapQuarantine string `json:"swap_quarantine,omitempty"`
	}{Tenant: h.Tenant, Health: h.Health}
	if h.SwapQuarantine != nil {
		v.SwapQuarantine = h.SwapQuarantine.String()
	}
	return v
}

// Stats is one tenant's counters view, extended with the quota fence's
// counters and the rule-set identity. Its JSON form (MarshalJSON) is the
// wire's tenant stats body.
type Stats struct {
	Tenant string `json:"tenant"`
	serve.Stats
	// Outstanding is the tenant's current admitted-but-unfinished
	// request count; QuotaLimit its cap; ShedQuota the requests refused
	// at the fence.
	Outstanding int    `json:"outstanding"`
	QuotaLimit  int    `json:"quota_limit"`
	ShedQuota   uint64 `json:"shed_quota"`
	// RuleSetHash identifies the live rule set (the analysis cache key).
	RuleSetHash string `json:"rule_set_hash"`
}

// MarshalJSON adds in_flight, which serve.Stats keeps off a server's
// own body and this one has always carried.
func (s Stats) MarshalJSON() ([]byte, error) {
	type fields Stats // the fields without this method
	return json.Marshal(struct {
		fields
		InFlight int `json:"in_flight"`
	}{fields(s), s.InFlight})
}

// Stats reports one tenant's counters.
func (m *Manager) Stats(id string) (*Stats, error) {
	ts, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	return ts.stats(), nil
}

func (ts *tenantState) stats() *Stats {
	st := ts.srv.Stats()
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return &Stats{
		Tenant:      ts.id,
		Stats:       st,
		Outstanding: ts.outstanding,
		QuotaLimit:  ts.slots,
		ShedQuota:   ts.shedQuota,
		RuleSetHash: ts.summary.Hash,
	}
}

func (ts *tenantState) StatsView() any { return ts.stats() }

// ManagerStats aggregates the fleet. Its JSON form is the wire's fleet
// stats body.
type ManagerStats struct {
	// Tenants is the resident-tenant count.
	Tenants int `json:"tenants"`
	// CacheHits/CacheMisses/CacheEntries describe the shared analysis
	// cache; misses equal analyzer runs.
	CacheHits    int `json:"cache_hits"`
	CacheMisses  int `json:"cache_misses"`
	CacheEntries int `json:"cache_entries"`
	// PerTenant holds every resident tenant's stats, sorted by id
	// (empty, never nil: an empty fleet renders as []).
	PerTenant []*Stats `json:"per_tenant"`
}

// StatsAll reports the fleet-wide view.
func (m *Manager) StatsAll() *ManagerStats {
	hits, misses, entries := m.cache.Stats()
	ms := &ManagerStats{CacheHits: hits, CacheMisses: misses, CacheEntries: entries, PerTenant: []*Stats{}}
	for _, id := range m.Tenants() {
		st, err := m.Stats(id)
		if err != nil {
			continue // dropped between listing and stats
		}
		ms.PerTenant = append(ms.PerTenant, st)
	}
	ms.Tenants = len(ms.PerTenant)
	return ms
}

// Fleet is the serve.Service of the requests that name no tenant: the
// roster and the fleet-wide stats. Writes need a tenant.
func (m *Manager) Fleet() serve.Service { return fleet{m} }

type fleet struct{ m *Manager }

func (fleet) Submit(context.Context, serve.Request) (*serve.Response, error) {
	return nil, ErrTenantRequired
}
func (fleet) Checkpoint(context.Context) error { return ErrTenantRequired }
func (f fleet) StatsView() any                 { return f.m.StatsAll() }
func (f fleet) HealthView() any {
	ids := f.m.Tenants()
	return map[string]any{"tenants": len(ids), "ids": ids}
}

// Tenants lists the resident tenant ids, sorted.
func (m *Manager) Tenants() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]string, 0, len(m.ts))
	for id := range m.ts {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// CacheStats exposes the shared analysis cache counters (hits, misses,
// entries); misses equal analyzer runs.
func (m *Manager) CacheStats() (hits, misses, entries int) {
	return m.cache.Stats()
}

// Shutdown drains every tenant concurrently and closes the manager.
// The first call wins; later calls (and every other method) return
// ErrManagerClosed.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.down {
		m.mu.Unlock()
		return ErrManagerClosed
	}
	m.down = true
	all := make([]*tenantState, 0, len(m.ts))
	for _, ts := range m.ts {
		all = append(all, ts)
	}
	m.ts = map[string]*tenantState{}
	m.mu.Unlock()

	errs := make([]error, len(all))
	var wg sync.WaitGroup
	for i, ts := range all {
		wg.Add(1)
		go func(i int, ts *tenantState) {
			defer wg.Done()
			if err := ts.srv.Shutdown(ctx); err != nil {
				errs[i] = fmt.Errorf("tenant %q: %w", ts.id, err)
			}
		}(i, ts)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// TableRisk is one table's row in a QuarantineReport: what the
// candidate set guarantees for the table versus what the previous live
// set did, and — where determinism was lost — the candidate's Sig(T),
// the exact rules a reader must audit (by Definition 7.1, rules outside
// Sig(T) cannot affect T's final contents).
type TableRisk struct {
	Table string `json:"table"`
	// Confluent / WasConfluent are the candidate's and the previous
	// live set's partial-confluence verdicts for the table.
	Confluent    bool `json:"confluent"`
	WasConfluent bool `json:"was_confluent"`
	// Sig is the candidate's Sig(Table), sorted; populated only where
	// determinism regressed (WasConfluent && !Confluent).
	Sig []string `json:"sig,omitempty"`
}

// QuarantineReport describes a verdict-regressing swap admitted under
// QuarantineOnRegress: which global verdicts were lost, and per table
// what the §7 analysis still guarantees. It persists in the tenant's
// manifest until a clean swap replaces it.
type QuarantineReport struct {
	Tenant string   `json:"tenant"`
	Lost   []string `json:"lost"`
	// WasTermination / Termination are the previous live set's and the
	// candidate's tiered termination statuses.
	WasTermination analysis.TerminationStatus `json:"was_termination"`
	Termination    analysis.TerminationStatus `json:"termination"`
	Tables         []TableRisk                `json:"tables"`
}

// String renders the report deterministically, one line per table.
func (q *QuarantineReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tenant: %s\n", q.Tenant)
	fmt.Fprintf(&b, "swap quarantined: lost guaranteed %s\n", strings.Join(q.Lost, " and "))
	fmt.Fprintf(&b, "termination: %s (was %s)\n", q.Termination, q.WasTermination)
	for _, t := range q.Tables {
		if t.WasConfluent && !t.Confluent {
			fmt.Fprintf(&b, "table %s: determinism LOST; audit Sig = [%s]\n", t.Table, strings.Join(t.Sig, " "))
		} else {
			fmt.Fprintf(&b, "table %s: confluent=%v (was %v)\n", t.Table, t.Confluent, t.WasConfluent)
		}
	}
	return b.String()
}

// quarantineReport builds the §7 report for a regressing candidate.
func quarantineReport(id string, lost []string, live, cand *Summary) *QuarantineReport {
	q := &QuarantineReport{
		Tenant:         id,
		Lost:           lost,
		WasTermination: live.Term,
		Termination:    cand.Term,
	}
	for _, t := range cand.Baseline.Tables {
		risk := TableRisk{
			Table:        t,
			Confluent:    cand.Baseline.Conf[t],
			WasConfluent: live.Baseline.Conf[t],
		}
		if risk.WasConfluent && !risk.Confluent {
			for name := range cand.Baseline.Sig[t] {
				risk.Sig = append(risk.Sig, name)
			}
			sort.Strings(risk.Sig)
		}
		q.Tables = append(q.Tables, risk)
	}
	return q
}

// isNotFound reports a *NotFoundError.
func isNotFound(err error) bool {
	var nf *NotFoundError
	return errors.As(err, &nf)
}
