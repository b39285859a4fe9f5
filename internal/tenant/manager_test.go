package tenant

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"activerules/internal/engine"
	"activerules/internal/serve"
	"activerules/internal/sqlmini"
	"activerules/internal/storage"
	"activerules/internal/wal"
)

func serveRequest(sql string) serve.Request { return serve.Request{SQL: sql} }

// nontermRules never terminates: an insert-only ping-pong cycle that no
// tier-2 certificate discharges, so the termination verdict (and with
// it confluence) regresses versus cacheRules.
const nontermSchema = `
table t (v int)
table l (v int)
table ping (v int)
table pong (v int)
`

const nontermCalm = `create rule copy on t when inserted then insert into l select v from inserted`

const nontermRules = `
create rule copy on t when inserted then insert into l select v from inserted
create rule ra on ping when inserted then insert into pong values (1)
create rule rb on pong when inserted then insert into ping values (1)
`

func TestTenantLifecycle(t *testing.T) {
	fsys := wal.NewMemFS()
	m := openTestManager(t, fsys, Config{})

	if _, err := m.Create("acme", cacheSchema, cacheRules); err != nil {
		t.Fatal(err)
	}
	resp, err := m.Submit(context.Background(), "acme", serveRequest("insert into t values (1)"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Fired != 1 {
		t.Errorf("copy rule fired %d times, want 1", resp.Fired)
	}

	// Duplicate create collides, resident and detached alike.
	if _, err := m.Create("acme", cacheSchema, cacheRules); err == nil {
		t.Fatal("duplicate create succeeded")
	} else {
		var ee *ExistsError
		if !errors.As(err, &ee) {
			t.Fatalf("duplicate create = %v, want *ExistsError", err)
		}
	}

	// Drop without destroy detaches; the id is then load-able, with the
	// durable state intact.
	if err := m.Drop("acme", false); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(context.Background(), "acme", serveRequest("")); !isNotFound(err) {
		t.Fatalf("submit to detached tenant = %v, want *NotFoundError", err)
	}
	var ee *ExistsError
	if _, err := m.Create("acme", cacheSchema, cacheRules); !errors.As(err, &ee) || !ee.Detached {
		t.Fatalf("create over detached tenant = %v, want detached *ExistsError", err)
	}
	if _, err := m.Load("acme"); err != nil {
		t.Fatal(err)
	}
	resp, err = m.Submit(context.Background(), "acme", serveRequest("insert into t values (2)"))
	if err != nil {
		t.Fatal(err)
	}

	// Load is idempotent on a resident tenant.
	if _, err := m.Load("acme"); err != nil {
		t.Fatal(err)
	}

	// Drop with destroy removes the manifest: the id is gone.
	if err := m.Drop("acme", true); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load("acme"); !isNotFound(err) {
		t.Fatalf("load of destroyed tenant = %v, want *NotFoundError", err)
	}
	// And re-creatable from scratch, with a fresh WAL.
	if _, err := m.Create("acme", cacheSchema, cacheRules); err != nil {
		t.Fatal(err)
	}
	resp, err = m.Submit(context.Background(), "acme", serveRequest(""))
	if err != nil {
		t.Fatal(err)
	}
	sch, _, err := parseSources(cacheSchema, cacheRules)
	if err != nil {
		t.Fatal(err)
	}
	fresh := storage.NewDB(sch).Fingerprint()
	if resp.StateHash != fmt.Sprintf("%x", fresh[:]) {
		t.Errorf("destroyed tenant kept durable state: hash %s", resp.StateHash)
	}
}

func TestTenantIDValidation(t *testing.T) {
	m := openTestManager(t, wal.NewMemFS(), Config{})
	for _, id := range []string{"", "UPPER", "a/b", "../escape", "a b", "-lead", strings.Repeat("x", 65)} {
		var ie *IDError
		if _, err := m.Create(id, cacheSchema, cacheRules); !errors.As(err, &ie) {
			t.Errorf("Create(%q) = %v, want *IDError", id, err)
		}
		if _, err := m.Load(id); !errors.As(err, &ie) {
			t.Errorf("Load(%q) = %v, want *IDError", id, err)
		}
	}
	// The boundary cases are valid.
	for i, id := range []string{"a", "0", "a-b_c9", strings.Repeat("x", 64)} {
		if _, err := m.Create(id, cacheSchema, cacheRules); err != nil {
			t.Errorf("Create(%q) = %v, want ok (case %d)", id, err, i)
		}
	}
}

func TestTenantMaxTenantsQuota(t *testing.T) {
	m := openTestManager(t, wal.NewMemFS(), Config{MaxTenants: 2})
	if _, err := m.Create("a", cacheSchema, cacheRules); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("b", cacheSchema, cacheRules); err != nil {
		t.Fatal(err)
	}
	var qe *QuotaError
	if _, err := m.Create("c", cacheSchema, cacheRules); !errors.As(err, &qe) || qe.Kind != QuotaTenants {
		t.Fatalf("create beyond MaxTenants = %v, want *QuotaError{Kind: tenants}", err)
	}
	// Dropping frees a slot.
	if err := m.Drop("a", true); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("c", cacheSchema, cacheRules); err != nil {
		t.Fatal(err)
	}
}

// gateMutator blocks every mutation until the gate closes, so a test
// can hold a request in flight deterministically.
type gateMutator struct {
	inner   sqlmini.Mutator
	gate    <-chan struct{}
	started chan<- struct{}
}

func (g gateMutator) hold() {
	select {
	case g.started <- struct{}{}:
	default:
	}
	<-g.gate
}

func (g gateMutator) Insert(table string, rows [][]storage.Value) (int, error) {
	g.hold()
	return g.inner.Insert(table, rows)
}
func (g gateMutator) Delete(table string, ids []storage.TupleID) error {
	g.hold()
	return g.inner.Delete(table, ids)
}
func (g gateMutator) Update(table string, cols []string, ids []storage.TupleID, vals []storage.Value) error {
	g.hold()
	return g.inner.Update(table, cols, ids, vals)
}

// TestTenantQuotaFence proves the per-tenant admission quota: with
// TenantSlots=2 and two requests held in flight/queued, the third is
// shed with *QuotaError BEFORE touching the tenant's queue — and an
// unrelated tenant keeps serving throughout (isolation).
func TestTenantQuotaFence(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 16)
	m := openTestManager(t, wal.NewMemFS(), Config{
		TenantSlots: 2,
		Customize: func(id string, cfg *serve.Config) {
			if id == "slow" {
				cfg.Engine.WrapMutator = func(inner engine.Mutator) engine.Mutator {
					return gateMutator{inner: inner, gate: gate, started: started}
				}
			}
		},
	})
	if _, err := m.Create("slow", cacheSchema, cacheRules); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("fast", cacheSchema, cacheRules); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := m.Submit(context.Background(), "slow", serveRequest(fmt.Sprintf("insert into t values (%d)", i))); err != nil {
				t.Errorf("held request %d: %v", i, err)
			}
		}(i)
	}
	// Wait until the first request is actually executing (its mutation
	// reached the gate) and the second is admitted.
	<-started
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := m.Stats("slow")
		if err != nil {
			t.Fatal(err)
		}
		if st.Outstanding == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("outstanding never reached 2 (now %d)", st.Outstanding)
		}
		time.Sleep(time.Millisecond)
	}

	// The third request is shed at the quota fence.
	var qe *QuotaError
	if _, err := m.Submit(context.Background(), "slow", serveRequest("insert into t values (9)")); !errors.As(err, &qe) {
		t.Fatalf("over-quota submit = %v, want *QuotaError", err)
	} else if qe.Kind != QuotaSlots || qe.Limit != 2 {
		t.Errorf("quota error = %+v, want Kind=slots Limit=2", qe)
	}

	// The flooding tenant's quota does not touch its neighbor.
	if _, err := m.Submit(context.Background(), "fast", serveRequest("insert into t values (1)")); err != nil {
		t.Errorf("neighbor tenant sheds too: %v", err)
	}

	close(gate)
	wg.Wait()

	st, err := m.Stats("slow")
	if err != nil {
		t.Fatal(err)
	}
	if st.Outstanding != 0 {
		t.Errorf("outstanding = %d after completion, want 0", st.Outstanding)
	}
	if st.ShedQuota != 1 {
		t.Errorf("shed_quota = %d, want 1", st.ShedQuota)
	}
	if st.QuotaLimit != 2 {
		t.Errorf("quota_limit = %d, want 2", st.QuotaLimit)
	}
}

func TestTenantSwapGating(t *testing.T) {
	m := openTestManager(t, wal.NewMemFS(), Config{})
	sum, err := m.Create("acme", nontermSchema, nontermCalm)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.TermGuaranteed || !sum.ConfGuaranteed {
		t.Fatalf("calm set should be guaranteed (term=%v conf=%v)", sum.TermGuaranteed, sum.ConfGuaranteed)
	}

	// A regressing candidate is rejected with the lost verdicts named,
	// and the live set keeps serving.
	_, _, err = m.Swap(context.Background(), "acme", nontermRules)
	var sre *SwapRejectedError
	if !errors.As(err, &sre) {
		t.Fatalf("regressing swap = %v, want *SwapRejectedError", err)
	}
	if got := fmt.Sprint(sre.Lost); got != "[termination confluence]" {
		t.Errorf("lost verdicts = %v, want [termination confluence]", sre.Lost)
	}
	if sre.Tenant != "acme" {
		t.Errorf("rejection names tenant %q", sre.Tenant)
	}
	if _, err := m.Submit(context.Background(), "acme", serveRequest("insert into t values (1)")); err != nil {
		t.Fatalf("live set stopped serving after rejected swap: %v", err)
	}
	st, err := m.Stats("acme")
	if err != nil {
		t.Fatal(err)
	}
	if st.RuleSetHash != sum.Hash {
		t.Errorf("rule set hash changed after a REJECTED swap")
	}

	// A non-regressing swap (same verdicts) is admitted cleanly.
	cand, quar, err := m.Swap(context.Background(), "acme", cacheRulesPerturbed)
	if err != nil {
		t.Fatal(err)
	}
	if quar != nil {
		t.Errorf("clean swap produced a quarantine report:\n%s", quar)
	}
	if cand.Hash == sum.Hash {
		t.Error("swap did not change the rule set hash")
	}
}

func TestTenantSwapQuarantineOnRegress(t *testing.T) {
	fsys := wal.NewMemFS()
	m := openTestManager(t, fsys, Config{QuarantineOnRegress: true})
	if _, err := m.Create("acme", nontermSchema, nontermCalm); err != nil {
		t.Fatal(err)
	}
	cand, quar, err := m.Swap(context.Background(), "acme", nontermRules)
	if err != nil {
		t.Fatalf("quarantine-on-regress swap rejected: %v", err)
	}
	if quar == nil {
		t.Fatal("regressing swap admitted without a quarantine report")
	}
	if got := fmt.Sprint(quar.Lost); got != "[termination confluence]" {
		t.Errorf("lost = %v, want [termination confluence]", quar.Lost)
	}

	// The per-table rows carry the candidate's §7 Sig(T) exactly where
	// determinism regressed.
	for _, row := range quar.Tables {
		wantSig := []string(nil)
		if row.WasConfluent && !row.Confluent {
			for name := range cand.Baseline.Sig[row.Table] {
				wantSig = append(wantSig, name)
			}
			sort.Strings(wantSig)
		}
		if fmt.Sprint(row.Sig) != fmt.Sprint(wantSig) {
			t.Errorf("table %s: Sig = %v, want %v", row.Table, row.Sig, wantSig)
		}
	}
	// ping/pong lose determinism to the undischargeable cycle; t and l
	// keep it — their Sig(T) ({copy}) excludes the cyclic pair, so the
	// row must not flag them.
	byTable := map[string]TableRisk{}
	for _, row := range quar.Tables {
		byTable[row.Table] = row
	}
	for _, tab := range []string{"ping", "pong"} {
		if byTable[tab].Confluent || len(byTable[tab].Sig) == 0 {
			t.Errorf("table %s should be flagged with a non-empty Sig audit list (%+v)", tab, byTable[tab])
		}
	}

	// The quarantine is visible through Health and survives a restart.
	h, err := m.Health("acme")
	if err != nil {
		t.Fatal(err)
	}
	if h.SwapQuarantine == nil {
		t.Fatal("health does not carry the swap quarantine")
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	m2, err := Open("root", Config{FS: fsys, QuarantineOnRegress: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Shutdown(context.Background())
	h2, err := m2.Health("acme")
	if err != nil {
		t.Fatal(err)
	}
	if h2.SwapQuarantine == nil {
		t.Fatal("swap quarantine did not survive the restart")
	}
	if h2.SwapQuarantine.String() != h.SwapQuarantine.String() {
		t.Errorf("persisted quarantine report drifted:\n--- live ---\n%s--- recovered ---\n%s",
			h.SwapQuarantine, h2.SwapQuarantine)
	}
}

// TestTenantManagerReopen proves crash-free restart recovery: every
// tenant comes back resident from its manifest, serving its own
// durable state, and the shared cache deduplicates the reopened fleet's
// analyses.
func TestTenantManagerReopen(t *testing.T) {
	fsys := wal.NewMemFS()
	m := openTestManager(t, fsys, Config{})
	hashes := map[string]string{}
	for _, id := range []string{"a", "b", "c"} {
		if _, err := m.Create(id, cacheSchema, cacheRules); err != nil {
			t.Fatal(err)
		}
		resp, err := m.Submit(context.Background(), id, serveRequest("insert into t values (7)"))
		if err != nil {
			t.Fatal(err)
		}
		hashes[id] = resp.StateHash
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	m2, err := Open("root", Config{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Shutdown(context.Background())
	if got := fmt.Sprint(m2.Tenants()); got != "[a b c]" {
		t.Fatalf("reopened tenants = %s, want [a b c]", got)
	}
	// Identical rule sets: the reopened fleet runs the analyzer once.
	if _, misses, _ := m2.CacheStats(); misses != 1 {
		t.Errorf("reopen ran the analyzer %d times for one distinct rule set", misses)
	}
	for id, want := range hashes {
		resp, err := m2.Submit(context.Background(), id, serveRequest(""))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StateHash != want {
			t.Errorf("tenant %s: recovered hash %s, want the pre-restart durable point %s", id, resp.StateHash, want)
		}
	}
}

func TestTenantManagerClosed(t *testing.T) {
	m := openTestManager(t, wal.NewMemFS(), Config{})
	if _, err := m.Create("a", cacheSchema, cacheRules); err != nil {
		t.Fatal(err)
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(context.Background(), "a", serveRequest("")); !errors.Is(err, ErrManagerClosed) {
		t.Errorf("submit after shutdown = %v, want ErrManagerClosed", err)
	}
	if _, err := m.Create("b", cacheSchema, cacheRules); !errors.Is(err, ErrManagerClosed) {
		t.Errorf("create after shutdown = %v, want ErrManagerClosed", err)
	}
	if err := m.Shutdown(context.Background()); !errors.Is(err, ErrManagerClosed) {
		t.Errorf("second shutdown = %v, want ErrManagerClosed", err)
	}
}

// TestTenantSubmitAddsNoAllocations holds the one hot-path neighbour of
// the serve.Service refactor: Manager.Submit resolves the tenant and
// passes its quota fence on the concrete *tenantState, so a request
// through the manager allocates exactly what the tenant's server does
// alone — no boxed service, no closure.
func TestTenantSubmitAddsNoAllocations(t *testing.T) {
	m := openTestManager(t, wal.NewMemFS(), Config{})
	if _, err := m.Create("acme", cacheSchema, cacheRules); err != nil {
		t.Fatal(err)
	}
	ts, err := m.lookup("acme")
	if err != nil {
		t.Fatal(err)
	}
	ctx, req := context.Background(), serveRequest("select v from l")
	submit := func(f func() (*serve.Response, error)) float64 {
		return testing.AllocsPerRun(200, func() {
			if _, err := f(); err != nil {
				t.Fatal(err)
			}
		})
	}
	direct := submit(func() (*serve.Response, error) { return ts.srv.Submit(ctx, req) })
	fenced := submit(func() (*serve.Response, error) { return m.Submit(ctx, "acme", req) })
	if fenced != direct {
		t.Errorf("Manager.Submit allocates %v per request, the tenant's server alone %v", fenced, direct)
	}
}
