package tenant

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"activerules/internal/engine"
	"activerules/internal/faultinject"
	"activerules/internal/serve"
	"activerules/internal/storage"
	"activerules/internal/wal"
)

// Multi-tenant chaos soak (the PR's acceptance scenario): one hostile
// tenant — a deterministically panicking rule, a livelocking ping-pong
// pair, and seeded storage faults — colocated with nine healthy
// tenants in one manager. Invariants:
//
//  1. Isolation: every healthy tenant's final durable state, analysis
//     report, and health report are byte-identical to a solo run of
//     that same tenant in its own process.
//  2. The hostile tenant degrades exactly as the single-tenant serving
//     layer would: breakers quarantine the faulting rules, durable
//     state stays a consistent quiescent point.
//  3. A swap that would regress a healthy tenant's verdicts is
//     rejected mid-soak without disturbing service.
//  4. A mid-soak crash of the hostile tenant's filesystem leaves the
//     healthy tenants untouched, and a manager reopen restores every
//     tenant to a consistent durable point.

const hostileSchema = `
table item (v int)
table log (v int)
table poison (v int)
table ping (v int)
table pong (v int)
`

const hostileRules = `
create rule copy on item when inserted then insert into log select v from inserted
create rule hostile on item when inserted then insert into poison select v from inserted
create rule ra on ping when inserted then delete from ping; insert into pong values (1)
create rule rb on pong when inserted then delete from pong; insert into ping values (1)
`

const healthyCount = 9

func healthyID(i int) string { return fmt.Sprintf("h%d", i) }

// healthyWorkload is tenant h<i>'s deterministic request sequence; its
// final durable state does not depend on scheduling, so it can be
// compared byte-for-byte against a solo run.
func healthyWorkload(i int) []string {
	var reqs []string
	for k := 1; k <= 5; k++ {
		reqs = append(reqs, fmt.Sprintf("insert into t values (%d)", i*100+k))
	}
	return append(reqs, "") // rule processing only
}

// hostileWorkload mirrors the single-tenant serve soak: item inserts
// meet the panicking rule until its breaker trips, ping inserts
// livelock until ra/rb trip, the tail mostly lands post-quarantine.
func hostileWorkload(client int) []string {
	base := client * 100
	var reqs []string
	for i := 1; i <= 3; i++ {
		reqs = append(reqs, fmt.Sprintf("insert into item values (%d)", base+i))
	}
	for i := 0; i < 3; i++ {
		reqs = append(reqs, "insert into ping values (1)")
	}
	for i := 4; i <= 6; i++ {
		reqs = append(reqs, fmt.Sprintf("insert into item values (%d)", base+i))
	}
	return append(reqs, "")
}

// deterministicFault reports an error that completes a workload item
// rather than being retried: a panic attributed to a rule, or a
// livelock. Injected storage faults and durability faults mean the
// request never happened and are retried.
func deterministicFault(err error) bool {
	var xe *engine.ExecError
	if errors.As(err, &xe) {
		var pe *engine.PanicError
		return errors.As(xe.Cause, &pe)
	}
	var le *engine.LivelockError
	return errors.As(err, &le)
}

// runClient drives one tenant's request sequence, returning the set of
// StateHashes of committed responses — the durable points this client
// observed. A closed/failed server (crash runs) ends the client.
func runClient(t *testing.T, m *Manager, id string, reqs []string, sink map[string]bool, mu *sync.Mutex) {
	t.Helper()
	for _, sql := range reqs {
		for attempt := 0; attempt < 100; attempt++ {
			resp, err := m.Submit(context.Background(), id, serveRequest(sql))
			if err == nil {
				if sink != nil {
					mu.Lock()
					sink[resp.StateHash] = true
					mu.Unlock()
				}
				break
			}
			var ce *serve.ClosedError
			if errors.As(err, &ce) || errors.Is(err, ErrManagerClosed) {
				return
			}
			if deterministicFault(err) {
				break
			}
		}
	}
}

// soakServeConfig is the per-tenant serving template every soak run
// (colocated, solo, crash) shares, so report bytes are comparable.
func soakServeConfig() serve.Config {
	return serve.Config{
		Engine:              engine.Options{MaxSteps: 80},
		QuarantineThreshold: 3,
		DisableProbing:      true,
	}
}

func shutdownManagerBounded(t *testing.T, m *Manager) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- m.Shutdown(ctx) }()
	select {
	case err := <-done:
		return err
	case <-time.After(60 * time.Second):
		t.Fatal("fleet drain deadlocked: Shutdown did not return")
		return nil
	}
}

// soloBaseline is what tenant h<i> produces when it is the only tenant
// in the process: the colocated chaos runs must reproduce it exactly.
type soloBaseline struct {
	hash    string // final durable fingerprint
	summary []byte // analysis report bytes
	health  string // degraded-mode report rendering
}

func soloBaselines(t *testing.T) []soloBaseline {
	t.Helper()
	out := make([]soloBaseline, healthyCount)
	for i := range out {
		fsys := wal.NewMemFS()
		m, err := Open("root", Config{FS: fsys, Serve: soakServeConfig()})
		if err != nil {
			t.Fatal(err)
		}
		id := healthyID(i)
		sum, err := m.Create(id, nontermSchema, nontermCalm)
		if err != nil {
			t.Fatal(err)
		}
		runClient(t, m, id, healthyWorkload(i), nil, nil)
		h, err := m.Health(id)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = soloBaseline{summary: sum.Report, health: h.Report.String()}
		if err := shutdownManagerBounded(t, m); err != nil {
			t.Fatal(err)
		}
		sch, _, err := parseSources(nontermSchema, nontermCalm)
		if err != nil {
			t.Fatal(err)
		}
		db, _, err := wal.Recover(walDir("root", id), sch, fsys)
		if err != nil {
			t.Fatal(err)
		}
		fp := db.Fingerprint()
		out[i].hash = hex.EncodeToString(fp[:])
	}
	return out
}

// checkHostileConsistency verifies the hostile workload's transactional
// relations at any durable point: log mirrors item (rule processing ran
// to quiescence before commit), and no partial effect of a panicking or
// livelocked transaction leaked.
func checkHostileConsistency(t *testing.T, db *storage.DB, label string) {
	t.Helper()
	if got, want := db.Table("log").Len(), db.Table("item").Len(); got != want {
		t.Errorf("%s: log has %d rows, item has %d — not a quiescent durable point", label, got, want)
	}
	if n := db.Table("poison").Len(); n != 0 {
		t.Errorf("%s: poison has %d rows; the hostile rule's partial effects leaked", label, n)
	}
	if n := db.Table("pong").Len(); n != 0 {
		t.Errorf("%s: pong has %d rows; a livelocked transaction leaked", label, n)
	}
}

// createFleet populates a manager with the hostile tenant and the nine
// healthy ones.
func createFleet(t *testing.T, m *Manager) {
	t.Helper()
	if _, err := m.Create("hostile", hostileSchema, hostileRules); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < healthyCount; i++ {
		if _, err := m.Create(healthyID(i), nontermSchema, nontermCalm); err != nil {
			t.Fatal(err)
		}
	}
}

// checkHealthyAgainstSolo compares every healthy tenant's live reports
// against its solo baseline, then (after the caller shuts the manager
// down) its durable fingerprint via wal.Recover.
func checkHealthyReports(t *testing.T, m *Manager, solo []soloBaseline) {
	t.Helper()
	for i := 0; i < healthyCount; i++ {
		id := healthyID(i)
		st, err := m.Stats(id)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := m.Load(id) // resident: returns the live summary
		if err != nil {
			t.Fatal(err)
		}
		if string(sum.Report) != string(solo[i].summary) {
			t.Errorf("%s: analysis report diverged from the solo run", id)
		}
		h, err := m.Health(id)
		if err != nil {
			t.Fatal(err)
		}
		if h.Report.String() != solo[i].health {
			t.Errorf("%s: health report diverged from the solo run:\n--- colocated ---\n%s--- solo ---\n%s",
				id, h.Report, solo[i].health)
		}
		if len(h.Report.Quarantined) != 0 {
			t.Errorf("%s: healthy tenant has quarantined rules %v", id, h.Report.Quarantined)
		}
		if st.ShedQuota != 0 {
			t.Errorf("%s: healthy tenant shed %d requests on quota", id, st.ShedQuota)
		}
	}
}

func checkHealthyDurable(t *testing.T, fsys wal.FS, solo []soloBaseline, label string) {
	t.Helper()
	sch, _, err := parseSources(nontermSchema, nontermCalm)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < healthyCount; i++ {
		id := healthyID(i)
		db, _, err := wal.Recover(walDir("root", id), sch, fsys)
		if err != nil {
			t.Fatalf("%s: %s: recover: %v", label, id, err)
		}
		fp := db.Fingerprint()
		if got := hex.EncodeToString(fp[:]); got != solo[i].hash {
			t.Errorf("%s: %s: durable state diverged from the solo run (got %s, want %s)", label, id, got, solo[i].hash)
		}
	}
}

func TestTenantSoakIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	solo := soloBaselines(t)
	hostSch, _, err := parseSources(hostileSchema, hostileRules)
	if err != nil {
		t.Fatal(err)
	}
	emptyFP := storage.NewDB(hostSch).Fingerprint()
	initial := hex.EncodeToString(emptyFP[:])

	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			fsys := wal.NewMemFS()
			in := faultinject.New(faultinject.Config{P: 0.05, Seed: seed, PanicTable: "poison"})
			m, err := Open("root", Config{
				FS:    fsys,
				Serve: soakServeConfig(),
				Customize: func(id string, cfg *serve.Config) {
					if id == "hostile" {
						cfg.Engine.WrapMutator = in.Wrap
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			createFleet(t, m)

			var mu sync.Mutex
			observed := map[string]bool{}
			var wg sync.WaitGroup
			for c := 0; c < 3; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					runClient(t, m, "hostile", hostileWorkload(c), observed, &mu)
				}(c)
			}
			for i := 0; i < healthyCount; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					runClient(t, m, healthyID(i), healthyWorkload(i), nil, nil)
				}(i)
			}
			// Mid-soak, a regressing hot swap against a healthy tenant is
			// rejected by the analyzer gate without disturbing service.
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _, err := m.Swap(context.Background(), healthyID(0), nontermRules)
				var sre *SwapRejectedError
				if !errors.As(err, &sre) {
					t.Errorf("mid-soak regressing swap = %v, want *SwapRejectedError", err)
				}
			}()
			wg.Wait()

			// The hostile tenant quarantined exactly its faulting rules.
			hh, err := m.Health("hostile")
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(hh.Report.Quarantined); got != "[hostile ra rb]" {
				t.Errorf("hostile quarantined = %v, want [hostile ra rb]", hh.Report.Quarantined)
			}

			checkHealthyReports(t, m, solo)
			_ = shutdownManagerBounded(t, m) // hostile drain errors tolerated
			checkHealthyDurable(t, fsys, solo, "graceful")

			// The hostile tenant's own durable state is an observed
			// consistent point — chaos never corrupts it either.
			db, _, err := wal.Recover(walDir("root", "hostile"), hostSch, fsys)
			if err != nil {
				t.Fatalf("hostile recover: %v", err)
			}
			fp := db.Fingerprint()
			if got := hex.EncodeToString(fp[:]); !observed[got] && got != initial {
				t.Errorf("hostile recovered state is not an observed durable point")
			}
			checkHostileConsistency(t, db, "graceful")
		})
	}
}

// TestTenantSoakCrashRecovery crashes the hostile tenant's filesystem
// mid-soak (power-loss semantics on its private WAL fs), proves the
// healthy tenants never notice, and then reopens the manager: every
// tenant — including the crashed one — comes back resident at a
// consistent durable point.
func TestTenantSoakCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	solo := soloBaselines(t)
	hostSch, _, err := parseSources(hostileSchema, hostileRules)
	if err != nil {
		t.Fatal(err)
	}

	for seed := int64(0); seed < 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()

			// Probe run: no fs faults; counts the hostile tenant's fs
			// operations so the crash point lands mid-workload.
			probe := faultinject.New(faultinject.Config{P: 0.05, Seed: seed, PanicTable: "poison"})
			pm, err := Open("root", Config{
				FS:    wal.NewMemFS(),
				Serve: soakServeConfig(),
				Customize: func(id string, cfg *serve.Config) {
					if id == "hostile" {
						cfg.Engine.WrapMutator = probe.Wrap
						cfg.WAL.FS = probe.WrapFS(wal.NewMemFS())
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			createFleet(t, pm)
			openCalls := probe.FSCalls()
			var wg sync.WaitGroup
			runFleetClients := func(m *Manager) {
				for c := 0; c < 3; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						runClient(t, m, "hostile", hostileWorkload(c), nil, nil)
					}(c)
				}
				for i := 0; i < healthyCount; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						runClient(t, m, healthyID(i), healthyWorkload(i), nil, nil)
					}(i)
				}
				wg.Wait()
			}
			runFleetClients(pm)
			_ = shutdownManagerBounded(t, pm)
			total := probe.FSCalls()
			if total <= openCalls {
				t.Fatalf("weak probe: %d fs calls total, %d at open", total, openCalls)
			}

			// Crash run: power loss on the hostile tenant's private WAL
			// filesystem halfway through its workload.
			fsys := wal.NewMemFS()
			hostileFS := wal.NewMemFS()
			in := faultinject.New(faultinject.Config{
				P: 0.05, Seed: seed, PanicTable: "poison",
				FSCrashAt: openCalls + (total-openCalls)/2,
			})
			customize := func(inj *faultinject.Injector) func(string, *serve.Config) {
				return func(id string, cfg *serve.Config) {
					if id == "hostile" {
						if inj != nil {
							cfg.Engine.WrapMutator = inj.Wrap
							cfg.WAL.FS = inj.WrapFS(hostileFS)
						} else {
							cfg.WAL.FS = hostileFS
						}
					}
				}
			}
			m, err := Open("root", Config{FS: fsys, Serve: soakServeConfig(), Customize: customize(in)})
			if err != nil {
				t.Fatal(err)
			}
			createFleet(t, m)
			runFleetClients(m)
			if !in.Crashed() {
				t.Fatalf("crash point %d never reached", openCalls+(total-openCalls)/2)
			}

			// Healthy tenants never noticed: their live reports match the
			// solo baselines even while their neighbor's fs is dead.
			checkHealthyReports(t, m, solo)
			_ = shutdownManagerBounded(t, m) // the failed tenant still drains
			checkHealthyDurable(t, fsys, solo, "crash")

			// Recovery from the power-lossed filesystem is read-only
			// deterministic and lands on a consistent durable point.
			db1, _, err := wal.Recover(walDir("root", "hostile"), hostSch, hostileFS)
			if err != nil {
				t.Fatalf("hostile recover: %v", err)
			}
			db2, _, err := wal.Recover(walDir("root", "hostile"), hostSch, hostileFS)
			if err != nil {
				t.Fatalf("hostile second recover: %v", err)
			}
			if db1.Fingerprint() != db2.Fingerprint() {
				t.Error("hostile recovery is not deterministic")
			}
			checkHostileConsistency(t, db1, "crash")
			wantHostile := db1.Fingerprint()

			// Manager reopen (fresh process, no fault injection): every
			// tenant comes back resident at its recovered durable point.
			m2, err := Open("root", Config{FS: fsys, Serve: soakServeConfig(), Customize: customize(nil)})
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			if got := len(m2.Tenants()); got != healthyCount+1 {
				t.Fatalf("reopen restored %d tenants, want %d", got, healthyCount+1)
			}
			for i := 0; i < healthyCount; i++ {
				resp, err := m2.Submit(context.Background(), healthyID(i), serveRequest(""))
				if err != nil {
					t.Fatalf("reopen: %s: %v", healthyID(i), err)
				}
				if resp.StateHash != solo[i].hash {
					t.Errorf("reopen: %s restored to %s, want the solo durable point %s", healthyID(i), resp.StateHash, solo[i].hash)
				}
			}
			resp, err := m2.Submit(context.Background(), "hostile", serveRequest(""))
			if err != nil {
				t.Fatalf("reopen: hostile: %v", err)
			}
			if resp.StateHash != hex.EncodeToString(wantHostile[:]) {
				t.Errorf("reopen: hostile restored to %s, want the recovered durable point %s",
					resp.StateHash, hex.EncodeToString(wantHostile[:]))
			}
			_ = shutdownManagerBounded(t, m2)
		})
	}
}
