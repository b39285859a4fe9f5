package serve

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
	"activerules/internal/retry"
	"activerules/internal/ruledef"
	"activerules/internal/rules"
	"activerules/internal/schema"
	"activerules/internal/storage"
	"activerules/internal/wal"
)

// Chaos soak: N concurrent clients against one server whose rule set
// contains a deterministically panicking rule (hostile, via the
// injector's PanicTable) and a livelocking ping-pong pair (ra/rb),
// while the storage layer injects probabilistic mutation faults from
// the same seeded stream — and, in the crash variant, the filesystem
// under the WAL fails or dies too. Invariants:
//
//  1. Durable state is never corrupted: the recovered state is a
//     durable point — in graceful runs, one the clients observed; in
//     crash runs, one satisfying the workload's transactional
//     consistency relations (rule processing ran to quiescence).
//  2. Drain never deadlocks: Shutdown returns within its deadline.
//  3. Quarantine verdicts and the degraded-mode Sig(T') report are
//     deterministic per seed: two runs of the same seed produce
//     byte-identical reports despite different client interleavings.

const soakSchema = `
table item (v int)
table log (v int)
table poison (v int)
table ping (v int)
table pong (v int)
`

const soakRules = `
create rule copy on item when inserted then insert into log select v from inserted
create rule hostile on item when inserted then insert into poison select v from inserted
create rule ra on ping when inserted then delete from ping; insert into pong values (1)
create rule rb on pong when inserted then delete from pong; insert into ping values (1)
`

func soakSystem(t *testing.T) (*schema.Schema, []rules.Definition) {
	t.Helper()
	sch := schema.MustParse(soakSchema)
	defs, err := ruledef.Parse(soakRules)
	if err != nil {
		t.Fatal(err)
	}
	return sch, defs
}

// soakWorkload is one client's deterministic request sequence. The
// first item inserts meet the hostile rule (panicking until its breaker
// trips); the ping inserts livelock until ra/rb trip; the tail item
// inserts mostly land after quarantine and commit.
func soakWorkload(client int, spin bool) []string {
	base := client * 100
	var reqs []string
	for i := 1; i <= 3; i++ {
		reqs = append(reqs, fmt.Sprintf("insert into item values (%d)", base+i))
	}
	if spin {
		for i := 0; i < 3; i++ {
			reqs = append(reqs, "insert into ping values (1)")
		}
	}
	for i := 4; i <= 6; i++ {
		reqs = append(reqs, fmt.Sprintf("insert into item values (%d)", base+i))
	}
	reqs = append(reqs, "") // empty request: rule processing only
	return reqs
}

// runSoakClients drives the concurrent clients and returns the set of
// StateHashes of every committed response — the durable points the
// clients observed. Deterministic failures (panic, livelock) complete a
// workload item; injected/transient failures are retried; a closed or
// failed server stops the client.
func runSoakClients(t *testing.T, s *Server, clients int, spin bool) map[string]bool {
	t.Helper()
	var mu sync.Mutex
	hashes := map[string]bool{}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, sql := range soakWorkload(c, spin) {
				for attempt := 0; attempt < 100; attempt++ {
					resp, err := s.Submit(context.Background(), Request{SQL: sql})
					if err == nil {
						mu.Lock()
						hashes[resp.StateHash] = true
						mu.Unlock()
						break
					}
					var ce *ClosedError
					if errors.As(err, &ce) {
						return // server drained or failed; run is over
					}
					if len(attribute(err)) != 0 {
						break // deterministic fault, attributed; next item
					}
					// Injected storage fault, durability fault, or
					// cancellation: the request never happened — retry.
				}
			}
		}(c)
	}
	wg.Wait()
	return hashes
}

// checkConsistency verifies the transactional relations every durable
// point of the soak workload satisfies: rule processing ran to
// quiescence before commit (log mirrors item), and no partial effect of
// a panicking or livelocking transaction leaked (poison and pong stay
// empty — hostile never completes, and ping-pong transactions only
// abort).
func checkConsistency(t *testing.T, db *storage.DB, label string) {
	t.Helper()
	if got, want := db.Table("log").Len(), db.Table("item").Len(); got != want {
		t.Errorf("%s: log has %d rows, item has %d — recovered state is not a quiescent durable point", label, got, want)
	}
	if n := db.Table("poison").Len(); n != 0 {
		t.Errorf("%s: poison has %d rows; the hostile rule's partial effects leaked", label, n)
	}
	if n := db.Table("pong").Len(); n != 0 {
		t.Errorf("%s: pong has %d rows; a livelocked transaction leaked", label, n)
	}
}

func emptyHash(sch *schema.Schema) string {
	fp := storage.NewDB(sch).Fingerprint()
	return hex.EncodeToString(fp[:])
}

func shutdownBounded(t *testing.T, s *Server) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(ctx) }()
	select {
	case err := <-done:
		return err
	case <-time.After(60 * time.Second):
		t.Fatal("drain deadlocked: Shutdown did not return")
		return nil
	}
}

func TestServeSoakQuarantineDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	sch, defs := soakSystem(t)
	initial := emptyHash(sch)
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			spin := seed%2 == 0 // odd seeds never livelock: their reports differ
			var reports [2]string
			for run := 0; run < 2; run++ {
				fsys := wal.NewMemFS()
				in := faultinject.New(faultinject.Config{P: 0.05, Seed: seed, PanicTable: "poison"})
				s, err := New(sch, defs, "wal", Config{
					WAL:                 wal.Options{FS: fsys},
					Engine:              engine.Options{MaxSteps: 80, WrapMutator: in.Wrap},
					QuarantineThreshold: 3,
					DisableProbing:      true,
				})
				if err != nil {
					t.Fatal(err)
				}
				hashes := runSoakClients(t, s, 4, spin)
				if err := shutdownBounded(t, s); err != nil {
					t.Fatalf("run %d: drain: %v", run, err)
				}

				h := s.Health()
				reports[run] = h.Report.String()
				wantQ := []string{"hostile"}
				if spin {
					wantQ = []string{"hostile", "ra", "rb"}
				}
				if got := fmt.Sprint(h.Report.Quarantined); got != fmt.Sprint(wantQ) {
					t.Errorf("run %d: quarantined = %v, want %v", run, h.Report.Quarantined, wantQ)
				}

				// Never corrupts durable state: the recovered hash is a
				// durable point the clients observed.
				db, _, err := wal.Recover("wal", sch, fsys)
				if err != nil {
					t.Fatalf("run %d: recover: %v", run, err)
				}
				fp := db.Fingerprint()
				if got := hex.EncodeToString(fp[:]); !hashes[got] && got != initial {
					t.Errorf("run %d: recovered state is not an observed durable point", run)
				}
				checkConsistency(t, db, fmt.Sprintf("run %d", run))
			}
			if reports[0] != reports[1] {
				t.Errorf("degraded-mode report is not deterministic per seed:\n--- run 0 ---\n%s--- run 1 ---\n%s",
					reports[0], reports[1])
			}
		})
	}
}

// soakFSConfig is the shared server configuration of the fs-fault runs.
func soakFSConfig(in *faultinject.Injector, fsys wal.FS) Config {
	return Config{
		WAL:                 wal.Options{FS: in.WrapFS(fsys)},
		Engine:              engine.Options{MaxSteps: 80, WrapMutator: in.Wrap},
		QuarantineThreshold: 3,
		DisableProbing:      true,
		DurableRetry:        retry.Policy{Initial: time.Microsecond, Max: time.Millisecond, MaxAttempts: 5},
	}
}

func TestServeSoakCrashAndTransientFS(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	sch, defs := soakSystem(t)
	initial := emptyHash(sch)
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()

			// Probe run: no fs faults; counts the fs operations a full
			// graceful run performs so the fault points below aim inside
			// the workload.
			probe := faultinject.New(faultinject.Config{P: 0.05, Seed: seed, PanicTable: "poison"})
			ps, err := New(sch, defs, "wal", soakFSConfig(probe, wal.NewMemFS()))
			if err != nil {
				t.Fatal(err)
			}
			openCalls := probe.FSCalls()
			runSoakClients(t, ps, 3, true)
			if err := shutdownBounded(t, ps); err != nil {
				t.Fatalf("probe drain: %v", err)
			}
			total := probe.FSCalls()
			if total <= openCalls {
				t.Fatalf("weak probe: %d fs calls total, %d at open", total, openCalls)
			}

			// Transient single fs fault mid-workload: the server reopens
			// the WAL and keeps serving; the drain completes; the
			// recovered state is consistent. (The fault can land in the
			// final checkpoint instead, in which case Shutdown reports
			// it — both outcomes must leave consistent durable state.)
			{
				fsys := wal.NewMemFS()
				in := faultinject.New(faultinject.Config{
					P: 0.05, Seed: seed, PanicTable: "poison",
					FSFailAt: openCalls + (total-openCalls)/2,
				})
				s, err := New(sch, defs, "wal", soakFSConfig(in, fsys))
				if err != nil {
					t.Fatal(err)
				}
				hashes := runSoakClients(t, s, 3, true)
				_ = shutdownBounded(t, s)
				db, _, err := wal.Recover("wal", sch, fsys)
				if err != nil {
					t.Fatalf("transient: recover: %v", err)
				}
				fp := db.Fingerprint()
				if got := hex.EncodeToString(fp[:]); !hashes[got] && got != initial {
					// A commit can land durably in the instant the
					// response path then fails; the recovered state may
					// then be one commit ahead of the last observed hash.
					// Consistency (below) still must hold.
					t.Logf("transient: recovered state not among observed hashes (tolerated)")
				}
				checkConsistency(t, db, "transient")
			}

			// Simulated crashes at three points spread across the run:
			// the server fails (reopen meets ErrCrashed until the budget
			// exhausts), clients drain off with *ClosedError, Shutdown
			// still returns, and recovery from the power-lossed
			// filesystem is deterministic and consistent.
			span := total - openCalls
			for _, k := range []int{openCalls + 1, openCalls + span/2, total} {
				fsys := wal.NewMemFS()
				in := faultinject.New(faultinject.Config{
					P: 0.05, Seed: seed, PanicTable: "poison",
					FSCrashAt: k,
				})
				s, err := New(sch, defs, "wal", soakFSConfig(in, fsys))
				if err != nil {
					t.Fatalf("crash at %d: New: %v", k, err)
				}
				runSoakClients(t, s, 3, true)
				_ = shutdownBounded(t, s) // a failed server still drains

				// Recovery is read-only deterministic: two passes agree,
				// and the state satisfies the workload's invariants.
				db1, _, err := wal.Recover("wal", sch, fsys)
				if err != nil {
					t.Fatalf("crash at %d: recover: %v", k, err)
				}
				db2, _, err := wal.Recover("wal", sch, fsys)
				if err != nil {
					t.Fatalf("crash at %d: second recover: %v", k, err)
				}
				if db1.Fingerprint() != db2.Fingerprint() {
					t.Errorf("crash at %d: recovery is not deterministic", k)
				}
				checkConsistency(t, db1, fmt.Sprintf("crash at %d", k))
			}
		})
	}
}
