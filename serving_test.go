package activerules_test

// Facade-level serving tests: System.NewServer round-trips through the
// public API, and one System safely backs several concurrent consumers
// — two independent engines plus an analysis goroutine — under -race.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"activerules"
)

const servingSchema = `
table src (v int)
table dst (v int)
`

const servingRules = `
create rule copy on src
when inserted
then insert into dst select v from inserted
`

func TestSystemNewServerRoundTrip(t *testing.T) {
	sys, err := activerules.Load(servingSchema, servingRules)
	if err != nil {
		t.Fatal(err)
	}
	fsys := activerules.NewMemFS()
	srv, err := sys.NewServer("wal", activerules.ServeConfig{
		WAL: activerules.WALOptions{FS: fsys},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Submit(context.Background(), activerules.ServeRequest{
		SQL: "insert into src values (5)",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Fired != 1 || resp.StateHash == "" {
		t.Errorf("response = %+v", resp)
	}
	h := srv.Health()
	if h.State != activerules.ServerRunning || !h.Ready || h.Degraded {
		t.Errorf("health = %+v", h)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Closed servers reject with the typed error.
	_, err = srv.Submit(context.Background(), activerules.ServeRequest{SQL: "insert into src values (6)"})
	var ce *activerules.ServerClosedError
	if !errors.As(err, &ce) || ce.State != activerules.ServerClosed {
		t.Errorf("Submit after Close = %v, want *ServerClosedError (closed)", err)
	}
	// The drain checkpointed: recovery over the same fs sees the
	// committed rows.
	db, _, err := sys.Recover("wal", fsys)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Table("dst").Len(); got != 1 {
		t.Errorf("recovered dst has %d rows, want 1", got)
	}
}

// TestSystemSharedAcrossEnginesAndAnalysis runs two engines built from
// one System in parallel with a goroutine analyzing it. A System is
// documented as read-only after construction; this test backs that with
// the race detector.
func TestSystemSharedAcrossEnginesAndAnalysis(t *testing.T) {
	sys, err := activerules.Load(servingSchema, servingRules)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			eng := sys.NewEngine(sys.NewDB(), activerules.EngineOptions{})
			for i := 0; i < 25; i++ {
				if _, err := eng.ExecUser(fmt.Sprintf("insert into src values (%d)", g*100+i)); err != nil {
					t.Error(err)
					return
				}
				if _, err := eng.Assert(); err != nil {
					t.Error(err)
					return
				}
			}
			if got := eng.DB().Table("dst").Len(); got != 25 {
				t.Errorf("engine %d: dst has %d rows, want 25", g, got)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			rep := sys.Analyze(nil)
			if rep.Termination == nil || rep.Confluence == nil {
				t.Error("incomplete analysis report")
				return
			}
		}
	}()
	wg.Wait()
}
