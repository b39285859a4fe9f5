package replica

import (
	"fmt"
	"reflect"
	"testing"

	"activerules/internal/engine"
	"activerules/internal/ruledef"
	"activerules/internal/rules"
	"activerules/internal/schema"
	"activerules/internal/wal"
)

// TestFollowerReplaysFailedScriptInPlace is the follower twin of the
// facade's TestRecoverReplaysFailedScriptInPlace: a log whose committed
// range holds a mass delete and its compensating re-inserts (a failed
// script the session carried on after) must replay into the iteration
// order of the database that wrote it, not just the same contents.
func TestFollowerReplaysFailedScriptInPlace(t *testing.T) {
	sch := schema.MustParse("table t (v int)\ntable u (v int)")
	defs, err := ruledef.Parse("create rule r on t\nwhen inserted\nthen insert into u select v from inserted")
	if err != nil {
		t.Fatal(err)
	}
	set, err := rules.NewSet(sch, defs)
	if err != nil {
		t.Fatal(err)
	}
	fsys := wal.NewMemFS()
	d, err := wal.Open(leaderDir, sch, wal.Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	live := d.State()
	live.SetObserver(d)
	eng := engine.New(set, live, engine.Options{Journal: d})
	commit := func(sql string) {
		t.Helper()
		if _, err := eng.ExecUser(sql); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Assert(); err != nil {
			t.Fatal(err)
		}
		if err := eng.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 20; i++ {
		commit(fmt.Sprintf("insert into t values (%d)", i))
	}
	if _, err := eng.ExecUser("delete from t; insert into t values (1/0)"); err == nil {
		t.Fatal("script dividing by zero must fail")
	}
	commit("insert into t values (21)")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// A follower restarted over a copy of the leader's directory
	// re-feeds the local log through the incremental applier.
	f := &Follower{sch: sch, dir: leaderDir, fs: fsys}
	if err := f.bootstrap(); err != nil {
		t.Fatal(err)
	}
	if f.rp.DB().Fingerprint() != live.Fingerprint() {
		t.Fatal("follower contents differ from the leader's")
	}
	if got, want := f.rp.DB().Table("t").IDs(), live.Table("t").IDs(); !reflect.DeepEqual(got, want) {
		t.Errorf("follower iteration order differs from the leader's:\n got %v\nwant %v", got, want)
	}
}
