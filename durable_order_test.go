package activerules_test

// Recovery must reproduce iteration order, not just contents: a script
// that deletes most of a table and then fails is undone in place in the
// live database, and its compensation records sit in a committed range
// of the log (DurableSession callers may carry on after an error). The
// replayed re-inserts have to revive their original slots; a recovered
// session that iterates differently can fire and select in a different
// order than the one that crashed.

import (
	"fmt"
	"reflect"
	"testing"

	"activerules"
)

func TestRecoverReplaysFailedScriptInPlace(t *testing.T) {
	sys := activerules.MustLoad("table t (v int)\ntable u (v int)",
		"create rule r on t\nwhen inserted\nthen insert into u select v from inserted")
	fsys := activerules.NewMemFS()
	ds, err := sys.OpenDurable("wal", activerules.DurableOptions{
		WAL: activerules.WALOptions{FS: fsys},
	})
	if err != nil {
		t.Fatal(err)
	}
	commit := func(sql string) {
		t.Helper()
		if _, err := ds.Engine.ExecUser(sql); err != nil {
			t.Fatal(err)
		}
		if _, err := ds.Engine.Assert(); err != nil {
			t.Fatal(err)
		}
		if err := ds.Engine.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 20; i++ {
		commit(fmt.Sprintf("insert into t values (%d)", i))
	}
	if _, err := ds.Engine.ExecUser("delete from t; insert into t values (1/0)"); err == nil {
		t.Fatal("script dividing by zero must fail")
	}
	commit("insert into t values (21)")
	live := ds.Engine.DB()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	rec, _, err := sys.Recover("wal", fsys)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Fingerprint() != live.Fingerprint() {
		t.Fatal("recovered contents differ from the live database")
	}
	if got, want := rec.Table("t").IDs(), live.Table("t").IDs(); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered iteration order differs from the live database:\n got %v\nwant %v", got, want)
	}
}
