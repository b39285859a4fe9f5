package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"activerules/internal/schema"
	"activerules/internal/storage"
	"activerules/internal/wal"
)

// wal_recover: restart time. A directory on the real filesystem holds a
// checkpointed snapshot and one long log generation; every measured
// operation is one read-only wal.Recover of it.
const (
	recoverSnapshotRows = 10000 // archive rows in the snapshot
	recoverAccounts     = 200
	recoverAbortEvery   = 200 // every n-th transaction is followed by an aborted one
	recoverTail         = 25  // uncommitted updates at the end of the log
)

// recoverSpec freezes the workload's op counts.
type recoverSpec struct {
	committed int // one-update transactions after the snapshot
	perRound  int // Recover calls per round (one directory per round)
}

var defaultRecover = recoverSpec{committed: 20000, perRound: 40}

// recoverDir is one prepared directory and the state recovery must
// produce from it.
type recoverDir struct {
	dir     string
	sch     *schema.Schema
	balance []float64 // by account index: the last committed value
	commits int       // commit records recovery must honor
	aborts  int
}

// buildRecoverDir writes the directory straight through wal.Open and the
// DurableDB's observer and journal methods, the way the engine drives
// them: mutations, then Commit and Begin at each transaction boundary,
// Abort for a rolled-back one.
func buildRecoverDir(seed int64, committed int) (*recoverDir, error) {
	rng := rand.New(rand.NewSource(seed*9176 + 11))
	schemaSrc, _ := corpusSources("bank")
	sch, err := schema.Parse(schemaSrc + "table archive (id int, payload string)\n")
	if err != nil {
		return nil, err
	}
	tmp, err := newTmpDir("wal_recover")
	if err != nil {
		return nil, err
	}
	rd := &recoverDir{dir: filepath.Join(tmp, "wal"), sch: sch, balance: make([]float64, recoverAccounts)}
	// Nothing is acknowledged to anyone while the directory is built,
	// so it is written without fsync and synced once by Close.
	d, err := wal.Open(rd.dir, sch, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		return nil, err
	}
	db := d.State()
	db.SetObserver(d)
	ids := make([]storage.TupleID, recoverAccounts)
	for i := range ids {
		rd.balance[i] = bankOpenBalance
		if ids[i], err = db.Insert("account", []storage.Value{
			storage.IntV(int64(i)), storage.StringV(fmt.Sprintf("o%d", i)), storage.FloatV(bankOpenBalance)}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < recoverSnapshotRows; i++ {
		if _, err = db.Insert("archive", []storage.Value{
			storage.IntV(int64(i)), storage.StringV(fmt.Sprintf("archived-row-%08d", i))}); err != nil {
			return nil, err
		}
	}
	boundary := func() error {
		if err := d.Commit(); err != nil {
			return err
		}
		return d.Begin()
	}
	if err := boundary(); err != nil {
		return nil, err
	}
	if err := d.Checkpoint(db); err != nil {
		return nil, err
	}
	// The log generation after the snapshot: updates are logged through
	// the observer only (a log record carries the absolute new value, so
	// the in-memory copy is not needed once the snapshot is taken).
	update := func(commit bool) {
		i := rng.Intn(recoverAccounts)
		v := float64(rng.Intn(2000)) / 2
		d.ObserveUpdate("account", ids[i], "balance", storage.FloatV(v))
		if commit {
			rd.balance[i] = v
		}
	}
	for k := 0; k < committed; k++ {
		update(true)
		if err := boundary(); err != nil {
			return nil, err
		}
		rd.commits++
		if (k+1)%recoverAbortEvery == 0 {
			update(false)
			// As serve's fence does after a failed request: abort, then
			// the commit + begin pair that re-establishes the boundary.
			if err := d.Abort(); err != nil {
				return nil, err
			}
			if err := boundary(); err != nil {
				return nil, err
			}
			rd.aborts++
			rd.commits++
		}
	}
	for k := 0; k < recoverTail; k++ {
		update(false)
	}
	return rd, d.Close()
}

func (rd *recoverDir) remove() error { return os.RemoveAll(filepath.Dir(rd.dir)) }

// check requires the recovered state to be exactly the committed one.
func (rd *recoverDir) check(db *storage.DB, info wal.RecoveryInfo) error {
	if !info.SnapshotLoaded || info.TxCommitted != rd.commits || info.Aborts != rd.aborts || info.TailDiscarded != recoverTail {
		return fmt.Errorf("recovery info %+v, want snapshot loaded, %d commits, %d aborts, %d discarded",
			info, rd.commits, rd.aborts, recoverTail)
	}
	if n := db.Table("archive").Len(); n != recoverSnapshotRows {
		return fmt.Errorf("archive has %d rows after recovery, want %d", n, recoverSnapshotRows)
	}
	var err error
	seen := 0
	db.Table("account").Scan(func(tu *storage.Tuple) bool {
		i := int(tu.Vals[0].I)
		seen++
		if got := tu.Vals[2].F; got != rd.balance[i] {
			err = fmt.Errorf("account %d recovered with balance %v, committed value is %v", i, got, rd.balance[i])
			return false
		}
		return true
	})
	if err == nil && seen != recoverAccounts {
		err = fmt.Errorf("%d accounts after recovery, want %d", seen, recoverAccounts)
	}
	return err
}

func (sp recoverSpec) run(seed int64, seconds float64, traced bool) (*result, error) {
	res := &result{}
	var e2e e2eSample
	var perRecord []float64
	records := 0
	start := time.Now()
	for i := 0; i < minRounds || time.Since(start).Seconds() < seconds; i++ {
		var rd *recoverDir
		setup, err := timeSetup(func() (err error) {
			rd, err = buildRecoverDir(seed, sp.committed)
			return err
		})
		if err != nil {
			return nil, err
		}
		var lat []time.Duration
		var wall time.Duration
		_, alloc := measure(func() {
			lat, wall = timeEach(sp.perRound, func(int) time.Duration {
				t := time.Now()
				db, info, err := wal.Recover(rd.dir, rd.sch, nil)
				d := time.Since(t)
				res.attempted++
				if err != nil {
					res.failed++
					res.wrong = append(res.wrong, fmt.Sprintf("recover: %v", err))
					return d
				}
				if err := rd.check(db, info); err != nil {
					res.wrong = append(res.wrong, err.Error())
				}
				records = info.RecordsScanned
				return d
			})
		})
		for _, d := range lat {
			perRecord = append(perRecord, float64(d.Nanoseconds())/float64(max(records, 1)))
		}
		e2e.addRound(setup, sp.perRound, wall, alloc, lat)
		if err := rd.remove(); err != nil {
			return nil, err
		}
	}
	if traced {
		res.metrics = map[string]float64{
			"wal.recover_records":       float64(records),
			"wal.recover_ns_per_record": median(perRecord),
			"client.fail_share":         float64(res.failed) / float64(res.attempted),
			"host.slowdown":             hostSlowdown(),
		}
		clientTail(res.metrics, e2e.lat)
		return res, nil
	}
	res.metrics = e2e.metrics()
	return res, nil
}
