package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"activerules/internal/engine"
	"activerules/internal/ruledef"
	"activerules/internal/rules"
	"activerules/internal/schema"
	"activerules/internal/serve"
	"activerules/internal/sqlmini"
	"activerules/internal/wal"
)

// The staged pipeline is the benchmark's own copy of what
// serve.executeOnce does for one request — ExecUser, AssertContext,
// Commit, DB().Fingerprint() — built from the same public pieces with
// the timing wrappers installed, and driven by one goroutine. It is
// where the per-layer times and the exact per-layer counts come from.

// cloneProbeEvery: storage.Clone is timed directly on every n-th
// request (it is what Engine.Commit spends its self time in today).
const cloneProbeEvery = 10

// staged is what one staged replay measured, one entry per request.
type staged struct {
	rec *recorder

	parse       []time.Duration // standalone sqlmini.ParseStatements
	execUser    []time.Duration
	assertSelf  []time.Duration // AssertContext minus considerations and journal
	consider    []time.Duration // rule considerations (condition + action)
	commitSelf  []time.Duration // Commit minus its journal children
	fingerprint []time.Duration
	journal     []time.Duration // journal calls, filesystem time included
	observe     []time.Duration // inside the log's Observe* hooks
	fsWrite     []time.Duration
	fsSync      []time.Duration
	total       []time.Duration // the four stages, inclusive
	clone       []time.Duration
	checkpoints []time.Duration

	requests      int
	considered    int
	fired         int
	mutations     int
	fs            fsCounts // inside the measured requests only (checkpoints excluded)
	rows, tables  int      // database size when the replay ended
	snapshotBytes int
	wrong         []string
}

// runStaged replays st (single client: the merged stream) through a
// freshly built pipeline.
func (sp *servedSpec) runStaged(st *stream) (*staged, error) {
	schemaSrc, rulesSrc := sp.sources()
	sch, err := schema.Parse(schemaSrc)
	if err != nil {
		return nil, err
	}
	defs, err := ruledef.Parse(rulesSrc)
	if err != nil {
		return nil, err
	}
	set, err := rules.NewSet(sch, defs)
	if err != nil {
		return nil, err
	}
	reqs := st.merged()
	out := &staged{rec: newRecorder(16 * len(reqs)), requests: len(reqs)}
	rec := out.rec

	var base wal.FS = wal.NewMemFS()
	dir := "wal"
	if sp.realFS {
		tmp, err := newTmpDir(sp.name + "-staged")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		base, dir = wal.OS, filepath.Join(tmp, "wal")
	}
	tfs := &tracedFS{FS: base, rec: rec}
	rec.req = -1 // set-up spans belong to no request
	d, err := wal.Open(dir, sch, wal.Options{FS: tfs, Sync: wal.SyncCommit})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	db := d.State()
	obs := &tracedObserver{o: d}
	db.SetObserver(obs)
	considering := -1
	eng := engine.New(set, db, engine.Options{
		MaxSteps: 10000,
		Compiled: true,
		Journal:  tracedJournal{j: d, rec: rec},
		// One span per rule consideration, delimited by the engine's
		// own trace events.
		Trace: func(ev engine.TraceEvent) {
			switch ev.Kind {
			case "choose":
				considering = rec.begin("engine.consider")
			case "fire", "skip", "rollback", "assert-error":
				if considering >= 0 {
					rec.end(considering)
					considering = -1
				}
			}
		},
	})

	// exec is executeOnce, staged.
	exec := func(rq request) (*serve.Response, error) {
		id := rec.begin("engine.exec_user")
		results, err := eng.ExecUser(rq.sql)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		id = rec.begin("engine.assert")
		res, err := eng.AssertContext(context.Background())
		rec.end(id)
		if err != nil {
			return nil, err
		}
		id = rec.begin("engine.commit")
		err = eng.Commit()
		rec.end(id)
		if err != nil {
			return nil, err
		}
		id = rec.begin("storage.fingerprint")
		_ = eng.DB().Fingerprint()
		rec.end(id)
		return &serve.Response{Results: results, Considered: res.Considered, Fired: res.Fired}, nil
	}
	checkpoint := func() error {
		id := rec.begin("wal.checkpoint")
		defer rec.end(id)
		if err := eng.Commit(); err != nil {
			return err
		}
		return d.Checkpoint(eng.DB())
	}

	for _, rq := range st.preload {
		resp, err := exec(rq)
		if err != nil {
			return nil, fmt.Errorf("staged set-up load: %w", err)
		}
		if msg := verify(resp, rq.want); msg != "" {
			return nil, fmt.Errorf("staged set-up load: %s", msg)
		}
	}

	every := sp.checkpointEvery * nClients
	for k, rq := range reqs {
		rec.req = k
		t := time.Now()
		if _, err := sqlmini.ParseStatements(rq.sql); err != nil {
			return nil, err
		}
		out.parse = append(out.parse, time.Since(t))
		obs.spent = 0
		fsBefore, mutBefore := tfs.counts(), obs.mutations
		resp, err := exec(rq)
		out.observe = append(out.observe, obs.spent)
		out.fs.addSince(tfs, fsBefore)
		out.mutations += obs.mutations - mutBefore
		if err != nil {
			out.wrong = append(out.wrong, fmt.Sprintf("staged request %d failed: %v", k, err))
			continue
		}
		if msg := verify(resp, rq.want); msg != "" {
			out.wrong = append(out.wrong, fmt.Sprintf("staged request %d (%s): %s", k, rq.sql, msg))
		}
		out.considered += resp.Considered
		out.fired += resp.Fired
		rec.req = -1
		if k%cloneProbeEvery == 0 {
			t := time.Now()
			_ = eng.DB().Clone()
			out.clone = append(out.clone, time.Since(t))
		}
		if every > 0 && (k+1)%every == 0 {
			if err := checkpoint(); err != nil {
				return nil, err
			}
		}
	}
	// The server's shutdown writes a closing checkpoint; so does this.
	if err := checkpoint(); err != nil {
		return nil, err
	}
	if snap, err := base.ReadFile(filepath.ToSlash(filepath.Join(dir, "snapshot.db"))); err == nil {
		out.snapshotBytes = len(snap)
	}
	out.rows = eng.DB().TotalRows()
	out.tables = len(sch.TableNames())
	if len(out.wrong) == 0 {
		if err := checkRecovered(eng.DB(), st); err != nil {
			out.wrong = append(out.wrong, "staged "+err.Error())
		}
	}
	out.aggregate()
	return out, nil
}

// aggregate folds the spans into per-request stage times: a stage's
// self time is its span minus what its children cover.
func (s *staged) aggregate() {
	n := s.requests
	grow := func() []time.Duration { return make([]time.Duration, n) }
	s.execUser, s.assertSelf, s.consider, s.commitSelf = grow(), grow(), grow(), grow()
	s.fingerprint, s.journal, s.fsWrite, s.fsSync, s.total = grow(), grow(), grow(), grow(), grow()
	self := s.rec.selfTimes()
	for i, sp := range s.rec.spans {
		dur := time.Duration(sp.End - sp.Start)
		if sp.Name == "wal.checkpoint" {
			s.checkpoints = append(s.checkpoints, dur)
		}
		if sp.Req < 0 {
			continue
		}
		if sp.Parent < 0 {
			s.total[sp.Req] += dur
		}
		switch sp.Name {
		case "engine.exec_user":
			s.execUser[sp.Req] += self[i]
		case "engine.assert":
			s.assertSelf[sp.Req] += self[i]
		case "engine.consider":
			s.consider[sp.Req] += self[i]
		case "engine.commit":
			s.commitSelf[sp.Req] += self[i]
		case "storage.fingerprint":
			s.fingerprint[sp.Req] += self[i]
		case "wal.journal_begin", "wal.journal_commit", "wal.journal_abort":
			s.journal[sp.Req] += dur
		case "wal.fs_write":
			s.fsWrite[sp.Req] += dur
		case "wal.fs_sync":
			s.fsSync[sp.Req] += dur
		}
	}
}
