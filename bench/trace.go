package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"activerules/internal/engine"
	"activerules/internal/storage"
	"activerules/internal/wal"
)

// Tracing from outside: every span is recorded by the benchmark around
// a call into a layer's public function, or inside a wrapper installed
// through a seam the program already has (wal.Options.FS,
// engine.Options.Journal, storage.DB.SetObserver). Wrappers delegate
// every call — a wrapped Sync still syncs — because a wrapper that
// skips work measures a different program.

// span is one timed call. Start and End are nanoseconds since the
// recorder was created; Parent indexes the span that caused this one
// (-1 for a request's top-level stages); Req is the request number.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// recorder keeps spans in memory; the span file is written once, when
// the run ends. It is single-threaded by construction: the staged
// pipeline runs on one goroutine, as the engine does.
type recorder struct {
	t0    time.Time
	spans []span
	stack []int // open spans, innermost last
	req   int
}

func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (r *recorder) begin(name string) int {
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent, Req: r.req})
	id := len(r.spans) - 1
	r.stack = append(r.stack, id)
	return id
}

func (r *recorder) end(id int) {
	r.spans[id].End = int64(time.Since(r.t0))
	r.stack = r.stack[:len(r.stack)-1]
}

// selfTimes returns, per span, its duration minus the part its direct
// children cover.
func (r *recorder) selfTimes() []time.Duration {
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += time.Duration(s.End - s.Start)
		if s.Parent >= 0 {
			self[s.Parent] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

func (r *recorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ---- wal.FS wrapper ----

// fsCounts are the device-level counts of one filesystem.
type fsCounts struct {
	writes, syncs, bytes int64
}

// addSince adds what the filesystem did since the before reading.
func (a *fsCounts) addSince(fs *tracedFS, before fsCounts) {
	now := fs.counts()
	a.writes += now.writes - before.writes
	a.syncs += now.syncs - before.syncs
	a.bytes += now.bytes - before.bytes
}

// tracedFS wraps a wal.FS: it counts and times file writes and fsyncs
// and, when a recorder is attached (the single-goroutine staged
// pipeline), records a span for each. The counters are atomic because
// under a real server several workers may share one filesystem (the
// tenant fleet does).
type tracedFS struct {
	wal.FS
	rec *recorder // nil: count and time only

	writes, syncs, bytes atomic.Int64
	busy                 atomic.Int64 // nanoseconds inside Write and Sync
}

func (t *tracedFS) counts() fsCounts {
	return fsCounts{t.writes.Load(), t.syncs.Load(), t.bytes.Load()}
}

// timed runs one filesystem call under the wrapper's clock.
func (t *tracedFS) timed(name string, call func() error) error {
	if t.rec != nil {
		defer t.rec.end(t.rec.begin(name))
		return call()
	}
	t0 := time.Now()
	err := call()
	t.busy.Add(int64(time.Since(t0)))
	return err
}

func (t *tracedFS) Create(name string) (wal.File, error) {
	f, err := t.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, fs: t}, nil
}

func (t *tracedFS) OpenAppend(name string) (wal.File, error) {
	f, err := t.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, fs: t}, nil
}

func (t *tracedFS) SyncDir(dir string) error {
	return t.timed("wal.fs_syncdir", func() error { return t.FS.SyncDir(dir) })
}

type tracedFile struct {
	wal.File
	fs *tracedFS
}

func (f *tracedFile) Write(p []byte) (n int, err error) {
	f.fs.writes.Add(1)
	f.fs.bytes.Add(int64(len(p)))
	err = f.fs.timed("wal.fs_write", func() error {
		n, err = f.File.Write(p)
		return err
	})
	return n, err
}

func (f *tracedFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.fs.timed("wal.fs_sync", f.File.Sync)
}

// ---- engine.Journal wrapper ----

type tracedJournal struct {
	j   engine.Journal
	rec *recorder
}

func (t tracedJournal) Begin() error {
	defer t.rec.end(t.rec.begin("wal.journal_begin"))
	return t.j.Begin()
}

func (t tracedJournal) Commit() error {
	defer t.rec.end(t.rec.begin("wal.journal_commit"))
	return t.j.Commit()
}

func (t tracedJournal) Abort() error {
	defer t.rec.end(t.rec.begin("wal.journal_abort"))
	return t.j.Abort()
}

// ---- storage.Observer tee ----

// tracedObserver forwards every physical mutation to the log's observer
// and accounts for the time spent there. Mutations are too many for a
// span each, so the time is summed per request.
type tracedObserver struct {
	o         storage.Observer
	mutations int
	spent     time.Duration
}

func (t *tracedObserver) ObserveInsert(table string, id storage.TupleID, vals []storage.Value) {
	t0 := time.Now()
	t.o.ObserveInsert(table, id, vals)
	t.spent += time.Since(t0)
	t.mutations++
}

func (t *tracedObserver) ObserveDelete(table string, id storage.TupleID) {
	t0 := time.Now()
	t.o.ObserveDelete(table, id)
	t.spent += time.Since(t0)
	t.mutations++
}

func (t *tracedObserver) ObserveUpdate(table string, id storage.TupleID, col string, v storage.Value) {
	t0 := time.Now()
	t.o.ObserveUpdate(table, id, col, v)
	t.spent += time.Since(t0)
	t.mutations++
}
