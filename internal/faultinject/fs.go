package faultinject

import (
	"errors"
	"fmt"
	"math/rand"

	"activerules/internal/wal"
)

// ErrCrashed is the sentinel for a simulated process crash: the
// filesystem operation at the crash point never happened, and every
// later operation on the wrapped filesystem fails with this error. The
// crash-test harness (internal/crashtest) then recovers from the
// underlying filesystem as a fresh process would.
var ErrCrashed = errors.New("faultinject: simulated crash")

// The filesystem fault knobs live in Config next to the mutation knobs
// so one seeded injector drives both fault domains — a chaos scenario
// can interleave storage faults and fs faults from a single
// deterministic stream.

// crasher is implemented by filesystems that can apply power-loss
// semantics to their own state (wal.MemFS).
type crasher interface {
	Crash(*rand.Rand)
}

// shortWriter is implemented by file handles that can apply a partial
// write (wal.MemFS handles).
type shortWriter interface {
	ShortWrite(p []byte, n int) (int, error)
}

// WrapFS returns a filesystem that delegates to fsys, injecting faults
// at the state-changing operations (Create, OpenAppend, Write, Sync,
// SyncDir, Rename, Remove, Truncate) according to the injector's FS
// configuration. Read-side operations (ReadFile, ReadDir, MkdirAll) are
// never counted or failed: they model the recovery path, which runs in
// a fresh process after the fault.
//
// The fs call counter is separate from the mutation call counter, but
// the random stream is shared: probabilistic storage and fs faults
// drawn from one seed interleave deterministically for a fixed
// workload.
func (in *Injector) WrapFS(fsys wal.FS) wal.FS {
	in.fs = fsys
	return injFS{in: in, fs: fsys}
}

// FSCalls returns the number of state-changing filesystem operations
// observed so far, including while disarmed. A fault-free probe run
// measures how many fs injection points a scenario has.
func (in *Injector) FSCalls() int { return in.fsCalls }

// Crashed reports whether the simulated crash point has been reached.
func (in *Injector) Crashed() bool { return in.crashed }

// fsCheck counts one state-changing fs operation and decides its fate:
// nil (proceed), an injected failure, or a simulated crash. The crash
// freezes the injector — all later operations fail without counting —
// and applies power-loss semantics to the wrapped filesystem when it
// supports them.
func (in *Injector) fsCheck(op, name string) error {
	if in.crashed {
		return ErrCrashed
	}
	in.fsCalls++
	if !in.armed {
		return nil
	}
	if in.cfg.FSCrashAt > 0 && in.fsCalls == in.cfg.FSCrashAt {
		in.faults++
		in.crashed = true
		if c, ok := in.fs.(crasher); ok {
			c.Crash(in.rng)
		}
		return fmt.Errorf("%w: at %s %s (fs call %d)", ErrCrashed, op, name, in.fsCalls)
	}
	if in.cfg.FSFailAt > 0 && in.fsCalls == in.cfg.FSFailAt {
		in.faults++
		return fmt.Errorf("%w: %s %s (fs call %d)", ErrInjected, op, name, in.fsCalls)
	}
	return nil
}

// injFS is the fault-injecting filesystem view.
type injFS struct {
	in *Injector
	fs wal.FS
}

func (f injFS) MkdirAll(dir string) error { return f.fs.MkdirAll(dir) }

func (f injFS) Create(name string) (wal.File, error) {
	if err := f.in.fsCheck("create", name); err != nil {
		return nil, err
	}
	file, err := f.fs.Create(name)
	if err != nil {
		return nil, err
	}
	return injFile{in: f.in, f: file, name: name}, nil
}

func (f injFS) OpenAppend(name string) (wal.File, error) {
	if err := f.in.fsCheck("open-append", name); err != nil {
		return nil, err
	}
	file, err := f.fs.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return injFile{in: f.in, f: file, name: name}, nil
}

func (f injFS) ReadFile(name string) ([]byte, error) { return f.fs.ReadFile(name) }

func (f injFS) Rename(oldname, newname string) error {
	if err := f.in.fsCheck("rename", newname); err != nil {
		return err
	}
	return f.fs.Rename(oldname, newname)
}

func (f injFS) Remove(name string) error {
	if err := f.in.fsCheck("remove", name); err != nil {
		return err
	}
	return f.fs.Remove(name)
}

func (f injFS) Truncate(name string, size int64) error {
	if err := f.in.fsCheck("truncate", name); err != nil {
		return err
	}
	return f.fs.Truncate(name, size)
}

func (f injFS) SyncDir(dir string) error {
	if err := f.in.fsCheck("sync-dir", dir); err != nil {
		return err
	}
	return f.fs.SyncDir(dir)
}

func (f injFS) ReadDir(dir string) ([]string, error) { return f.fs.ReadDir(dir) }

// injFile is the fault-injecting file-handle view.
type injFile struct {
	in   *Injector
	f    wal.File
	name string
}

// Write injects at write points. A crash here loses this write entirely
// (the operation "never happened"); FSShortWriteAt instead lets a
// random prefix of the buffer reach the file before the error, the
// classic torn-write shape the torn-tail rule must absorb.
func (h injFile) Write(p []byte) (int, error) {
	in := h.in
	if in.armed && !in.crashed && in.cfg.FSShortWriteAt > 0 && in.fsCalls+1 == in.cfg.FSShortWriteAt && len(p) > 0 {
		in.fsCalls++
		in.faults++
		if sw, ok := h.f.(shortWriter); ok {
			return sw.ShortWrite(p, in.rng.Intn(len(p)))
		}
		return 0, fmt.Errorf("%w: short write %s (fs call %d)", ErrInjected, h.name, in.fsCalls)
	}
	if err := in.fsCheck("write", h.name); err != nil {
		return 0, err
	}
	return h.f.Write(p)
}

func (h injFile) Sync() error {
	if err := h.in.fsCheck("fsync", h.name); err != nil {
		return err
	}
	return h.f.Sync()
}

// Close is not an injection point: the WAL treats close as best-effort
// and every interesting failure is already covered by write and fsync.
func (h injFile) Close() error { return h.f.Close() }
