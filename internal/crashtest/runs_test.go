package crashtest

import (
	"strings"
	"testing"

	"activerules/internal/wal"
)

// recordingFS is a MemFS that also keeps every byte written to a log
// file, whatever later truncates or removes it.
type recordingFS struct {
	*wal.MemFS
	logs map[string][]byte
}

func (r recordingFS) Create(name string) (wal.File, error) {
	f, err := r.MemFS.Create(name)
	return recordingFile{f, name, r.logs}, err
}

func (r recordingFS) OpenAppend(name string) (wal.File, error) {
	f, err := r.MemFS.OpenAppend(name)
	return recordingFile{f, name, r.logs}, err
}

type recordingFile struct {
	wal.File
	name string
	logs map[string][]byte
}

func (f recordingFile) Write(p []byte) (int, error) {
	if strings.Contains(f.name, "/wal-") {
		f.logs[f.name] = append(f.logs[f.name], p...)
	}
	return f.File.Write(p)
}

// widestRecord runs sc crash-free and returns the most rows any insert
// or delete record it logged holds.
func widestRecord(t *testing.T, sc *Scenario) int {
	t.Helper()
	fsys := recordingFS{wal.NewMemFS(), map[string][]byte{}}
	if err := RunDurable(sc, fsys, wal.Options{}, nil); err != nil {
		t.Fatal(err)
	}
	widest := 0
	for name, data := range fsys.logs {
		for len(data) > 0 {
			rec, n, err := wal.ReadRecord(data)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			widest = max(widest, len(rec.Rows))
			data = data[n:]
		}
	}
	return widest
}

// TestScenariosLogMultiRowRecords: the enumerations cut inside records
// that hold several rows. Every scenario's seeding round inserts three
// rows into each table in a row, and those share a record, so crash
// points, short writes and the corruption sweep all land inside runs.
func TestScenariosLogMultiRowRecords(t *testing.T) {
	for seed := int64(1); seed <= NumSeeds; seed++ {
		sc, err := Build(seed)
		if err != nil {
			t.Fatal(err)
		}
		if w := widestRecord(t, sc); w < 2 {
			t.Errorf("seed %d: the widest record holds %d rows, want 2 or more", seed, w)
		}
	}
	sc, err := BuildRollback()
	if err != nil {
		t.Fatal(err)
	}
	if w := widestRecord(t, sc); w < 2 {
		t.Errorf("rollback scenario: the widest record holds %d rows, want 2 or more", w)
	}
}
