package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"activerules/internal/storage"
)

// TestFixtureRecordsReencode holds the encoder to the logs written
// before insert and delete records held runs: every record of the
// marker-pr15 and marker-pr21 logs, decoded and encoded again, is the
// same bytes. (TestSnapshotMarkerDigests recovers both directories to
// their writers' states.)
func TestFixtureRecordsReencode(t *testing.T) {
	for _, name := range []string{"marker-pr15", "marker-pr21"} {
		data, err := os.ReadFile(filepath.Join("testdata", name, logName(2)))
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(data); {
			rec, n, err := ReadRecord(data[off:])
			if err != nil {
				t.Fatalf("%s: record at byte %d: %v", name, off, err)
			}
			if rec.Kind == RecInsert || rec.Kind == RecDelete {
				if len(rec.Rows) != 1 {
					t.Errorf("%s: %s at byte %d, want one row", name, rec, off)
				}
			}
			if got := AppendRecord(nil, rec); !bytes.Equal(got, data[off:off+n]) {
				t.Errorf("%s: %s at byte %d re-encodes as\n%x, want\n%x", name, rec, off, got, data[off:off+n])
			}
			off += n
		}
	}
}

// bufFile is a File that keeps what is written to it.
type bufFile struct{ bytes.Buffer }

func (*bufFile) Sync() error  { return nil }
func (*bufFile) Close() error { return nil }

// discard is a File that drops what is written to it.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
func (discard) Sync() error                 { return nil }
func (discard) Close() error                { return nil }

func vals(s string, n int64) []storage.Value {
	return []storage.Value{storage.StringV(s), storage.IntV(n)}
}

// TestLogRunsAreAppendRecord: the bytes a Log writes for coalesced runs
// are exactly AppendRecord's for the same multi-row records. Rows of one
// kind on one table share a record, identities may go down as well as
// up, and a record of another kind, another table or a flush seals it.
func TestLogRunsAreAppendRecord(t *testing.T) {
	f := &bufFile{}
	l := &Log{f: f}
	for _, id := range []storage.TupleID{3, 4, 9, 5} {
		l.ObserveInsert("acct", id, vals("ann", int64(id)))
	}
	for _, id := range []storage.TupleID{9, 3, 4} {
		l.ObserveDelete("acct", id)
	}
	l.ObserveDelete("audit", 1)
	l.ObserveUpdate("acct", 5, "balance", storage.IntV(6))
	l.ObserveInsert("acct", 10, vals("bo", 10))
	l.ObserveInsert("audit", 11, []storage.Value{storage.StringV("x"), storage.BoolV(true)})
	l.ObserveInsert("audit", 12, []storage.Value{storage.StringV("y"), storage.BoolV(false)})
	l.flush()
	l.ObserveInsert("audit", 13, []storage.Value{storage.StringV("z"), storage.Null})
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}

	var want []byte
	for _, rec := range []Record{
		{Kind: RecInsert, Table: "acct", Rows: []Row{
			{ID: 3, Vals: vals("ann", 3)}, {ID: 4, Vals: vals("ann", 4)},
			{ID: 9, Vals: vals("ann", 9)}, {ID: 5, Vals: vals("ann", 5)},
		}},
		{Kind: RecDelete, Table: "acct", Rows: []Row{{ID: 9}, {ID: 3}, {ID: 4}}},
		{Kind: RecDelete, Table: "audit", Rows: []Row{{ID: 1}}},
		{Kind: RecUpdate, Table: "acct", ID: 5, Col: "balance", Val: storage.IntV(6)},
		{Kind: RecInsert, Table: "acct", Rows: []Row{{ID: 10, Vals: vals("bo", 10)}}},
		{Kind: RecInsert, Table: "audit", Rows: []Row{
			{ID: 11, Vals: []storage.Value{storage.StringV("x"), storage.BoolV(true)}},
			{ID: 12, Vals: []storage.Value{storage.StringV("y"), storage.BoolV(false)}},
		}},
		{Kind: RecInsert, Table: "audit", Rows: []Row{{ID: 13, Vals: []storage.Value{storage.StringV("z"), storage.Null}}}},
		{Kind: RecCommit},
	} {
		want = AppendRecord(want, rec)
	}
	if !bytes.Equal(f.Bytes(), want) {
		t.Errorf("log wrote\n%x\nwant AppendRecord's\n%x", f.Bytes(), want)
	}
}

// TestLogRunCap: the row that takes a run's payload to runBytes seals
// the run, and the next row opens another. Every run decodes to its
// rows, in order. (The rows stay under bufferBytes, so no spill seals a
// run early.)
func TestLogRunCap(t *testing.T) {
	f := &bufFile{}
	l := &Log{f: f}
	var ids []storage.TupleID
	for id := storage.TupleID(1); id <= 200; id++ {
		l.ObserveInsert("acct", id, vals(strings.Repeat("x", int(id)*13%1500), int64(id)))
		ids = append(ids, id)
	}
	l.ObserveInsert("acct", 201, vals(strings.Repeat("y", runBytes), 201)) // reaches the cap alone
	l.ObserveInsert("acct", 202, vals("z", 202))
	ids = append(ids, 201, 202)
	l.flush()
	if f.Len() >= bufferBytes {
		t.Fatalf("%d bytes logged, want under %d", f.Len(), bufferBytes)
	}

	var got []storage.TupleID
	var recs []Record
	for data := f.Bytes(); len(data) > 0; {
		rec, n, err := ReadRecord(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rec.Rows {
			got = append(got, row.ID)
		}
		recs = append(recs, rec)
		data = data[n:]
	}
	if !slices.Equal(got, ids) {
		t.Fatalf("rows %v, want %v", got, ids)
	}
	if len(recs) < 4 {
		t.Fatalf("%d records, want the cap to split the run", len(recs))
	}
	payload := func(rec Record) int { return len(AppendRecord(nil, rec)) - headerSize }
	for i, rec := range recs[:len(recs)-1] {
		last := len(rec.Rows) - 1
		if n, before := payload(rec), payload(Record{Kind: RecInsert, Table: "acct", Rows: rec.Rows[:last]}); n < runBytes || last > 0 && before >= runBytes {
			t.Errorf("record %d of %d: %d rows, a %d-byte payload (%d before its last row), want its last row to reach %d",
				i, len(recs), len(rec.Rows), n, before, runBytes)
		}
	}
}

// TestLogCoalesceAllocs: extending and sealing runs costs nothing on a
// warmed Log. A 4-row insert run (a cascade's insert request), a 28-row
// delete run (its sweep) and the commit that seals and writes them
// allocate 0.
func TestLogCoalesceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	l := &Log{f: discard{}}
	row := vals("owner", 1)
	request := func() {
		for id := storage.TupleID(1); id <= 4; id++ {
			l.ObserveInsert("acct", id, row)
		}
		for id := storage.TupleID(28); id >= 1; id-- {
			l.ObserveDelete("audit", id)
		}
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	request() // warm the buffer
	if n := testing.AllocsPerRun(100, request); n != 0 {
		t.Errorf("a 4-row insert run, a 28-row delete run and a commit: %v allocations, want 0", n)
	}
}
