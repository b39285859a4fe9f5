package wal

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"activerules/internal/schema"
	"activerules/internal/storage"
)

// FuzzReadRecord feeds ReadRecord arbitrary bytes. The contract under
// fuzz: never panic, never accept a damaged frame silently — every
// outcome is a decoded record, ErrTorn, or ErrCorrupt — and anything it
// does decode must survive a re-encode/re-decode round trip: the record
// decoded again from AppendRecord's bytes encodes to those bytes.
func FuzzReadRecord(f *testing.F) {
	// Seed with every record kind (multi-row inserts and deletes
	// included), valid multi-record streams, torn prefixes, and
	// single-byte corruptions of each.
	var stream []byte
	for _, rec := range allKinds() {
		one := AppendRecord(nil, rec)
		f.Add(one)
		f.Add(one[:len(one)/2])
		flipped := append([]byte(nil), one...)
		flipped[len(flipped)/2] ^= 0x20
		f.Add(flipped)
		stream = AppendRecord(stream, rec)
	}
	f.Add(stream)
	f.Add([]byte{})
	f.Add(make([]byte, headerSize))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := ReadRecord(data)
		if err != nil {
			if !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("unexpected error class: %v", err)
			}
			if n != 0 {
				t.Fatalf("n = %d alongside error %v", n, err)
			}
			return
		}
		if n < headerSize || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		reenc := AppendRecord(nil, rec)
		rec2, n2, err := ReadRecord(reenc)
		if err != nil {
			t.Fatalf("re-decode of %s: %v", rec, err)
		}
		if n2 != len(reenc) || rec2.String() != rec.String() || !bytes.Equal(AppendRecord(nil, rec2), reenc) {
			t.Fatalf("round trip drifted: %s -> %s", rec, rec2)
		}
	})
}

// chunkSchema is the schema of crashtest.BuildRollback, so that
// scenario's generation-1 logs open with the marker this harness
// expects and replay in full.
var chunkSchema = schema.MustParse("table a (id int, v int)\ntable b (id int, v int)")

// replayOutcome is everything a caller can observe of a finished read.
type replayOutcome struct {
	FeedErr, FinishErr string
	Good               int64
	Info               RecoveryInfo
	FP                 [32]byte
	NextID             storage.TupleID
	IDs                [][]storage.TupleID
}

// replayIn reads log over a fresh generation-1 database in pieces whose
// sizes next chooses, then applies the end-of-log rule.
func replayIn(log []byte, next func() int) replayOutcome {
	rp := NewReplayer(storage.NewDB(chunkSchema), 1)
	var out replayOutcome
	for len(log) > 0 {
		n := min(next(), len(log))
		if err := rp.Feed(log[:n]); err != nil {
			out.FeedErr = err.Error()
		}
		log = log[n:]
	}
	if err := rp.Finish(); err != nil {
		out.FinishErr = err.Error()
	}
	db := rp.DB()
	out.Good, out.Info, out.FP, out.NextID = rp.Good(), rp.Info(), db.Fingerprint(), db.NextID()
	for _, name := range chunkSchema.TableNames() {
		out.IDs = append(out.IDs, db.Table(name).IDs())
	}
	return out
}

// FuzzReplayChunking holds the one reader of the log to chunking
// independence: whatever the bytes, reading them in one piece and in
// seeded pieces ends in the same database (contents, iteration order,
// identity allocator), the same good length, the same RecoveryInfo and
// the same error — and neither panics. The committed corpus
// (testdata/fuzz/FuzzReplayChunking) holds crash-point logs of the
// crashtest rollback scenario (crash-*: torn tails, aborts, and one
// generation-2 log this harness must refuse at the marker) and the
// four handwritten logs also seeded below.
func FuzzReplayChunking(f *testing.F) {
	log := func(recs ...Record) []byte {
		var b []byte
		for _, r := range recs {
			b = AppendRecord(b, r)
		}
		return b
	}
	ins := func(ids ...int) Record {
		rec := Record{Kind: RecInsert, Table: "a"}
		for _, id := range ids {
			rec.Rows = append(rec.Rows, Row{ID: storage.TupleID(id), Vals: []storage.Value{storage.IntV(int64(id)), storage.IntV(0)}})
		}
		return rec
	}
	del := func(ids ...int) Record {
		rec := Record{Kind: RecDelete, Table: "a"}
		for _, id := range ids {
			rec.Rows = append(rec.Rows, Row{ID: storage.TupleID(id)})
		}
		return rec
	}
	marker := Record{Kind: RecSnapshot, Gen: 1, FP: storage.NewDB(chunkSchema).CanonicalFingerprint()}
	begin, commit, abort := Record{Kind: RecBegin}, Record{Kind: RecCommit}, Record{Kind: RecAbort}

	// A corrupt record mid-stream, with committed transactions after it.
	bad := log(ins(2))
	bad[len(bad)-1] ^= 0x01
	corrupt := append(log(marker, begin, ins(1), commit, begin), bad...)
	f.Add(append(corrupt, log(commit, begin, ins(3), commit, begin)...), uint64(5))
	// A snapshot marker inside the log.
	f.Add(log(marker, begin, ins(1), commit, marker, begin, ins(2), commit, begin), uint64(11))
	// An epoch record between a begin and its commit.
	f.Add(log(marker, begin, ins(1), Record{Kind: RecEpoch, Epoch: 9}, ins(2), commit, begin, ins(3)), uint64(3))
	// An abort after two assertion-point commits of one transaction.
	f.Add(log(marker, begin, ins(1), commit, begin, ins(2), commit, ins(3), commit, abort, ins(4), commit), uint64(97))
	f.Add([]byte{}, uint64(0))
	// The marker new logs open with; the seeds above keep the canonical
	// digest older logs carry.
	marker.FP = storage.NewDB(chunkSchema).Fingerprint()
	f.Add(log(marker, begin, ins(1), commit, begin, ins(2), commit, ins(3)), uint64(7))
	// Multi-row runs, down as well as up, whose frames straddle chunks
	// of 1 to 9 bytes; the last run is an uncommitted tail.
	runs := log(marker, begin, ins(1, 2, 3, 9, 5), commit, del(9, 1, 3), ins(4, 6), commit, begin, del(2, 6, 5, 4), ins(12, 11, 10))
	f.Add(runs, uint64(8))
	f.Add(runs, uint64(14))

	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		whole := replayIn(data, func() int { return len(data) })
		rng := rand.New(rand.NewSource(int64(seed)))
		most := 1 + int(seed%97)
		if chunked := replayIn(data, func() int { return 1 + rng.Intn(most) }); !reflect.DeepEqual(whole, chunked) {
			t.Fatalf("one-shot and chunked (seed %d) reads differ:\n whole  %+v\n chunked %+v", seed, whole, chunked)
		}
	})
}
