package crashtest

import (
	"encoding/hex"
	"fmt"

	"activerules/internal/schema"
	"activerules/internal/storage"
	"activerules/internal/wal"
)

// FenceReplay is the harness's independent reading of a WAL directory,
// the reference the replication and cluster soaks hold the production
// reader (wal.Replayer) to — so it is deliberately not built on it: it
// decodes record by record, keeps its own bookkeeping and applies with
// wal.Apply. It returns the hex fingerprint of every state the active
// generation's history passes through, in order: the snapshot state,
// the state each begin record fences, and last the recovery state (the
// unfenced committed tail adopted), which is also returned as final.
func FenceReplay(fsys wal.FS, dir string, sch *schema.Schema) (seq []string, final string, err error) {
	db, gen := storage.NewDB(sch), uint64(1)
	if snap, rerr := fsys.ReadFile(wal.SnapshotPath(dir)); rerr == nil {
		if db, gen, err = wal.DecodeSnapshot(snap, sch); err != nil {
			return nil, "", fmt.Errorf("oracle: snapshot: %w", err)
		}
	} else if !wal.IsNotExist(rerr) {
		return nil, "", fmt.Errorf("oracle: %w", rerr)
	}
	data, rerr := fsys.ReadFile(wal.LogPath(dir, gen))
	if rerr != nil && !wal.IsNotExist(rerr) {
		return nil, "", fmt.Errorf("oracle: %w", rerr)
	}
	var committed, pending []wal.Record
	fence := func() {
		for _, m := range committed {
			if aerr := wal.Apply(db, m); aerr != nil && err == nil {
				err = fmt.Errorf("oracle replay: %w", aerr)
			}
		}
		committed, pending = committed[:0], pending[:0]
		fp := db.Fingerprint()
		seq = append(seq, hex.EncodeToString(fp[:]))
	}
	fence() // nothing committed yet: the snapshot state
scan:
	for first := true; len(data) > 0; first = false {
		rec, n, rerr := wal.ReadRecord(data)
		if rerr != nil {
			break // torn or corrupt tail
		}
		data = data[n:]
		if first {
			continue // the opening marker
		}
		switch rec.Kind {
		case wal.RecSnapshot:
			break scan // only the prefix before a mid-log marker counts
		case wal.RecInsert, wal.RecDelete, wal.RecUpdate:
			pending = append(pending, rec)
		case wal.RecCommit:
			committed, pending = append(committed, pending...), pending[:0]
		case wal.RecBegin:
			fence()
		case wal.RecAbort:
			committed, pending = committed[:0], pending[:0]
		}
	}
	fence() // recovery adopts the unfenced committed tail
	return seq, seq[len(seq)-1], err
}
