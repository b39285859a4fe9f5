package wal

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"activerules/internal/schema"
	"activerules/internal/storage"
)

// Snapshot format: a full serialization of the database contents,
// written atomically (temp file + fsync + rename) at every checkpoint.
//
//	magic "ARSNAP1\n"
//	uvarint generation
//	uvarint nextID (the identity allocator)
//	uvarint table count, then per table in sorted name order:
//	  string  table name
//	  uvarint row count, then per row in iteration order:
//	    uvarint tuple id
//	    uvarint column count
//	    values  (same codec as log records)
//	sha256 of everything above (32-byte trailer)
//
// Rows are written in iteration order and restored with InsertWithID,
// so a database round-trips through a snapshot with identical contents
// AND identical iteration order — replaying the following log
// generation on top stays deterministic.

var snapMagic = []byte("ARSNAP1\n")

// DecodeSnapshot rebuilds a database from snapshot bytes against the
// schema, returning the generation the snapshot was taken at. It is the
// exported face of the recovery decoder, used by replication followers
// bootstrapping from a streamed snapshot; any structural problem wraps
// ErrCorrupt.
func DecodeSnapshot(data []byte, sch *schema.Schema) (*storage.DB, uint64, error) {
	return decodeSnapshot(data, sch)
}

// SnapshotGen peeks at a snapshot's header and returns the generation
// it records, without decoding or verifying the body. Used to label
// snapshot bytes being shipped; the receiver still fully decodes.
func SnapshotGen(data []byte) (uint64, error) {
	if len(data) < len(snapMagic)+1 || string(data[:len(snapMagic)]) != string(snapMagic) {
		return 0, fmt.Errorf("%w: bad snapshot magic", ErrCorrupt)
	}
	gen, n := binary.Uvarint(data[len(snapMagic):])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad snapshot generation", ErrCorrupt)
	}
	return gen, nil
}

// encodeSnapshot serializes db at the given generation. prevLen, the
// length of the snapshot this one replaces (0: none), sizes the buffer,
// with an eighth of headroom for what was inserted since; the bytes do
// not depend on it.
func encodeSnapshot(db *storage.DB, gen uint64, prevLen int) []byte {
	b := append(make([]byte, 0, prevLen+prevLen/8), snapMagic...)
	b = binary.AppendUvarint(b, gen)
	b = binary.AppendUvarint(b, uint64(db.NextID()))
	names := append([]string(nil), db.Schema().TableNames()...)
	sort.Strings(names)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		t := db.Table(name)
		b = appendString(b, name)
		b = binary.AppendUvarint(b, uint64(t.Len()))
		t.Scan(func(tu *storage.Tuple) bool {
			b = binary.AppendUvarint(b, uint64(tu.ID))
			b = binary.AppendUvarint(b, uint64(len(tu.Vals)))
			for _, v := range tu.Vals {
				b = appendValue(b, v)
			}
			return true
		})
	}
	sum := sha256.Sum256(b)
	return append(b, sum[:]...)
}

// decodeSnapshot rebuilds a database from snapshot bytes against the
// schema. Any structural problem — bad magic, digest mismatch, a table
// the schema does not know, undecodable rows — wraps ErrCorrupt.
func decodeSnapshot(data []byte, sch *schema.Schema) (*storage.DB, uint64, error) {
	if len(data) < len(snapMagic)+sha256.Size {
		return nil, 0, fmt.Errorf("%w: snapshot too short (%d bytes)", ErrCorrupt, len(data))
	}
	body, trailer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sum := sha256.Sum256(body); string(sum[:]) != string(trailer) {
		return nil, 0, fmt.Errorf("%w: snapshot digest mismatch", ErrCorrupt)
	}
	if string(body[:len(snapMagic)]) != string(snapMagic) {
		return nil, 0, fmt.Errorf("%w: bad snapshot magic", ErrCorrupt)
	}
	d := decoder{b: body[len(snapMagic):]}
	gen := d.uvarint()
	nextID := d.uvarint()
	ntables := d.uvarint()
	if ntables > uint64(sch.NumTables()) {
		return nil, 0, fmt.Errorf("%w: snapshot names %d tables, schema has %d", ErrCorrupt, ntables, sch.NumTables())
	}
	db := storage.NewDB(sch)
	for ti := uint64(0); ti < ntables && d.err == nil; ti++ {
		name := d.str()
		nrows := d.uvarint()
		if nrows > uint64(len(d.b)) { // each row takes at least 1 byte
			return nil, 0, fmt.Errorf("%w: implausible row count %d for table %q", ErrCorrupt, nrows, name)
		}
		for ri := uint64(0); ri < nrows && d.err == nil; ri++ {
			id := storage.TupleID(d.uvarint())
			ncols := d.uvarint()
			if ncols > uint64(len(d.b)) {
				return nil, 0, fmt.Errorf("%w: implausible column count %d in table %q", ErrCorrupt, ncols, name)
			}
			vals := make([]storage.Value, 0, ncols)
			for ci := uint64(0); ci < ncols; ci++ {
				vals = append(vals, d.value())
			}
			if d.err != nil {
				break
			}
			if err := db.InsertWithID(name, id, vals); err != nil {
				return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
		}
	}
	if d.err != nil {
		return nil, 0, fmt.Errorf("snapshot: %w", d.err)
	}
	if len(d.b) != 0 {
		return nil, 0, fmt.Errorf("%w: %d trailing snapshot bytes", ErrCorrupt, len(d.b))
	}
	db.BumpNextID(storage.TupleID(nextID))
	return db, gen, nil
}

// InstallSnapshot atomically installs data as dir's snapshot file:
// write to a temp name, fsync, rename over the final name, then fsync
// the directory so the rename itself is durable. The rename is the
// commit point; a crash anywhere before it leaves the previous snapshot
// untouched, the fsync before it guarantees the renamed file has its
// contents, and the directory fsync after it guarantees a later power
// loss cannot revert the name swap (which would pair the old snapshot
// with the new, already-started log generation). A checkpoint installs
// its own encoding; a follower installs the bytes its leader streamed.
func InstallSnapshot(fsys FS, dir string, data []byte) error {
	tmp := join(dir, "snapshot.tmp")
	f, err := fsys.Create(tmp)
	if err == nil {
		if _, err = f.Write(data); err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = fsys.Rename(tmp, SnapshotPath(dir))
	}
	if err == nil {
		err = fsys.SyncDir(dir)
	}
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	return nil
}

// join concatenates a directory and base name with a slash. The WAL
// manages flat directories only, so this is all the path logic needed —
// and it keeps FS implementations trivially portable.
func join(dir, name string) string {
	if dir == "" {
		return name
	}
	return dir + "/" + name
}
