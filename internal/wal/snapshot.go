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

// snapSection is one table's part of a snapshot — name, row count, rows
// — as encoded from table t at t.Version() == ver. The pair is the key:
// a section carries tuple identities and iteration order, which the
// table's content digest does not (delete a row, insert an equal one:
// same digest, and the log that follows names the new identity), and
// another *Table — a reopened, cloned or forked database — is other rows
// whatever its counter reads.
type snapSection struct {
	t   *storage.Table
	ver uint64
	buf []byte
}

// encode rewrites the section from t, in its own buffer where the rows
// still fit and otherwise in one made at exactly their size: a first
// pass encodes each row over the last only to measure, since growing to
// a table's size by append leaves several times it as garbage.
func (s *snapSection) encode(name string, t *storage.Table) {
	b := binary.AppendUvarint(appendString(s.buf[:0], name), uint64(t.Len()))
	size, row := len(b), b[len(b):]
	t.Scan(func(tu *storage.Tuple) bool {
		row = appendRow(row[:0], tu)
		size += len(row)
		return true
	})
	if cap(b) < size {
		b = append(make([]byte, 0, size), b...)
	}
	t.Scan(func(tu *storage.Tuple) bool {
		b = appendRow(b, tu)
		return true
	})
	s.t, s.ver, s.buf = t, t.Version(), b
}

func appendRow(b []byte, tu *storage.Tuple) []byte {
	b = binary.AppendUvarint(b, uint64(tu.ID))
	b = binary.AppendUvarint(b, uint64(len(tu.Vals)))
	for _, v := range tu.Vals {
		b = appendValue(b, v)
	}
	return b
}

// snapEncoder encodes snapshots and keeps the sections, in sorted name
// order, between them: one encoded copy of the database it last saw.
type snapEncoder struct{ sections []snapSection }

// parts returns db's snapshot at generation gen as the byte slices that,
// written in order, are the file: the header, one section per table, the
// trailer. Only the sections of tables that changed since the last call
// (or are not the tables it saw) are encoded again; the header and the
// SHA-256 over everything are made every time. The sections are the
// encoder's own, valid until the next call.
func (e *snapEncoder) parts(db *storage.DB, gen uint64) [][]byte {
	names := db.Schema().TableNames()
	sort.Strings(names)
	if len(e.sections) != len(names) {
		e.sections = make([]snapSection, len(names))
	}
	head := binary.AppendUvarint(append([]byte(nil), snapMagic...), gen)
	head = binary.AppendUvarint(head, uint64(db.NextID()))
	head = binary.AppendUvarint(head, uint64(len(names)))
	parts := append(make([][]byte, 0, len(names)+2), head)
	h := sha256.New()
	h.Write(head)
	for i, name := range names {
		s, t := &e.sections[i], db.Table(name)
		if s.t != t || s.ver != t.Version() {
			s.encode(name, t)
		}
		h.Write(s.buf)
		parts = append(parts, s.buf)
	}
	return append(parts, h.Sum(nil))
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
// its own encoding, part by part; a follower installs the bytes its
// leader streamed.
func InstallSnapshot(fsys FS, dir string, data []byte) error {
	return installSnapshot(fsys, dir, data)
}

// installSnapshot installs the concatenation of parts, one write each,
// all of them into the temp file before the one rename.
func installSnapshot(fsys FS, dir string, parts ...[]byte) error {
	tmp := join(dir, "snapshot.tmp")
	f, err := fsys.Create(tmp)
	if err == nil {
		for i := 0; i < len(parts) && err == nil; i++ {
			_, err = f.Write(parts[i])
		}
		if err == nil {
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
