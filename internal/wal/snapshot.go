package wal

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"activerules/internal/schema"
	"activerules/internal/storage"
)

// Snapshot format, version 2: an append-only file of frames.
//
//	magic "ARSNAP2\n"
//	frames, each:
//	  uint32le payload length
//	  byte     kind: 1 section, 2 index
//	  payload
//	  sha256 of the length, kind and payload (32 bytes)
//
//	section payload, one table's rows:
//	  string  table name
//	  uvarint row count, then per row in iteration order:
//	    uvarint tuple id
//	    uvarint column count
//	    values  (same codec as log records)
//	index payload:
//	  uint64le generation
//	  uint64le nextID (the identity allocator)
//	  uint64le per table, in sorted name order: the file offset of the
//	           table's live section frame, which comes before the index
//
// The snapshot is what the last index reachable by reading intact
// frames from the start names; the bytes after that index are a tail no
// reader uses. A checkpoint appends a section for each table that
// changed since the last one and then an index, all under one fsync:
// until the index is whole on disk a reader finds the previous one. A
// writer that does not know the file, or whose append would leave dead
// frames (superseded sections and indexes) at least as heavy as the live
// ones, writes the file whole instead — magic, a section per table, an
// index — to snapshot.tmp, fsyncs it and renames it over snapshot.db.
//
// Version 1 ("ARSNAP1\n"), which every checkpoint before version 2
// wrote and which is still read, is one body under a whole-file digest:
//
//	magic "ARSNAP1\n"
//	uvarint generation
//	uvarint nextID
//	uvarint table count, then the section payloads, in sorted name order
//	sha256 of everything above (32-byte trailer)
//
// Rows are written in iteration order and restored in it, so a database
// round-trips through a snapshot with identical contents AND identical
// iteration order — replaying the following log generation on top stays
// deterministic.

var (
	snapMagic   = []byte("ARSNAP2\n")
	snapMagicV1 = []byte("ARSNAP1\n")
)

// Frame kinds and the fixed parts of a frame.
const (
	frameSection byte = 1
	frameIndex   byte = 2
	frameHead         = 5 // payload length and kind
	frameTail         = sha256.Size
)

// DecodeSnapshot rebuilds a database from snapshot bytes against the
// schema, returning the generation the snapshot was taken at. It is the
// exported face of the recovery decoder, used by replication followers
// bootstrapping from a streamed snapshot; any structural problem wraps
// ErrCorrupt. Bytes past the last intact index are ignored: they are an
// append a racing reader caught half-written, or a torn one.
func DecodeSnapshot(data []byte, sch *schema.Schema) (*storage.DB, uint64, error) {
	db, gen, _, err := decodeSnapshot(data, sch)
	return db, gen, err
}

// liveSnapshot returns the snapshot the bytes of a snapshot file hold,
// as a file that holds nothing else, and its generation, without
// decoding the rows. A version 1 file is returned as it is. For version
// 2 it is the last intact index's sections, copied frame by frame
// behind the magic, and an index naming them there: the bytes a whole
// rewrite of that state writes, with no dead frame or torn tail. It is
// what a leader ships to a follower, which still fully decodes.
func liveSnapshot(data []byte) ([]byte, uint64, error) {
	if bytes.HasPrefix(data, snapMagicV1) {
		gen, n := binary.Uvarint(data[len(snapMagicV1):])
		if n <= 0 {
			return nil, 0, fmt.Errorf("%w: bad snapshot generation", ErrCorrupt)
		}
		return data, gen, nil
	}
	ix, err := scanSnapshot(data)
	if err != nil {
		return nil, 0, err
	}
	size := len(snapMagic) + frameHead + 8*(2+len(ix.secs)) + frameTail
	for _, sec := range ix.secs {
		size += len(sec)
	}
	out := append(make([]byte, 0, size), snapMagic...)
	index := append(make([]byte, 0, frameHead+8*(2+len(ix.secs))+frameTail), 0, 0, 0, 0, frameIndex)
	index = binary.LittleEndian.AppendUint64(index, ix.gen)
	index = binary.LittleEndian.AppendUint64(index, ix.nextID)
	for _, sec := range ix.secs {
		index = binary.LittleEndian.AppendUint64(index, uint64(len(out)))
		out = append(out, sec...)
	}
	return append(out, seal(index)...), ix.gen, nil
}

// snapIndex is the last index a scan of a version 2 file reached.
type snapIndex struct {
	gen, nextID uint64
	secs        [][]byte // the section frames it names, whole, in its order
	end         int      // where the index frame ends
}

// frameAt reads the frame at the start of b: its kind, its payload and
// its whole length. ok is false when b does not start with an intact
// frame — too short for the length it gives, or a digest that does not
// match.
func frameAt(b []byte) (kind byte, payload []byte, n int, ok bool) {
	if len(b) < frameHead+frameTail {
		return 0, nil, 0, false
	}
	p := binary.LittleEndian.Uint32(b)
	if uint64(p) > uint64(len(b)-frameHead-frameTail) {
		return 0, nil, 0, false
	}
	n = frameHead + int(p)
	if sha256.Sum256(b[:n]) != [sha256.Size]byte(b[n:n+frameTail]) {
		return 0, nil, 0, false
	}
	return b[4], b[frameHead:n], n + frameTail, true
}

// scanSnapshot reads a version 2 file's intact frames from the start and
// returns the last index among them. An intact frame that does not
// parse — an unknown kind, an index of the wrong length or naming
// anything but an earlier intact section — is corruption, and so is a
// file with no intact index.
func scanSnapshot(data []byte) (snapIndex, error) {
	var ix snapIndex
	if !bytes.HasPrefix(data, snapMagic) {
		return ix, fmt.Errorf("%w: bad snapshot magic", ErrCorrupt)
	}
	type frame struct{ off, n int }
	var sections []frame // the intact section frames so far, ascending
	found := false
	for off := len(snapMagic); ; {
		kind, p, n, ok := frameAt(data[off:])
		if !ok {
			break
		}
		switch kind {
		case frameSection:
			sections = append(sections, frame{off, n})
		case frameIndex:
			if len(p) < 16 || len(p)%8 != 0 {
				return ix, fmt.Errorf("%w: snapshot index of %d bytes at %d", ErrCorrupt, len(p), off)
			}
			ix = snapIndex{gen: binary.LittleEndian.Uint64(p), nextID: binary.LittleEndian.Uint64(p[8:]), secs: ix.secs[:0], end: off + n}
			for q := p[16:]; len(q) > 0; q = q[8:] {
				at := binary.LittleEndian.Uint64(q)
				i, ok := slices.BinarySearchFunc(sections, at, func(f frame, at uint64) int { return cmp.Compare(uint64(f.off), at) })
				if !ok {
					return ix, fmt.Errorf("%w: snapshot index at %d names %d, where no earlier section starts", ErrCorrupt, off, at)
				}
				ix.secs = append(ix.secs, data[at:at+uint64(sections[i].n)])
			}
			found = true
		default:
			return ix, fmt.Errorf("%w: snapshot frame of kind %d at %d", ErrCorrupt, kind, off)
		}
		off += n
	}
	if !found {
		return ix, fmt.Errorf("%w: no intact snapshot index", ErrCorrupt)
	}
	return ix, nil
}

// decodeSnapshot rebuilds a database from snapshot bytes against the
// schema and returns it with its generation and the length of the tail
// past a version 2 file's last index. Any structural problem — bad
// magic, a digest mismatch, no intact index, sections out of name
// order, a table the schema does not know, undecodable rows — wraps
// ErrCorrupt.
func decodeSnapshot(data []byte, sch *schema.Schema) (db *storage.DB, gen uint64, tail int, err error) {
	if bytes.HasPrefix(data, snapMagicV1) {
		db, gen, err := decodeSnapshotV1(data, sch)
		return db, gen, 0, err
	}
	ix, err := scanSnapshot(data)
	if err != nil {
		return nil, 0, 0, err
	}
	db = storage.NewDB(sch)
	prev := ""
	for i, sec := range ix.secs {
		d := decoder{b: sec[frameHead : len(sec)-frameTail]}
		t, err := restoreSection(&d, db)
		if err != nil {
			return nil, 0, 0, err
		}
		name := t.Def().Name
		if i > 0 && name <= prev {
			return nil, 0, 0, fmt.Errorf("%w: snapshot section %q after %q", ErrCorrupt, name, prev)
		}
		prev = name
		if len(d.b) != 0 {
			return nil, 0, 0, fmt.Errorf("%w: %d trailing bytes in snapshot section %q", ErrCorrupt, len(d.b), prev)
		}
	}
	db.BumpNextID(storage.TupleID(ix.nextID))
	return db, ix.gen, len(data) - ix.end, nil
}

// decodeSnapshotV1 rebuilds a database from a version 1 file.
func decodeSnapshotV1(data []byte, sch *schema.Schema) (*storage.DB, uint64, error) {
	if len(data) < len(snapMagicV1)+sha256.Size {
		return nil, 0, fmt.Errorf("%w: snapshot too short (%d bytes)", ErrCorrupt, len(data))
	}
	body, trailer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sum := sha256.Sum256(body); string(sum[:]) != string(trailer) {
		return nil, 0, fmt.Errorf("%w: snapshot digest mismatch", ErrCorrupt)
	}
	d := decoder{b: body[len(snapMagicV1):]}
	gen := d.uvarint()
	nextID := d.uvarint()
	ntables := d.uvarint()
	if ntables > uint64(sch.NumTables()) {
		return nil, 0, fmt.Errorf("%w: snapshot names %d tables, schema has %d", ErrCorrupt, ntables, sch.NumTables())
	}
	db := storage.NewDB(sch)
	for ti := uint64(0); ti < ntables && d.err == nil; ti++ {
		if _, err := restoreSection(&d, db); err != nil {
			return nil, 0, err
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

// restoreSection reads one section — name, row count, rows — from d into
// db and returns its table.
func restoreSection(d *decoder, db *storage.DB) (*storage.Table, error) {
	name := d.str()
	nrows := d.uvarint()
	if d.err != nil {
		return nil, fmt.Errorf("snapshot: %w", d.err)
	}
	t := db.Table(name)
	if t == nil {
		return nil, fmt.Errorf("%w: snapshot names table %q, which the schema does not have", ErrCorrupt, name)
	}
	if nrows > uint64(len(d.b)) { // each row takes at least 1 byte
		return nil, fmt.Errorf("%w: implausible row count %d for table %q", ErrCorrupt, nrows, name)
	}
	err := db.RestoreRows(name, int(nrows), func(vals []storage.Value) (storage.TupleID, error) {
		id := storage.TupleID(d.uvarint())
		if n := d.uvarint(); d.err == nil && n != uint64(len(vals)) {
			d.fail("%d values in a row of table %q, which has %d columns", n, name, len(vals))
		}
		for i := range vals {
			vals[i] = d.value()
		}
		return id, d.err
	})
	switch {
	case d.err != nil:
		return nil, fmt.Errorf("snapshot: %w", d.err)
	case err != nil:
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return t, nil
}

// snapSection is one table's live section in the file — where its frame
// starts and how long it is — with the table and the t.Version() it was
// encoded from. The pair is the key: a section carries tuple identities
// and iteration order, which the table's content digest does not
// (delete a row, insert an equal one: same digest, and the log that
// follows names the new identity), and another *Table — a reopened,
// cloned or forked database — is other rows whatever its counter reads.
type snapSection struct {
	t      *storage.Table
	ver    uint64
	off, n int64
}

// snapEncoder writes a directory's snapshot file and knows it between
// checkpoints: where each table's live section is, and how many of the
// file's bytes are dead frames. It keeps no rows: a frame is encoded
// into buf, written, and buf reused for the next.
type snapEncoder struct {
	sections []snapSection // per table, in sorted name order
	size     int64         // the file's length; 0: the encoder does not know the file
	dead     int64         // bytes of superseded sections and indexes
	index    int64         // the length of the last index frame
	buf      []byte
}

// write makes db at generation gen dir's snapshot. It appends a section
// for each table whose (pointer, Version) moved, then an index, to the
// file it knows; it writes the file whole when it knows none, or when
// the bytes the append would leave dead — those dead now, the index and
// the sections it replaces — would be at least the live ones, so a file
// stays within twice what it holds, and a checkpoint that changes every
// table writes only what an append would. Either way the writes end in
// one fsync; on an error the encoder forgets the file.
func (e *snapEncoder) write(fsys FS, dir string, db *storage.DB, gen uint64) error {
	names := db.Schema().TableNames()
	sort.Strings(names)
	if len(e.sections) != len(names) {
		e.sections, e.size = make([]snapSection, len(names)), 0
	}
	kill := e.index
	for i, name := range names {
		if s, t := &e.sections[i], db.Table(name); s.t != t || s.ver != t.Version() {
			kill += s.n
		}
	}
	whole := e.size == 0 || e.dead+kill >= e.size-int64(len(snapMagic))-e.dead
	off := e.size
	frames := func(f File) (err error) {
		for i, name := range names {
			if s, t := &e.sections[i], db.Table(name); err == nil && (whole || s.t != t || s.ver != t.Version()) {
				e.encodeSection(name, t)
				*s = snapSection{t: t, ver: t.Version(), off: off, n: int64(len(e.buf))}
				off, err = e.put(f, off)
			}
		}
		if err == nil {
			e.encodeIndex(db, gen)
			e.index = int64(len(e.buf))
			off, err = e.put(f, off)
		}
		return err
	}
	var err error
	if whole {
		off = int64(len(snapMagic))
		err = installSnapshot(fsys, dir, func(f File) error {
			if _, err := f.Write(snapMagic); err != nil {
				return err
			}
			return frames(f)
		})
	} else {
		var f File
		if f, err = fsys.OpenAppend(SnapshotPath(dir)); err == nil {
			err = syncWrite(f, frames)
		}
	}
	if err != nil {
		e.size = 0
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if whole {
		e.dead = 0
	} else {
		e.dead += kill
	}
	e.size = off
	return nil
}

// put writes the frame in buf to f at offset off and returns the offset
// after it.
func (e *snapEncoder) put(f File, off int64) (int64, error) {
	_, err := f.Write(e.buf)
	return off + int64(len(e.buf)), err
}

// encodeSection encodes t's section frame into buf, in place where it
// fits and otherwise in a buffer made at exactly its size: a first pass
// encodes each row over the last only to measure, since growing to a
// table's size by append leaves several times it as garbage.
func (e *snapEncoder) encodeSection(name string, t *storage.Table) {
	b := binary.AppendUvarint(appendString(append(e.buf[:0], 0, 0, 0, 0, frameSection), name), uint64(t.Len()))
	size, row := len(b)+frameTail, b[len(b):]
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
	e.buf = seal(b)
}

// encodeIndex encodes the index frame of db at generation gen over the
// sections into buf.
func (e *snapEncoder) encodeIndex(db *storage.DB, gen uint64) {
	b := append(e.buf[:0], 0, 0, 0, 0, frameIndex)
	b = binary.LittleEndian.AppendUint64(b, gen)
	b = binary.LittleEndian.AppendUint64(b, uint64(db.NextID()))
	for _, s := range e.sections {
		b = binary.LittleEndian.AppendUint64(b, uint64(s.off))
	}
	e.buf = seal(b)
}

// seal completes the frame in b, whose header leaves its length unset:
// it sets the length and appends the digest.
func seal(b []byte) []byte {
	binary.LittleEndian.PutUint32(b, uint32(len(b)-frameHead))
	sum := sha256.Sum256(b)
	return append(b, sum[:]...)
}

func appendRow(b []byte, tu *storage.Tuple) []byte {
	b = binary.AppendUvarint(b, uint64(tu.ID))
	b = binary.AppendUvarint(b, uint64(len(tu.Vals)))
	for _, v := range tu.Vals {
		b = appendValue(b, v)
	}
	return b
}

// InstallSnapshot atomically installs data as dir's snapshot file. A
// follower installs the bytes its leader streamed this way.
func InstallSnapshot(fsys FS, dir string, data []byte) error {
	if err := installSnapshot(fsys, dir, func(f File) error {
		_, err := f.Write(data)
		return err
	}); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	return nil
}

// installSnapshot atomically installs what fill writes as dir's snapshot
// file: write to a temp name, fsync, rename over the final name, then
// fsync the directory so the rename itself is durable. The rename is the
// commit point; a crash anywhere before it leaves the previous snapshot
// untouched, the fsync before it guarantees the renamed file has its
// contents, and the directory fsync after it guarantees a later power
// loss cannot revert the name swap (which would pair the old snapshot
// with the new, already-started log generation). A checkpoint that
// writes its file whole and a follower's install both take these steps.
func installSnapshot(fsys FS, dir string, fill func(File) error) error {
	tmp := join(dir, "snapshot.tmp")
	f, err := fsys.Create(tmp)
	if err == nil {
		err = syncWrite(f, fill)
	}
	if err == nil {
		err = fsys.Rename(tmp, SnapshotPath(dir))
	}
	if err == nil {
		err = fsys.SyncDir(dir)
	}
	return err
}

// syncWrite writes f's new bytes with fill, fsyncs f and closes it.
func syncWrite(f File, fill func(File) error) error {
	err := fill(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
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
