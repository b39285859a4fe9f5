package storage

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"activerules/internal/schema"
)

// DB is an in-memory database instance over a fixed schema. A DB is not
// safe for concurrent mutation; the rule engine is single-threaded per
// transaction, matching Starburst's rule-processing model.
type DB struct {
	sch    *schema.Schema
	tables map[string]*Table
	names  []string // the schema's table names, sorted; never written, so Clone and Fork share it
	order  []*Table // tables[names[i]] at i, so a pass over every table hashes no name
	nextID TupleID

	// undo is the history of the open transaction: one Change, most recent
	// last, per primitive mutation performed while a savepoint is active.
	// RollbackTo reverses it and net-effect computation reads it (History).
	// spDepth counts active savepoints; tables compact their tombstones
	// only where it returns to zero, so an undone delete finds its slot.
	// gen counts the times entries were removed (HistoryGen).
	undo    []Change
	spDepth int
	gen     uint64

	// obs, when non-nil, receives every physical mutation applied to the
	// database (see Observer). Clones never carry the observer.
	obs Observer

	// fp is Fingerprint's scratch space. Clones never carry it.
	fp fpScratch
}

// Observer receives every physical mutation applied to a DB, in
// application order — including the compensating mutations RollbackTo
// applies when reversing a savepoint. A write-ahead log attached here
// (internal/wal) is therefore a pure redo log: replaying the observed
// sequence onto the same starting state reproduces the exact contents
// and iteration order, with savepoint rollbacks appearing as mutation/
// compensation pairs that cancel out.
//
// Observers must not mutate the database from within a callback.
type Observer interface {
	// ObserveInsert reports an applied insert, with the assigned
	// identity and the coerced column values.
	ObserveInsert(table string, id TupleID, vals []Value)
	// ObserveDelete reports an applied delete.
	ObserveDelete(table string, id TupleID)
	// ObserveUpdate reports an applied single-column update with the
	// coerced new value.
	ObserveUpdate(table string, id TupleID, col string, v Value)
}

// SetObserver attaches (or, with nil, detaches) the mutation observer.
func (db *DB) SetObserver(o Observer) { db.obs = o }

// Observer returns the attached mutation observer, or nil.
func (db *DB) Observer() Observer { return db.obs }

// ChangeKind is the kind of a primitive mutation in a DB's history.
type ChangeKind int

// The three primitive mutations.
const (
	ChangeInsert ChangeKind = iota
	ChangeDelete
	ChangeUpdate
)

// Change is one entry of a DB's history: a primitive mutation applied
// while a savepoint was active, with what RollbackTo needs to reverse it.
// It is also all that net-effect computation (internal/transition) needs
// to reconstruct a tuple's value at any earlier position. Readers must
// not modify a Change, nor keep Row or its values: a rollback puts that
// very tuple object back into the table, where it is updated in place.
type Change struct {
	Kind  ChangeKind
	Table *Table
	ID    TupleID
	Col   int    // update: column index
	Old   Value  // update: previous value
	Row   *Tuple // delete: the removed tuple object
}

// History returns the changes recorded since the outermost active
// savepoint was taken, oldest first; positions in it are what the rule
// engine's marks are. The slice is the DB's own: read-only, and valid
// until the next mutation, RollbackTo or Release.
func (db *DB) History() []Change { return db.undo }

// HistoryLen returns len(History()): the position the next change takes.
func (db *DB) HistoryLen() int { return len(db.undo) }

// HistoryGen returns the history's truncation generation. It changes
// exactly when entries are removed (a RollbackTo that undoes any, the
// outermost Release of a non-empty history), so a reader that remembers
// (HistoryGen, HistoryLen) can tell "only appended to since" from
// "positions below my mark were reused". Fork carries it over.
func (db *DB) HistoryGen() uint64 { return db.gen }

// record appends c to the history and indexes it on its table.
func (db *DB) record(c Change) {
	db.undo = append(db.undo, c)
	c.Table.noteChange(len(db.undo), c.Kind)
}

// Savepoint is a point-in-time marker in a DB's mutation history.
// RollbackTo returns the database to exactly the marked state (contents,
// iteration order, and identity allocation); Release keeps the changes
// and discards the undo records. Every Savepoint must be consumed by
// exactly one RollbackTo or Release, innermost first when nested.
type Savepoint struct {
	undoLen int
	nextID  TupleID
	depth   int
}

// Savepoint marks the current state for a cheap partial rollback. Unlike
// Clone, taking a savepoint is O(1); the cost is a small undo record per
// subsequent mutation until the savepoint is released or rolled back.
func (db *DB) Savepoint() Savepoint {
	db.spDepth++
	return Savepoint{undoLen: len(db.undo), nextID: db.nextID, depth: db.spDepth}
}

// RollbackTo reverses every mutation performed since the savepoint was
// taken, restoring contents, iteration order, and the identity counter.
// Each reversal is reported to the observer as the compensating physical
// mutation it applies (an undone insert observes as a delete, and so
// on), keeping any attached redo log replayable in sequence.
func (db *DB) RollbackTo(sp Savepoint) {
	for i := len(db.undo) - 1; i >= sp.undoLen; i-- {
		u, t := db.undo[i], db.undo[i].Table
		switch u.Kind {
		case ChangeInsert:
			t.unInsert(u.ID)
			if db.obs != nil {
				db.obs.ObserveDelete(t.def.Name, u.ID)
			}
		case ChangeDelete:
			t.unDelete(u.Row)
			if db.obs != nil {
				db.obs.ObserveInsert(t.def.Name, u.Row.ID, u.Row.Vals)
			}
		case ChangeUpdate:
			t.touch()
			t.setVal(t.Get(u.ID), u.Col, u.Old)
			if db.obs != nil {
				db.obs.ObserveUpdate(t.def.Name, u.ID, t.def.Columns[u.Col].Name, u.Old)
			}
		}
	}
	if sp.undoLen < len(db.undo) {
		// The undone tables' positions are re-derived from the surviving
		// prefix. The dropped records are zeroed before reslicing, or the
		// tuples and tables they point at stay reachable through the
		// spare capacity.
		for _, u := range db.undo[sp.undoLen:] {
			u.Table.forgetChanges()
		}
		clear(db.undo[sp.undoLen:])
		db.undo = db.undo[:sp.undoLen]
		db.gen++
		for i, u := range db.undo {
			u.Table.noteChange(i+1, u.Kind)
		}
	}
	db.nextID = sp.nextID
	db.spDepth = sp.depth - 1
}

// Release discards the savepoint, keeping all mutations made since it
// was taken. Under nesting, the kept mutations remain undoable by the
// enclosing savepoint; only releasing the outermost savepoint drops the
// accumulated undo records, and compacts the tables they deleted from.
func (db *DB) Release(sp Savepoint) {
	db.spDepth = sp.depth - 1
	if db.spDepth == 0 && len(db.undo) > 0 {
		for _, u := range db.undo {
			if u.Kind == ChangeDelete {
				u.Table.compact()
			}
			u.Table.forgetChanges()
		}
		clear(db.undo) // see RollbackTo
		db.undo = db.undo[:0]
		db.gen++
	}
}

// UndoDepth returns the number of active savepoints and of undo records
// held for them; both are zero between outermost savepoints.
func (db *DB) UndoDepth() (savepoints, records int) { return db.spDepth, len(db.undo) }

// NewDB creates an empty database for the schema.
func NewDB(s *schema.Schema) *DB {
	db := &DB{sch: s, tables: make(map[string]*Table, s.NumTables()), names: s.TableNames(), nextID: 1}
	sort.Strings(db.names)
	db.order = make([]*Table, len(db.names))
	for i, name := range db.names {
		db.order[i] = newTable(s.Table(name))
		db.tables[name] = db.order[i]
	}
	return db
}

// Schema returns the database schema.
func (db *DB) Schema() *schema.Schema { return db.sch }

// Table returns the named table, or nil if the schema has no such table.
// Names match regardless of case. The schema's names are lowercase, so a
// name as the schema spells it, which is what every mutation passes, is
// found without lowercasing it.
func (db *DB) Table(name string) *Table {
	if t := db.tables[name]; t != nil {
		return t
	}
	return db.tables[strings.ToLower(name)]
}

// blockRows caps the rows one allocation block of InsertRows holds: a
// statement of more rows gets a block per blockRows of them. A row keeps
// its block reachable, tuple and values, for as long as it lives, so a
// surviving row holds at most blockRows-1 dead rows' memory.
const blockRows = 64

// coerce writes vals, coerced to t's column types, into dst, which has
// one slot per column; a type mismatch or arity mismatch is an error.
func (t *Table) coerce(dst, vals []Value) error {
	if len(vals) != len(t.def.Columns) {
		return fmt.Errorf("storage: insert into %s: %d values for %d columns",
			t.def.Name, len(vals), len(t.def.Columns))
	}
	for i, v := range vals {
		cv, err := v.Coerce(t.def.Columns[i].Type)
		if err != nil {
			return fmt.Errorf("storage: insert into %s.%s: %v", t.def.Name, t.def.Columns[i].Name, err)
		}
		dst[i] = cv
	}
	return nil
}

// table resolves a mutation's table.
func (db *DB) table(name string) (*Table, error) {
	if t := db.Table(name); t != nil {
		return t, nil
	}
	return nil, fmt.Errorf("storage: no table %q", name)
}

// inserted records an applied insert in the history and reports it.
func (db *DB) inserted(t *Table, tu *Tuple) {
	if db.spDepth > 0 {
		db.record(Change{Kind: ChangeInsert, Table: t, ID: tu.ID})
	}
	if db.obs != nil {
		db.obs.ObserveInsert(t.def.Name, tu.ID, tu.Vals)
	}
}

// Insert adds a tuple with the given column values (in schema column
// order) and returns its new identity: InsertRows of one row.
func (db *DB) Insert(table string, vals []Value) (TupleID, error) {
	id := db.nextID
	if _, err := db.InsertRows(table, [][]Value{vals}); err != nil {
		return 0, err
	}
	return id, nil
}

// InsertRows adds one tuple per row, in order, each under the next
// identity, and returns how many it added. Values are coerced to the
// column types; a type mismatch or arity mismatch is an error, and the
// rows before the failing one stay inserted. The table is resolved once,
// and the tuples and their values are copied into blocks of up to
// blockRows rows, one allocation each per block, so rows stays the
// caller's.
func (db *DB) InsertRows(table string, rows [][]Value) (int, error) {
	t, err := db.table(table)
	if err != nil {
		return 0, err
	}
	nc := len(t.def.Columns)
	var tuples []Tuple
	var vals []Value
	for i, row := range rows {
		if len(tuples) == 0 {
			k := min(len(rows)-i, blockRows)
			tuples, vals = make([]Tuple, k), make([]Value, k*nc)
		}
		tu := &tuples[0]
		tu.Vals = vals[:nc:nc]
		if err := t.coerce(tu.Vals, row); err != nil {
			return i, err
		}
		tuples, vals = tuples[1:], vals[nc:]
		tu.ID = db.nextID
		db.nextID++
		t.insert(tu)
		db.inserted(t, tu)
	}
	return len(rows), nil
}

// NextID returns the next tuple identity the database would allocate.
func (db *DB) NextID() TupleID { return db.nextID }

// BumpNextID raises the identity allocator to at least n. Used when
// restoring a database from a snapshot, so identities allocated after
// recovery never collide with restored ones. It never lowers the
// allocator.
func (db *DB) BumpNextID(n TupleID) {
	if n > db.nextID {
		db.nextID = n
	}
}

// RestoreRows adds n rows to one table under identities of their own,
// for restoring a database from a snapshot section or a redo-log insert
// record: the table is resolved once, and the tuples and their values
// are allocated in blocks as InsertRows allocates them. fill writes the
// next row's values into vals, one per column, and returns its
// identity; the values are then coerced in place, so a fill must reject
// a row of another arity itself. Rows may come in any identity order: a
// row revives its identity's tombstone, or else takes its sorted slot.
// The identity allocator is bumped past each row. An identity that is
// live is an error, and the rows before it stay restored.
func (db *DB) RestoreRows(table string, n int, fill func(vals []Value) (TupleID, error)) error {
	t, err := db.table(table)
	if err != nil {
		return err
	}
	nc := len(t.def.Columns)
	var tuples []Tuple
	var vals []Value
	for i := 0; i < n; i++ {
		if len(tuples) == 0 {
			k := min(n-i, blockRows)
			tuples, vals = make([]Tuple, k), make([]Value, k*nc)
		}
		tu := &tuples[0]
		tu.Vals = vals[:nc:nc]
		tuples, vals = tuples[1:], vals[nc:]
		if tu.ID, err = fill(tu.Vals); err != nil {
			return err
		}
		if err := t.coerce(tu.Vals, tu.Vals); err != nil {
			return err
		}
		if t.Get(tu.ID) != nil {
			return fmt.Errorf("storage: insert into %s: tuple %d already exists", t.def.Name, tu.ID)
		}
		t.insertPreservingOrder(tu)
		db.BumpNextID(tu.ID + 1)
		db.inserted(t, tu)
	}
	return nil
}

// MustInsert is Insert, panicking on error. Intended for tests/examples.
func (db *DB) MustInsert(table string, vals ...Value) TupleID {
	id, err := db.Insert(table, vals)
	if err != nil {
		panic(err)
	}
	return id
}

// DeleteRows removes the identified tuples from the table, in order,
// resolving the table once. An identity with no live tuple is an error,
// and the tuples before it stay deleted.
func (db *DB) DeleteRows(table string, ids []TupleID) error {
	t, err := db.table(table)
	if err != nil {
		return err
	}
	for _, id := range ids {
		i, ok := t.find(id)
		if !ok || t.slots[i].tu == nil {
			return fmt.Errorf("storage: table %s has no tuple %d", t.def.Name, id)
		}
		db.deleteRow(t, i)
	}
	return nil
}

// deleteRow removes the live tuple of t's slot i, records and reports it.
func (db *DB) deleteRow(t *Table, i int) {
	tu := t.slots[i].tu
	t.removeAt(i)
	if db.spDepth > 0 {
		db.record(Change{Kind: ChangeDelete, Table: t, ID: tu.ID, Row: tu})
	} else {
		t.compact() // a bare delete is its own one-mutation transaction
	}
	if db.obs != nil {
		db.obs.ObserveDelete(t.def.Name, tu.ID)
	}
}

// UpdateRows sets the named columns of each identified tuple, in order:
// tuple k's column cols[i] to vals[k*len(cols)+i], coerced to the column
// type, one column at a time. The table and its columns are resolved
// once, before any change; an identity with no live tuple or a value of
// the wrong type is an error, and the changes before it stay applied.
func (db *DB) UpdateRows(table string, cols []string, ids []TupleID, vals []Value) error {
	t, err := db.table(table)
	if err != nil {
		return err
	}
	var at [8]int
	cis := at[:0]
	for _, col := range cols {
		ci, err := t.column(col)
		if err != nil {
			return err
		}
		cis = append(cis, ci)
	}
	for k, id := range ids {
		tu, err := t.live(id)
		if err != nil {
			return err
		}
		for i, ci := range cis {
			if err := db.updateCol(t, tu, ci, vals[k*len(cis)+i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// column returns the index of t's column col.
func (t *Table) column(col string) (int, error) {
	ci := t.def.ColumnIndex(col)
	if ci < 0 {
		return 0, fmt.Errorf("storage: table %s has no column %q", t.def.Name, col)
	}
	return ci, nil
}

// live returns t's live tuple id.
func (t *Table) live(id TupleID) (*Tuple, error) {
	tu := t.Get(id)
	if tu == nil {
		return nil, fmt.Errorf("storage: table %s has no tuple %d", t.def.Name, id)
	}
	return tu, nil
}

// updateCol sets column ci of t's live tuple tu to v, coerced to the
// column type, and records and reports the change.
func (db *DB) updateCol(t *Table, tu *Tuple, ci int, v Value) error {
	c := &t.def.Columns[ci]
	cv, err := v.Coerce(c.Type)
	if err != nil {
		return fmt.Errorf("storage: update %s.%s: %v", t.def.Name, c.Name, err)
	}
	old := tu.Vals[ci]
	t.touch()
	t.setVal(tu, ci, cv)
	if db.spDepth > 0 {
		db.record(Change{Kind: ChangeUpdate, Table: t, ID: tu.ID, Col: ci, Old: old})
	}
	if db.obs != nil {
		db.obs.ObserveUpdate(t.def.Name, tu.ID, c.Name, cv)
	}
	return nil
}

// Clone returns a deep copy of the database sharing no mutable state with
// the original. Tuple identities are preserved. Savepoint bookkeeping —
// the history, and the tables' positions in it — and any attached
// Observer are not carried over: the clone captures the current contents
// with no savepoints active, and mutations of the clone are nobody's
// business but the clone's (the execution-graph explorer forks thousands
// of speculative copies).
func (db *DB) Clone() *DB {
	nd := &DB{sch: db.sch, tables: make(map[string]*Table, len(db.tables)), names: db.names,
		order: make([]*Table, len(db.order)), nextID: db.nextID}
	for i, t := range db.order {
		nd.order[i] = t.clone()
		nd.tables[db.names[i]] = nd.order[i]
	}
	return nd
}

// Fork is Clone for a copy that must still be able to roll back (the
// engine forks a live transaction): it also carries the active
// savepoints, so a Savepoint taken on the original is valid against the
// fork, and RollbackTo lands either on it without touching the other.
// The fork's history is the original's, position for position and at the
// same generation, over the fork's own tables and deleted-tuple objects.
func (db *DB) Fork() *DB {
	nd := db.Clone()
	nd.spDepth, nd.gen, nd.undo = db.spDepth, db.gen, make([]Change, 0, len(db.undo))
	for _, u := range db.undo {
		u.Table = nd.tables[u.Table.def.Name]
		if u.Kind == ChangeDelete {
			u.Row = u.Row.clone()
		}
		nd.record(u)
	}
	return nd
}

// Fingerprint returns a canonical digest of the database contents. Two
// databases have equal fingerprints iff every table holds the same
// multiset of rows (tuple identities and insertion order are ignored, as
// final states in the paper are compared by content).
//
// The digest has two levels: SHA-256 over `name ( tableDigest )` in
// sorted name order, where a table's digest is memoized in the table
// until its next mutation, so a call costs the rows of the tables
// changed since the last one (only the rows inserted and deleted since,
// if those were all its changes, plus hashing its kept encodings) and
// 32 bytes per clean table.
// Fingerprint therefore WRITES: the memo and kept encodings of every
// table it had to re-read and the DB's scratch buffer. It follows the
// same one-goroutine rule as mutation. Clone and Fork carry the digests,
// never the kept encodings, the scratch or the observer.
func (db *DB) Fingerprint() [32]byte { return db.fingerprintOf(db.names, db.order) }

// TableFingerprint is Fingerprint over the named tables only, used for
// partial-confluence checks (identical T' contents, Section 7).
func (db *DB) TableFingerprint(tables []string) [32]byte {
	names := make([]string, len(tables))
	for i, n := range tables {
		names[i] = strings.ToLower(n)
	}
	sort.Strings(names)
	tabs := make([]*Table, len(names))
	for i, name := range names {
		tabs[i] = db.tables[name]
	}
	return db.fingerprintOf(names, tabs)
}

// fingerprintOf digests the tables tabs, each under the name at its
// index in names, which are lower-case and sorted; a nil table, one the
// schema lacks, reads as an empty one.
func (db *DB) fingerprintOf(names []string, tabs []*Table) [32]byte {
	top := db.fp.top[:0]
	for i, name := range names {
		d := emptyDigest
		if t := tabs[i]; t != nil {
			d = db.tableDigest(t)
		}
		top = append(top, name...)
		top = append(top, '(')
		top = append(top, d[:]...)
		top = append(top, ')')
	}
	db.fp.top = top
	return sha256.Sum256(top)
}

var emptyDigest = sha256.Sum256(nil)

// fpScratch is what a DB keeps between fingerprints so the pass over a
// dirty table allocates nothing once the buffers have grown to the
// largest table digested.
type fpScratch struct {
	buf   []byte    // encodings of the rows being digested, each followed by ';'
	spans []rowSpan // one per row, sorted by encoding (by key, then bytes)
	top   []byte    // the `name ( tableDigest )` stream
	at    []int     // the kept rows a take-out removes, ascending (Table.drop)
	rows  int       // rows encoded so far (what tests count)
}

// rowSpan locates one row's encoding, buf[lo:hi]; buf[hi] is its ';'.
// key is the encoding's first 8 bytes, zero-padded, read big-endian
// (prefixKey): where two rows' keys differ they order as their
// encodings do, so only rows with equal keys compare bytes.
type rowSpan struct {
	lo, hi int
	key    uint64
}

// prefixKey returns enc's sort key: its first 8 bytes, zero-padded,
// read big-endian. Keys that differ first differ at some byte i < 8.
// Where both encodings reach byte i, it is their first differing byte,
// which bytes.Compare also decides on; where one ends before i, its pad
// byte 0 is below the other's byte there (else the keys would agree at
// i), and bytes.Compare puts the shorter encoding, a proper prefix of
// the other, first as well.
func prefixKey(enc []byte) uint64 {
	if len(enc) >= 8 {
		return binary.BigEndian.Uint64(enc)
	}
	var k [8]byte
	copy(k[:], enc)
	return binary.BigEndian.Uint64(k[:])
}

// tableDigest returns the table's content digest: the SHA-256 of its
// sorted row encodings, each followed by ';' — the bytes
// CanonicalFingerprint streams between the table's parentheses, in the
// same order. A clean table answers from its memo. A dirty one whose
// changes since its last digest were all inserts and deletes takes the
// gone rows' encodings out of the ones it kept, if fewer rows are gone
// than live, and merges the appended live rows in; any other change, as
// many gone rows as live ones, or a gone row the kept encodings lack,
// rebuilds them from every row.
func (db *DB) tableDigest(t *Table) [32]byte {
	if t.clean {
		return t.digest
	}
	s := &db.fp
	if t.run && len(t.gone) > 0 {
		// Taking the gone rows out costs encoding and sorting them; a
		// rebuild, the live ones. A sweep that empties most of a table
		// gets the rebuild.
		t.run = len(t.gone) < t.nlive && t.drop(s)
	}
	buf, spans := s.sorted(t, false)
	if !t.run { // a rebuild: every row is new
		t.enc, t.ends = t.enc[:0], t.ends[:0]
	}
	t.merge(buf, spans)
	t.digest = sha256.Sum256(t.enc)
	t.clean, t.run, t.newFrom = true, true, db.nextID
	t.forgetGone()
	return t.digest
}

// sorted encodes the rows t.pending(gone, …) visits into the scratch,
// each followed by ';', and returns them with their spans sorted by
// encoding: by key, and by bytes.Compare only where two keys are equal,
// which is the order bytes.Compare alone gives (prefixKey).
func (s *fpScratch) sorted(t *Table, gone bool) ([]byte, []rowSpan) {
	n := t.nlive
	switch {
	case gone:
		n = len(t.gone)
	case t.run:
		n = len(t.slots) - t.seen()
	}
	buf, spans := s.buf[:0], s.spans[:0]
	if n > 2*cap(spans) {
		// The rows are over twice what the scratch has held (a decoded
		// snapshot's first digest, a bulk load): size it in one step, by
		// a pass that only measures, with a quarter of headroom. Growing
		// it that far by append leaves several times the table's
		// encoding as garbage.
		spans = make([]rowSpan, 0, n+n/4)
		size := 0
		t.pending(gone, func(tu *Tuple) {
			buf = tu.encode(buf[:0])
			size += len(buf) + 1
		})
		if buf = buf[:0]; cap(buf) < size {
			buf = make([]byte, 0, size+size/4)
		}
	}
	t.pending(gone, func(tu *Tuple) {
		lo := len(buf)
		buf = tu.encode(buf)
		spans = append(spans, rowSpan{lo, len(buf), prefixKey(buf[lo:])})
		buf = append(buf, ';')
	})
	slices.SortFunc(spans, func(a, b rowSpan) int {
		if a.key != b.key {
			return cmp.Compare(a.key, b.key)
		}
		return bytes.Compare(buf[a.lo:a.hi], buf[b.lo:b.hi])
	})
	s.buf, s.spans, s.rows = buf, spans, s.rows+len(spans)
	return buf, spans
}

// CanonicalFingerprint is the one-level digest Fingerprint was before
// tables memoized theirs: one SHA-256 stream over every table's sorted
// rows, computed from scratch on every call. It is what the WAL snapshot
// markers written before checkpoints read the memoized digests store,
// so internal/wal's reader still accepts it where Fingerprint does not
// match, and it is the memo-free oracle Fingerprint is tested against:
// two databases agree on one exactly when they agree on the other.
func (db *DB) CanonicalFingerprint() [32]byte {
	h := sha256.New()
	for i, name := range db.names {
		h.Write([]byte(name))
		h.Write([]byte{'('})
		db.order[i].writeSorted(h)
		h.Write([]byte{')'})
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// Equal reports whether the two databases hold the same contents.
func (db *DB) Equal(other *DB) bool { return db.Fingerprint() == other.Fingerprint() }

// TotalRows returns the number of live tuples across all tables.
func (db *DB) TotalRows() int {
	n := 0
	for _, t := range db.order {
		n += t.Len()
	}
	return n
}

// String renders all tables in name order, for debugging and reports.
func (db *DB) String() string {
	var sb strings.Builder
	for _, t := range db.order {
		sb.WriteString(t.String())
	}
	return sb.String()
}
