// Package transition implements the net-effect transition theory of
// Widom & Finkelstein (SIGMOD 1990) that Starburst rule semantics are
// built on (Section 2 of the paper):
//
//  1. if a tuple is updated several times, only the composite update is
//     considered;
//  2. if a tuple is updated then deleted, only the deletion (of the
//     original tuple) is considered;
//  3. if a tuple is inserted then updated, this is considered as
//     inserting the updated tuple;
//  4. if a tuple is inserted then deleted, it is not considered at all.
//
// A Log records primitive operations as they execute; ComputeTable
// derives the net effect on one table of any suffix of the log against
// the current database state. The net effect yields both the triggering
// operations (for deciding which rules are triggered) and the
// materialized transition tables (inserted, deleted, new-updated,
// old-updated) a considered rule sees.
package transition

import (
	"crypto/sha256"
	"maps"
	"sort"
	"sync/atomic"

	"activerules/internal/schema"
	"activerules/internal/storage"
)

// entryKind is the primitive operation kind recorded in the log.
type entryKind int

const (
	entryInsert entryKind = iota
	entryDelete
	entryUpdate
)

// Kind classifies a primitive log entry for delta-driven triggering:
// the compiled engine tracks the last log position per (table, kind) so
// a rule's candidate bit can be cleared exactly when no unconsumed
// entry of a kind it watches remains on its table.
type Kind int

// Entry kind classes, aligned with the internal entry kinds.
const (
	KindInsert Kind = Kind(entryInsert)
	KindDelete Kind = Kind(entryDelete)
	KindUpdate Kind = Kind(entryUpdate)
)

// Entry is one primitive data modification. For deletes and updates,
// OldRow captures the full tuple value immediately before the operation,
// which is what net-effect computation needs to reconstruct the state at
// the start of any log suffix.
type Entry struct {
	kind   entryKind
	table  string
	id     storage.TupleID
	oldRow []storage.Value // delete/update only
}

// Log is an append-only record of primitive operations since the current
// rule assertion point. Positions in the log ("marks") identify the
// transition each rule has yet to see (Section 2: a rule is triggered iff
// its transition predicate holds for the composite transition since it
// was last considered).
//
// Table names are the schema's canonical (lower-case) names throughout
// this package — what statement resolution and rule compilation produce —
// and no method folds case again.
type Log struct {
	entries []Entry
	// touched[t] locates the most recent entries on table t. It is
	// emptied, not dropped, at a truncation, so a long-lived log stops
	// allocating once it has seen its tables.
	touched map[string]touchIdx
	// gen counts the truncations that removed entries. Appends never
	// change it, so a reader that remembers (gen, Mark) can tell "only
	// appended to since" from "positions below my mark were reused".
	gen uint64
	// scratch is ComputeTable's working set. No Net points into it and
	// Clone does not copy it.
	scratch netScratch
}

// touchIdx is one table's most recent log positions: last over all
// entries, letting the engine skip net-effect computation for rules
// whose table has not changed since their mark, and kind[k] over the
// entries of kind k, or -1. A net-effect op of kind k can only arise
// from a raw entry of kind k (see ComputeTable), so kind bounds
// triggering per kind.
type touchIdx struct {
	last int
	kind [3]int
}

// Gen returns the log's truncation generation: it changes exactly when
// Truncate or TruncateTo removes entries, and is carried over by Clone.
func (l *Log) Gen() uint64 { return l.gen }

// LastTouch returns the index of the most recent entry on the table, or
// -1 if the table is untouched.
func (l *Log) LastTouch(table string) int {
	if ti, ok := l.touched[table]; ok {
		return ti.last
	}
	return -1
}

// LastTouchKind returns the index of the most recent entry of the given
// kind on the table, or -1 if no such entry exists.
func (l *Log) LastTouchKind(table string, k Kind) int {
	if ti, ok := l.touched[table]; ok {
		return ti.kind[k]
	}
	return -1
}

// record appends e and indexes it.
func (l *Log) record(e Entry) {
	if l.touched == nil {
		l.touched = make(map[string]touchIdx)
	}
	l.index(len(l.entries), e.table, e.kind)
	l.entries = append(l.entries, e)
}

func (l *Log) index(pos int, table string, kind entryKind) {
	ti, ok := l.touched[table]
	if !ok {
		ti.kind = [3]int{-1, -1, -1}
	}
	ti.last = pos
	ti.kind[kind] = pos
	l.touched[table] = ti
}

// Mark returns the current log position.
func (l *Log) Mark() int { return len(l.entries) }

// RecordInsert records insertion of the identified tuple.
func (l *Log) RecordInsert(table string, id storage.TupleID) {
	l.record(Entry{kind: entryInsert, table: table, id: id})
}

// RecordDelete records deletion; old is the tuple's value at deletion.
// The log keeps old: the caller hands over a copy it will not modify.
func (l *Log) RecordDelete(table string, id storage.TupleID, old []storage.Value) {
	l.record(Entry{kind: entryDelete, table: table, id: id, oldRow: old})
}

// RecordUpdate records an update; old is the full tuple value immediately
// before the update, handed over like RecordDelete's.
func (l *Log) RecordUpdate(table string, id storage.TupleID, old []storage.Value) {
	l.record(Entry{kind: entryUpdate, table: table, id: id, oldRow: old})
}

// Truncate discards all entries (used at assertion-point boundaries).
func (l *Log) Truncate() {
	if len(l.entries) > 0 {
		l.gen++
	}
	l.entries = l.entries[:0]
	clear(l.touched)
}

// TruncateTo discards every entry at or after mark, returning the log to
// the state it had when Mark reported mark. The engine uses it to erase
// the recording of a failed rule action after the database savepoint has
// been rolled back.
func (l *Log) TruncateTo(mark int) {
	if mark >= len(l.entries) {
		return
	}
	if mark <= 0 {
		l.Truncate()
		return
	}
	l.gen++
	l.entries = l.entries[:mark]
	clear(l.touched)
	for i := range l.entries {
		l.index(i, l.entries[i].table, l.entries[i].kind)
	}
}

// Clone returns an independent copy of the log. Entries are immutable
// once recorded, so a shallow copy of the slice suffices.
func (l *Log) Clone() *Log {
	nl := &Log{entries: make([]Entry, len(l.entries)), gen: l.gen}
	copy(nl.entries, l.entries)
	nl.touched = maps.Clone(l.touched)
	return nl
}

// UpdatedPair is the old and new value of one net-updated tuple.
type UpdatedPair struct {
	Old, New []storage.Value
}

// TableNet is the net effect restricted to one table.
type TableNet struct {
	Table    string
	Inserted [][]storage.Value // final values of net-inserted tuples
	Deleted  [][]storage.Value // original values of net-deleted tuples
	Updated  []UpdatedPair     // original and final values of net-updated tuples

	// UpdatedColumns are the columns with at least one net change.
	UpdatedColumns []string
}

// Net is the net effect of a log suffix on one table: its inserted,
// deleted and updated tuples. A rule's transition predicate and
// transition tables concern its own table alone, so this is all the
// engine ever computes. A Net is immutable once computed and may be
// shared between engines and goroutines.
type Net struct {
	tn TableNet
	// fp memoizes TableFingerprint(tn.Table). Racing callers publish
	// identical digests, so a plain atomic store suffices.
	fp atomic.Pointer[[32]byte]
}

var emptyNet = new(Net)

// EmptyNet returns the net effect with no changes, shared because Net is
// immutable after computation.
func EmptyNet() *Net { return emptyNet }

// tupState is what the log suffix did to one tuple: the kind of its
// first entry, its value at the suffix start (delete/update first
// entries) and whether a delete followed. Later updates need no
// bookkeeping: final values come from the database.
type tupState struct {
	id       storage.TupleID
	first    entryKind
	deleted  bool
	baseline []storage.Value
}

// netScratch holds the tuple states of one ComputeTable call, by value
// and in first-touch order. A state is found by scanning while there are
// at most linearProbe of them — a rule action's transition is usually a
// handful of tuples — and through index beyond.
type netScratch struct {
	states []tupState
	index  map[storage.TupleID]int
}

const linearProbe = 8

func (sc *netScratch) find(id storage.TupleID) *tupState {
	if len(sc.states) > linearProbe {
		if i, ok := sc.index[id]; ok {
			return &sc.states[i]
		}
		return nil
	}
	for i := range sc.states {
		if sc.states[i].id == id {
			return &sc.states[i]
		}
	}
	return nil
}

func (sc *netScratch) add(st tupState) {
	sc.states = append(sc.states, st)
	if len(sc.states) <= linearProbe {
		return
	}
	if sc.index == nil {
		sc.index = make(map[storage.TupleID]int)
	}
	for i := len(sc.index); i < len(sc.states); i++ { // all of them, the first time
		sc.index[sc.states[i].id] = i
	}
}

// reset empties the scratch, dropping its references into the log.
func (sc *netScratch) reset() {
	clear(sc.states)
	sc.states = sc.states[:0]
	clear(sc.index)
}

// ComputeTable derives the net effect on one table of the log suffix
// starting at mark, reading final tuple values from db (the current
// state). Tuples whose composite update is the identity are dropped
// entirely (no net effect). It uses the log's scratch, so like every
// other method of a Log it is for the log's one goroutine.
func ComputeTable(l *Log, mark int, db *storage.DB, table string) *Net {
	sc := &l.scratch
	defer sc.reset()
	for i := mark; i < len(l.entries); i++ {
		e := &l.entries[i]
		if e.table != table {
			continue
		}
		if st := sc.find(e.id); st != nil {
			st.deleted = st.deleted || e.kind == entryDelete
			continue
		}
		// oldRow is nil for an insert: no baseline.
		sc.add(tupState{id: e.id, first: e.kind, deleted: e.kind == entryDelete, baseline: e.oldRow})
	}

	// Size the lists, and one backing array for the final values.
	var nIns, nDel, nUpd int
	for i := range sc.states {
		switch st := &sc.states[i]; {
		case st.first == entryInsert:
			if !st.deleted { // rule 4: insert then delete is nothing
				nIns++
			}
		case st.deleted:
			nDel++
		default:
			nUpd++
		}
	}
	if nIns+nDel+nUpd == 0 {
		return emptyNet
	}
	t := db.Table(table)
	n := &Net{tn: TableNet{Table: table}}
	tn := &n.tn
	vals := make([]storage.Value, 0, (nIns+nUpd)*len(t.Def().Columns))
	final := func(tu *storage.Tuple) []storage.Value {
		vals = append(vals, tu.Vals...)
		return vals[len(vals)-len(tu.Vals) : len(vals) : len(vals)]
	}
	tn.Inserted = make([][]storage.Value, 0, nIns)
	tn.Deleted = make([][]storage.Value, 0, nDel)
	tn.Updated = make([]UpdatedPair, 0, nUpd)
	for i := range sc.states {
		st := &sc.states[i]
		switch {
		case st.first == entryInsert:
			if st.deleted {
				continue
			}
			// Defensive: a tuple may have vanished without a logged delete.
			if tu := t.Get(st.id); tu != nil {
				tn.Inserted = append(tn.Inserted, final(tu)) // rule 3: final values
			}
		case st.deleted: // rule 2 or a plain delete: the original tuple
			tn.Deleted = append(tn.Deleted, st.baseline)
		default:
			tu := t.Get(st.id)
			if tu == nil || rowsIdentical(st.baseline, tu.Vals) {
				continue // composite update is the identity: no net effect
			}
			tn.Updated = append(tn.Updated, UpdatedPair{Old: st.baseline, New: final(tu)})
		}
	}
	if len(tn.Updated) > 0 {
		def := db.Schema().Table(table)
		for c := range tn.Updated[0].Old {
			for _, up := range tn.Updated {
				if !valuesIdentical(up.Old[c], up.New[c]) {
					tn.UpdatedColumns = append(tn.UpdatedColumns, def.Column(c).Name)
					break
				}
			}
		}
	}
	return n
}

// Table returns the net effect for one table, or nil if the table is
// untouched.
func (n *Net) Table(table string) *TableNet {
	if n.tn.Table != table || n.IsEmpty() {
		return nil
	}
	return &n.tn
}

// IsEmpty reports whether the net effect contains no changes at all.
func (n *Net) IsEmpty() bool {
	return len(n.tn.Inserted) == 0 && len(n.tn.Deleted) == 0 && len(n.tn.Updated) == 0
}

// Triggers is the transition predicate of Section 2: whether the
// operation set the net effect induces — (I,t) if any tuple was
// net-inserted into t, (D,t) if any was net-deleted, and (U,t.c) for
// every column c with a net change — meets a rule's Triggered-By set.
func (n *Net) Triggers(by schema.OpSet) bool {
	tn := &n.tn
	if len(tn.Inserted) > 0 && by.Contains(schema.Op{Kind: schema.OpInsert, Table: tn.Table}) {
		return true
	}
	if len(tn.Deleted) > 0 && by.Contains(schema.Op{Kind: schema.OpDelete, Table: tn.Table}) {
		return true
	}
	for _, c := range tn.UpdatedColumns {
		if by.Contains(schema.Op{Kind: schema.OpUpdate, Table: tn.Table, Column: c}) {
			return true
		}
	}
	return false
}

// TableFingerprint digests the net effect restricted to one table. A
// rule's future behaviour depends only on its pending transition
// restricted to its own table (its transition predicate and transition
// tables both concern that table alone), so the model checker uses this
// restricted digest for per-rule state identity — matching the paper's
// (D, TR) abstraction.
//
// The digest is memoized on the net: the explorer hashes every rule's
// pending net at every state, and most of those nets are unchanged from
// the parent state.
func (n *Net) TableFingerprint(table string) [32]byte {
	tn := n.Table(table)
	if tn == nil {
		return untouchedFP
	}
	if fp := n.fp.Load(); fp != nil {
		return *fp
	}
	h := sha256.New()
	h.Write([]byte(table))
	h.Write([]byte{'{'})
	writeSortedRows(h, "I", tn.Inserted)
	writeSortedRows(h, "D", tn.Deleted)
	pairs := make([][]byte, len(tn.Updated))
	for i, up := range tn.Updated {
		b := encodeRow(nil, up.Old)
		b = append(b, '>')
		pairs[i] = encodeRow(b, up.New)
	}
	sort.Slice(pairs, func(i, j int) bool { return string(pairs[i]) < string(pairs[j]) })
	h.Write([]byte("U"))
	for _, p := range pairs {
		h.Write(p)
		h.Write([]byte{';'})
	}
	h.Write([]byte{'}'})
	var fp [32]byte
	h.Sum(fp[:0])
	n.fp.Store(&fp)
	return fp
}

// untouchedFP is the digest of a net restricted to a table it does not
// touch: that of the empty stream.
var untouchedFP = sha256.Sum256(nil)

func writeSortedRows(h interface{ Write([]byte) (int, error) }, tag string, rows [][]storage.Value) {
	encs := make([][]byte, len(rows))
	for i, r := range rows {
		encs[i] = encodeRow(nil, r)
	}
	sort.Slice(encs, func(i, j int) bool { return string(encs[i]) < string(encs[j]) })
	h.Write([]byte(tag))
	for _, e := range encs {
		h.Write(e)
		h.Write([]byte{';'})
	}
}

// encodeRow appends the canonical (injective) encoding of a row.
func encodeRow(b []byte, row []storage.Value) []byte {
	for _, v := range row {
		b = v.AppendCanonical(b)
		b = append(b, ',')
	}
	return b
}

// rowsIdentical compares rows by exact representation (null equals null
// here: identity, not SQL equality, is what "no net change" means).
func rowsIdentical(a, b []storage.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !valuesIdentical(a[i], b[i]) {
			return false
		}
	}
	return true
}

func valuesIdentical(a, b storage.Value) bool { return a == b }
