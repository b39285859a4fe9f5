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
// A Log records primitive operations as they execute; Compute derives the
// net effect of any suffix of the log against the current database state.
// The net effect yields both the triggering operation set (for deciding
// which rules are triggered) and the materialized transition tables
// (inserted, deleted, new-updated, old-updated) a considered rule sees.
package transition

import (
	"crypto/sha256"
	"sort"
	"strings"
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
type Log struct {
	entries []Entry
	// lastTouch[t] is the index of the most recent entry on table t,
	// letting the engine skip net-effect computation for rules whose
	// table has not changed since their mark.
	lastTouch map[string]int
	// lastKind[t][k] is the index of the most recent entry of kind k on
	// table t, or -1. A net-effect op of kind k on t can only arise from
	// a raw entry of kind k on t (see compute: net inserts need an
	// insert entry, net deletes a delete entry, net updates an update
	// entry), so LastTouchKind bounds triggering per kind.
	lastKind map[string][3]int
	// gen counts the truncations that removed entries. Appends never
	// change it, so a reader that remembers (gen, Mark) can tell "only
	// appended to since" from "positions below my mark were reused".
	gen uint64
}

// Gen returns the log's truncation generation: it changes exactly when
// Truncate or TruncateTo removes entries, and is carried over by Clone.
func (l *Log) Gen() uint64 { return l.gen }

// LastTouch returns the index of the most recent entry on the table, or
// -1 if the table is untouched.
func (l *Log) LastTouch(table string) int {
	if l.lastTouch == nil {
		return -1
	}
	if i, ok := l.lastTouch[strings.ToLower(table)]; ok {
		return i
	}
	return -1
}

// LastTouchKind returns the index of the most recent entry of the given
// kind on the table, or -1 if no such entry exists.
func (l *Log) LastTouchKind(table string, k Kind) int {
	if l.lastKind == nil {
		return -1
	}
	if ks, ok := l.lastKind[strings.ToLower(table)]; ok {
		return ks[k]
	}
	return -1
}

func (l *Log) touch(table string, kind entryKind) {
	if l.lastTouch == nil {
		l.lastTouch = make(map[string]int)
		l.lastKind = make(map[string][3]int)
	}
	pos := len(l.entries)
	l.lastTouch[table] = pos
	ks, ok := l.lastKind[table]
	if !ok {
		ks = [3]int{-1, -1, -1}
	}
	ks[kind] = pos
	l.lastKind[table] = ks
}

// Mark returns the current log position.
func (l *Log) Mark() int { return len(l.entries) }

// RecordInsert records insertion of the identified tuple.
func (l *Log) RecordInsert(table string, id storage.TupleID) {
	table = strings.ToLower(table)
	l.touch(table, entryInsert)
	l.entries = append(l.entries, Entry{kind: entryInsert, table: table, id: id})
}

// RecordDelete records deletion; old is the tuple's value at deletion and
// is copied.
func (l *Log) RecordDelete(table string, id storage.TupleID, old []storage.Value) {
	table = strings.ToLower(table)
	l.touch(table, entryDelete)
	l.entries = append(l.entries, Entry{
		kind: entryDelete, table: table, id: id, oldRow: cloneRow(old)})
}

// RecordUpdate records an update; old is the full tuple value immediately
// before the update and is copied.
func (l *Log) RecordUpdate(table string, id storage.TupleID, old []storage.Value) {
	table = strings.ToLower(table)
	l.touch(table, entryUpdate)
	l.entries = append(l.entries, Entry{
		kind: entryUpdate, table: table, id: id, oldRow: cloneRow(old)})
}

// Truncate discards all entries (used at assertion-point boundaries).
func (l *Log) Truncate() {
	if len(l.entries) > 0 {
		l.gen++
	}
	l.entries = l.entries[:0]
	l.lastTouch = nil
	l.lastKind = nil
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
	entries := l.entries[:mark]
	l.Truncate() // bumps gen: mark < len(entries)
	l.entries = entries
	for i, e := range l.entries {
		if l.lastTouch == nil {
			l.lastTouch = make(map[string]int)
			l.lastKind = make(map[string][3]int)
		}
		l.lastTouch[e.table] = i
		ks, ok := l.lastKind[e.table]
		if !ok {
			ks = [3]int{-1, -1, -1}
		}
		ks[e.kind] = i
		l.lastKind[e.table] = ks
	}
}

// Clone returns an independent copy of the log. Entries are immutable
// once recorded, so a shallow copy of the slice suffices.
func (l *Log) Clone() *Log {
	nl := &Log{entries: make([]Entry, len(l.entries)), gen: l.gen}
	copy(nl.entries, l.entries)
	if l.lastTouch != nil {
		nl.lastTouch = make(map[string]int, len(l.lastTouch))
		for t, i := range l.lastTouch {
			nl.lastTouch[t] = i
		}
	}
	if l.lastKind != nil {
		nl.lastKind = make(map[string][3]int, len(l.lastKind))
		for t, ks := range l.lastKind {
			nl.lastKind[t] = ks
		}
	}
	return nl
}

func cloneRow(row []storage.Value) []storage.Value {
	out := make([]storage.Value, len(row))
	copy(out, row)
	return out
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

// Net is the net effect of a log suffix: per-table inserted, deleted, and
// updated tuples plus the induced operation set. A Net is immutable once
// computed and may be shared between engines and goroutines.
type Net struct {
	tables map[string]*TableNet
	order  []string // deterministic table iteration order (first touch)
	ops    schema.OpSet
	// tableFP[i] memoizes TableFingerprint(order[i]). Racing callers
	// publish identical digests, so a plain atomic store suffices.
	tableFP []atomic.Pointer[[32]byte]
}

// EmptyNet returns a net effect with no changes, shareable because Net
// is immutable after computation.
func EmptyNet() *Net { return &Net{tables: map[string]*TableNet{}, ops: schema.NewOpSet()} }

// Compute derives the net effect of the log suffix starting at mark,
// reading final tuple values from db (the current state). Tuples whose
// composite update is the identity are dropped entirely (no net effect).
func Compute(l *Log, mark int, db *storage.DB) *Net {
	return compute(l, mark, db, "")
}

// ComputeTable is Compute restricted to entries on one table — all a
// rule's transition predicate and transition tables ever need, and much
// cheaper when the suffix is dominated by other tables.
func ComputeTable(l *Log, mark int, db *storage.DB, table string) *Net {
	return compute(l, mark, db, strings.ToLower(table))
}

// compute derives the net effect; a non-empty only restricts to entries
// of that table.
func compute(l *Log, mark int, db *storage.DB, only string) *Net {
	type tupState struct {
		table    string
		first    entryKind
		baseline []storage.Value // value at suffix start (delete/update first ops)
		deleted  bool
	}
	states := make(map[storage.TupleID]*tupState)
	var idOrder []storage.TupleID

	for _, e := range l.entries[mark:] {
		if only != "" && e.table != only {
			continue
		}
		st, ok := states[e.id]
		if !ok {
			st = &tupState{table: e.table, first: e.kind}
			if e.kind != entryInsert {
				st.baseline = e.oldRow
			}
			states[e.id] = st
			idOrder = append(idOrder, e.id)
			if e.kind == entryDelete {
				st.deleted = true
			}
			continue
		}
		if e.kind == entryDelete {
			st.deleted = true
		}
		// Later updates need no bookkeeping: the baseline is already
		// fixed and final values come from the database.
	}

	n := &Net{tables: make(map[string]*TableNet)}
	for _, id := range idOrder {
		st := states[id]
		tn := n.tableNet(st.table)
		switch st.first {
		case entryInsert:
			if st.deleted {
				continue // rule 4: insert then delete is nothing
			}
			tu := db.Table(st.table).Get(id)
			if tu == nil {
				continue // defensive: tuple vanished without a logged delete
			}
			tn.Inserted = append(tn.Inserted, cloneRow(tu.Vals)) // rules 3: final values
		case entryUpdate:
			if st.deleted {
				tn.Deleted = append(tn.Deleted, st.baseline) // rule 2: original tuple
				continue
			}
			tu := db.Table(st.table).Get(id)
			if tu == nil {
				continue
			}
			if rowsIdentical(st.baseline, tu.Vals) {
				continue // composite update is the identity: no net effect
			}
			tn.Updated = append(tn.Updated, UpdatedPair{Old: st.baseline, New: cloneRow(tu.Vals)})
		case entryDelete:
			tn.Deleted = append(tn.Deleted, st.baseline)
		}
	}
	n.finalize(db.Schema())
	return n
}

func (n *Net) tableNet(table string) *TableNet {
	tn, ok := n.tables[table]
	if !ok {
		tn = &TableNet{Table: table}
		n.tables[table] = tn
		n.order = append(n.order, table)
	}
	return tn
}

// finalize computes UpdatedColumns and the induced operation set, and
// drops empty per-table nets.
func (n *Net) finalize(sch *schema.Schema) {
	n.ops = schema.NewOpSet()
	var live []string
	for _, table := range n.order {
		tn := n.tables[table]
		if len(tn.Inserted) == 0 && len(tn.Deleted) == 0 && len(tn.Updated) == 0 {
			delete(n.tables, table)
			continue
		}
		def := sch.Table(table)
		changed := map[int]bool{}
		for _, up := range tn.Updated {
			for i := range up.Old {
				if !valuesIdentical(up.Old[i], up.New[i]) {
					changed[i] = true
				}
			}
		}
		cols := make([]int, 0, len(changed))
		for i := range changed {
			cols = append(cols, i)
		}
		sort.Ints(cols)
		for _, i := range cols {
			tn.UpdatedColumns = append(tn.UpdatedColumns, def.Column(i).Name)
		}
		if len(tn.Inserted) > 0 {
			n.ops.Add(schema.Insert(table))
		}
		if len(tn.Deleted) > 0 {
			n.ops.Add(schema.Delete(table))
		}
		for _, c := range tn.UpdatedColumns {
			n.ops.Add(schema.Update(table, c))
		}
		live = append(live, table)
	}
	n.order = live
	n.tableFP = make([]atomic.Pointer[[32]byte], len(live))
}

// Table returns the net effect for one table, or nil if the table is
// untouched.
func (n *Net) Table(table string) *TableNet { return n.tables[strings.ToLower(table)] }

// Tables returns the touched tables in first-touch order.
func (n *Net) Tables() []string {
	out := make([]string, len(n.order))
	copy(out, n.order)
	return out
}

// IsEmpty reports whether the net effect contains no changes at all.
func (n *Net) IsEmpty() bool { return len(n.tables) == 0 }

// Ops returns the operation set induced by the net effect: (I,t) if any
// tuple was net-inserted into t, (D,t) if any was net-deleted, and
// (U,t.c) for every column c with a net change. This is the set matched
// against Triggered-By to decide rule triggering. The set is computed
// once with the net and shared by every caller: treat it as read-only.
func (n *Net) Ops() schema.OpSet { return n.ops }

// Fingerprint returns a canonical digest of the net effect, used by the
// execution-graph model checker as part of state identity (a state is a
// database plus each rule's pending transition, Section 4).
func (n *Net) Fingerprint() [32]byte {
	tables := make([]string, len(n.order))
	copy(tables, n.order)
	sort.Strings(tables)
	return n.fingerprintTables(tables)
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
	table = strings.ToLower(table)
	for i, t := range n.order {
		if t != table {
			continue
		}
		if fp := n.tableFP[i].Load(); fp != nil {
			return *fp
		}
		fp := n.fingerprintTables(n.order[i : i+1])
		n.tableFP[i].Store(&fp)
		return fp
	}
	return untouchedFP
}

// untouchedFP is the digest of a net restricted to a table it does not
// touch.
var untouchedFP = new(Net).fingerprintTables(nil)

func (n *Net) fingerprintTables(tables []string) [32]byte {
	h := sha256.New()
	for _, table := range tables {
		tn := n.tables[table]
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
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

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
