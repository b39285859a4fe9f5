package storage

import (
	"bytes"
	"fmt"
	"hash"
	"slices"
	"sort"
	"strings"

	"activerules/internal/schema"
)

// TupleID is the stable identity of a tuple within a database. Identities
// are never reused; they let the transition machinery track the history of
// a single tuple across updates (Section 2's net effects are per-tuple).
type TupleID int64

// Tuple is a row: a stable identity plus one value per column.
type Tuple struct {
	ID   TupleID
	Vals []Value
}

// clone returns a deep copy of the tuple.
func (t *Tuple) clone() *Tuple {
	vals := make([]Value, len(t.Vals))
	copy(vals, t.Vals)
	return &Tuple{ID: t.ID, Vals: vals}
}

// encode appends a canonical encoding of the tuple's values (identity is
// deliberately excluded: database states are compared by content).
func (t *Tuple) encode(b []byte) []byte {
	for _, v := range t.Vals {
		b = v.encode(b)
		b = append(b, ',')
	}
	return b
}

// Table holds the tuples of one relation. Iteration order is insertion
// order, which keeps execution deterministic for a fixed choice strategy.
type Table struct {
	def   *schema.Table
	rows  map[TupleID]*Tuple
	order []TupleID // insertion order; may contain IDs deleted from rows

	// digest memoizes the table's content digest (DB.tableDigest) while
	// clean is set. The digest is a function of the row multiset alone,
	// so the one rule is: whatever changes which rows are live, or a live
	// row's values, calls touch (Table.insert and remove do touch's work
	// themselves).
	digest [32]byte
	clean  bool
	probed uint32 // the columns probed for an equality index (see index)

	// enc is the digest's exact input as of the last digest: the live
	// rows' encodings in sorted order, each followed by ';', row i ending
	// (after its ';') at ends[i]. While run is set every change since has
	// been an append or a delete, so enc holds the encodings of the live
	// rows of order[:sortedN] and of the gone rows, the rows the last
	// digest saw that were deleted since; the next digest takes the gone
	// rows out and merges order[sortedN:]'s live rows in. The last digest
	// saw exactly the live rows whose identities are below newFrom, the
	// DB's NextID at that digest: an append of a lower identity, which a
	// rollback or a replay can hand out, ends the run, so a delete tells
	// the two kinds of row apart by identity alone. touch ends the run,
	// and the next digest rebuilds enc. clone leaves enc behind, since a
	// digest rewrites it in place.
	enc     []byte
	ends    []int
	sortedN int
	run     bool
	gone    []*Tuple
	newFrom TupleID

	// ver counts touches, appends and deletes, which see more than the
	// digest can tell: a delete and an equal insert keep the multiset and
	// change an identity.
	ver uint64

	// last and lastOf[k] locate the table's most recent Change in the DB's
	// history, over all kinds and of kind k, as position+1: zero, which is
	// what clone leaves, means the history holds none. They are written
	// where the history is (DB.record, RollbackTo, Release, Fork).
	last   int
	lastOf [3]int

	// idx lists the column equality indexes built so far (see index).
	idx *index
}

// LastChange returns the history position of the most recent change to
// the table, or -1 if the history holds none: a reader whose mark is past
// it has nothing new to see on this table.
func (t *Table) LastChange() int { return t.last - 1 }

// LastChangeOf is LastChange over the changes of kind k. A net-effect
// operation of kind k can only arise from a change of kind k, so it
// bounds triggering per kind.
func (t *Table) LastChangeOf(k ChangeKind) int { return t.lastOf[k] - 1 }

// noteChange indexes a change of kind k recorded at history position end-1.
func (t *Table) noteChange(end int, k ChangeKind) { t.last, t.lastOf[k] = end, end }

// forgetChanges empties the table's history index.
func (t *Table) forgetChanges() { t.last, t.lastOf = 0, [3]int{} }

// touch marks the memoized content digest stale, advances Version and
// ends the append run, dropping its gone rows: every change but
// Table.insert's append and remove's delete.
func (t *Table) touch() {
	t.clean, t.ver, t.run = false, t.ver+1, false
	t.forgetGone()
}

// forgetGone empties gone, zeroing it so the deleted tuples can be freed.
func (t *Table) forgetGone() {
	clear(t.gone)
	t.gone = t.gone[:0]
}

// Version is a counter that has moved whenever the table's live rows —
// their identities, values or iteration order — may have changed, and
// not when tombstones are dropped, by Fingerprint or by savepoint
// bookkeeping: with the table pointer (a clone starts at its original's
// value) it keys internal/wal's memoized snapshot sections.
func (t *Table) Version() uint64 { return t.ver }

func newTable(def *schema.Table) *Table {
	return &Table{def: def, rows: make(map[TupleID]*Tuple)}
}

// Def returns the schema definition of the table.
func (t *Table) Def() *schema.Table { return t.def }

// Len returns the number of live tuples.
func (t *Table) Len() int { return len(t.rows) }

// Get returns the tuple with the given identity, or nil.
func (t *Table) Get(id TupleID) *Tuple { return t.rows[id] }

// Scan calls fn for each live tuple in insertion order. fn must not
// insert or delete tuples; it may read freely. It may update values via
// the enclosing DB only if it returns immediately afterwards.
func (t *Table) Scan(fn func(*Tuple) bool) {
	for _, id := range t.order {
		if tu, ok := t.rows[id]; ok {
			if !fn(tu) {
				return
			}
		}
	}
}

// IDs returns the identities of all live tuples in insertion order.
func (t *Table) IDs() []TupleID {
	out := make([]TupleID, 0, len(t.rows))
	for _, id := range t.order {
		if _, ok := t.rows[id]; ok {
			out = append(out, id)
		}
	}
	return out
}

func (t *Table) insert(tu *Tuple) {
	if tu.ID < t.newFrom {
		t.touch() // a later delete could not tell this row from one the last digest saw
	} else {
		t.clean, t.ver = false, t.ver+1 // touch, but an open append run goes on
	}
	t.rows[tu.ID] = tu
	t.order = append(t.order, tu.ID)
	t.held(tu, true)
}

// insertPreservingOrder is insert for redo-log replay: if the identity
// still has a tombstoned slot in the order slice (it was deleted earlier
// in the replay and is now being re-inserted by a savepoint-rollback
// compensation record), it is revived in place, matching what unDelete
// did in the original run. The tombstone scan only runs when tombstones
// exist at all. It reports whether it appended a slot.
func (t *Table) insertPreservingOrder(tu *Tuple) (appended bool) {
	if len(t.order) > len(t.rows) {
		for _, id := range t.order {
			if id == tu.ID {
				t.touch()
				t.rows[tu.ID] = tu
				t.held(tu, true)
				return false
			}
		}
	}
	t.insert(tu)
	return true
}

// remove deletes tu's row, marking the memoized digest stale and
// advancing Version, and keeps an open append run: a row the last
// digest saw joins gone, for the next digest to take its encoding out of
// the kept ones, and a row appended since leaves no trace there.
func (t *Table) remove(tu *Tuple) {
	t.clean, t.ver = false, t.ver+1
	if t.run && tu.ID < t.newFrom {
		t.gone = append(t.gone, tu)
	}
	delete(t.rows, tu.ID) // the order slot stays, as a tombstone, until compact
	t.held(tu, false)
}

// compact drops the order slice's tombstones once they outnumber live
// rows three to one. The DB calls it only with no savepoint active:
// until then unDelete relies on a deleted identity keeping its slot.
// An open append run goes on, with sortedN recounted over the slots
// that survive, since the rows the last digest saw keep theirs in front.
func (t *Table) compact() {
	if len(t.order) <= 16 || len(t.rows)*4 >= len(t.order) {
		return
	}
	live, sorted := t.order[:0], 0
	for i, oid := range t.order {
		if _, ok := t.rows[oid]; ok {
			live = append(live, oid)
			if i < t.sortedN {
				sorted++
			}
		}
	}
	t.order, t.sortedN = live, sorted
}

// unInsert reverses an insert made under a savepoint. Undo records are
// applied most recent first, so an identity that appended its slot still
// holds the last element of the order slice (later inserts have already
// been undone and deletes never append). A revived identity keeps its
// slot, last or not: the unDelete that follows will fill it again.
func (t *Table) unInsert(id TupleID, appended bool) {
	t.touch()
	t.held(t.rows[id], false)
	delete(t.rows, id)
	if n := len(t.order); appended && n > 0 && t.order[n-1] == id {
		t.order = t.order[:n-1]
	}
}

// unDelete reverses a delete made under a savepoint. The identity kept
// its slot in the order slice (compaction waits for the last savepoint
// to end), so restoring the rows entry restores iteration order too.
func (t *Table) unDelete(tu *Tuple) {
	t.touch()
	t.rows[tu.ID] = tu
	t.held(tu, true)
}

func (t *Table) clone() *Table {
	nt := &Table{
		def:   t.def,
		rows:  make(map[TupleID]*Tuple, len(t.rows)),
		order: make([]TupleID, 0, len(t.rows)),

		digest: t.digest,
		clean:  t.clean,
		ver:    t.ver,
	}
	for _, id := range t.order {
		if tu, ok := t.rows[id]; ok {
			nt.rows[id] = tu.clone()
			nt.order = append(nt.order, id)
		}
	}
	return nt
}

// setVal writes v into column col of the live row tu, keeping the
// column's index, if built: DB.Update and RollbackTo's update undo,
// which touch first.
func (t *Table) setVal(tu *Tuple, col int, v Value) {
	for ix := t.idx; ix != nil; ix = ix.next {
		if ix.col == col {
			ix.hold(tu.Vals[col], tu.ID, false)
			ix.hold(v, tu.ID, true)
		}
	}
	tu.Vals[col] = v
}

// pending calls fn on each row the next digest encodes: with gone set,
// the gone rows it takes out of the kept encodings; else, while the run
// is open, the live rows appended since the last digest, and else every
// live row.
func (t *Table) pending(gone bool, fn func(*Tuple)) {
	switch {
	case gone:
		for _, tu := range t.gone {
			fn(tu)
		}
	case t.run:
		for _, id := range t.order[t.sortedN:] {
			if tu := t.rows[id]; tu != nil {
				fn(tu)
			}
		}
	default:
		for _, tu := range t.rows {
			fn(tu)
		}
	}
}

// merge adds the sorted rows buf[spans[i].lo:spans[i].hi+1] to the kept
// encodings in place, from the back: each step moves the larger of the
// last unplaced kept row and the last unplaced new row to the end of
// the free space, which never reaches a kept row not yet moved. A
// rebuild empties the kept encodings first; they grow in one step.
func (t *Table) merge(buf []byte, spans []rowSpan) {
	n := len(t.ends)
	t.enc = slices.Grow(t.enc, len(buf))[:len(t.enc)+len(buf)]
	t.ends = slices.Grow(t.ends, len(spans))[:n+len(spans)]
	enc, ends, w := t.enc, t.ends, len(t.enc)
	for i, j := n-1, len(spans)-1; j >= 0; {
		src, lo, hi := buf, spans[j].lo, spans[j].hi+1
		klo := 0
		if i > 0 {
			klo = ends[i-1]
		}
		if i >= 0 && bytes.Compare(enc[klo:ends[i]-1], buf[lo:hi-1]) > 0 {
			src, lo, hi = enc, klo, ends[i]
			i--
		} else {
			j--
		}
		ends[i+j+2] = w // the index, among the merged rows, of the one just placed
		w -= copy(enc[w-(hi-lo):w], src[lo:hi])
	}
}

// drop takes one kept encoding equal to each of the sorted rows
// buf[spans[i].lo:spans[i].hi] out of the kept encodings in place, in
// one pass that starts at the first kept row not below the smallest of
// them and moves each kept row that stays down over the ones taken. It
// reports false, leaving the kept encodings to a rebuild, if a row has
// no equal among them.
func (t *Table) drop(buf []byte, spans []rowSpan) bool {
	enc, ends := t.enc, t.ends
	start := func(i int) int {
		if i == 0 {
			return 0
		}
		return ends[i-1]
	}
	first := buf[spans[0].lo:spans[0].hi]
	i := sort.Search(len(ends), func(i int) bool { return bytes.Compare(enc[start(i):ends[i]-1], first) >= 0 })
	k, w := i, start(i) // where the next kept row that stays goes: its index and its start
	for _, s := range spans {
		for ; i < len(ends) && bytes.Compare(enc[start(i):ends[i]-1], buf[s.lo:s.hi]) < 0; i, k = i+1, k+1 {
			w += copy(enc[w:], enc[start(i):ends[i]])
			ends[k] = w
		}
		if i == len(ends) || !bytes.Equal(enc[start(i):ends[i]-1], buf[s.lo:s.hi]) {
			return false
		}
		i++ // taken
	}
	lo := start(i) // the rows after the last one taken move down in one block
	copy(enc[w:], enc[lo:])
	for ; i < len(ends); i, k = i+1, k+1 {
		ends[k] = ends[i] - (lo - w)
	}
	t.enc, t.ends = enc[:len(enc)-(lo-w)], ends[:k]
	return true
}

// sortedEncodings returns the canonical encodings of all live tuples,
// sorted, so two tables with the same multiset of rows encode identically
// regardless of tuple identities or insertion order.
func (t *Table) sortedEncodings() [][]byte {
	encs := make([][]byte, 0, len(t.rows))
	for _, tu := range t.rows {
		encs = append(encs, tu.encode(nil))
	}
	sort.Slice(encs, func(i, j int) bool { return string(encs[i]) < string(encs[j]) })
	return encs
}

// writeSorted streams the table's sorted row encodings, each followed by
// ';', into h: the table's part of CanonicalFingerprint, and the
// from-scratch definition of its content digest.
func (t *Table) writeSorted(h hash.Hash) {
	for _, enc := range t.sortedEncodings() {
		h.Write(enc)
		h.Write([]byte{';'})
	}
}

// String renders the table contents readably, one tuple per line, rows
// sorted canonically so equal tables print identically.
func (t *Table) String() string {
	type rendered struct{ key, text string }
	rows := make([]rendered, 0, len(t.rows))
	for _, tu := range t.rows {
		parts := make([]string, len(tu.Vals))
		for i, v := range tu.Vals {
			parts[i] = v.String()
		}
		rows = append(rows, rendered{key: string(tu.encode(nil)), text: strings.Join(parts, ", ")})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	out := fmt.Sprintf("%s (%d rows)\n", t.def.Name, len(t.rows))
	for _, r := range rows {
		out += "  (" + r.text + ")\n"
	}
	return out
}
