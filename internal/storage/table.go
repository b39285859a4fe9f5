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

// Table holds the tuples of one relation as one slice of slots in
// ascending identity order, a slot whose tuple is nil being a tombstone.
// Iteration order is identity order, which is insertion order: the
// identity allocator only ascends, RollbackTo rewinds it only past the
// rows it has just taken out, and an undone delete revives its own slot
// or takes its sorted one. Only a snapshot or redo-log restore inserts
// below the last identity, and it places the row at its sorted position,
// so a restored table iterates as the original did.
type Table struct {
	def   *schema.Table
	slots []slot
	nlive int // the slots whose tuple is not nil

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
	// rows below newFrom, the DB's NextID at the last digest, and of the
	// gone rows, the rows the last digest saw that were deleted since; the
	// next digest takes the gone rows out and merges the live rows from
	// newFrom up in. Slots ascend, so those are the slots from seen() on.
	// An insert below newFrom, which a rollback or a replay can hand out,
	// ends the run, so the last digest saw exactly the live rows below
	// newFrom and a delete tells the two kinds of row apart by identity
	// alone. touch ends the run, and the next digest rebuilds enc. clone
	// leaves enc behind, since a digest rewrites it in place.
	enc     []byte
	ends    []int
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

func newTable(def *schema.Table) *Table { return &Table{def: def} }

// slot is one identity's place in a table: a nil tuple is a tombstone,
// the slot of a deleted row that an undone delete or a restore revives.
type slot struct {
	id TupleID
	tu *Tuple
}

// find returns where id's slot is, or would go, and whether it exists:
// a binary search, after a check of the last slot, which appends and the
// most recent rows hit.
func (t *Table) find(id TupleID) (int, bool) {
	if n := len(t.slots); n == 0 || id > t.slots[n-1].id {
		return n, false
	} else if id == t.slots[n-1].id {
		return n - 1, true
	}
	lo, hi := 0, len(t.slots)-1 // the slot is in [lo, hi]
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.slots[m].id < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, t.slots[lo].id == id
}

// Def returns the schema definition of the table.
func (t *Table) Def() *schema.Table { return t.def }

// Len returns the number of live tuples.
func (t *Table) Len() int { return t.nlive }

// Get returns the tuple with the given identity, or nil.
func (t *Table) Get(id TupleID) *Tuple {
	if i, ok := t.find(id); ok {
		return t.slots[i].tu
	}
	return nil
}

// Scan calls fn for each live tuple in identity order. fn must not
// insert or delete tuples; it may read freely. It may update values via
// the enclosing DB only if it returns immediately afterwards.
func (t *Table) Scan(fn func(*Tuple) bool) {
	for i := range t.slots {
		if tu := t.slots[i].tu; tu != nil && !fn(tu) {
			return
		}
	}
}

// IDs returns the identities of all live tuples in identity order.
func (t *Table) IDs() []TupleID {
	out := make([]TupleID, 0, t.nlive)
	for _, s := range t.slots {
		if s.tu != nil {
			out = append(out, s.id)
		}
	}
	return out
}

// insert appends tu, whose identity is above every slot's.
func (t *Table) insert(tu *Tuple) {
	t.fresh(tu)
	t.slots = append(t.slots, slot{tu.ID, tu})
	t.nlive++
	t.held(tu, true)
}

// fresh is the digest bookkeeping of a new live row tu.
func (t *Table) fresh(tu *Tuple) {
	if tu.ID < t.newFrom {
		t.touch() // a later delete could not tell this row from one the last digest saw
	} else {
		t.clean, t.ver = false, t.ver+1 // touch, but an open append run goes on
	}
}

// insertPreservingOrder is insert for a row whose identity may be below
// the last slot's: a snapshot or redo-log restore, and an undone delete.
// A tombstone of the identity (it was deleted earlier and not yet
// compacted away) is revived; any other identity gets a slot at its
// sorted position.
func (t *Table) insertPreservingOrder(tu *Tuple) {
	i, ok := t.find(tu.ID)
	if ok {
		t.touch()
		t.slots[i].tu = tu
	} else {
		t.fresh(tu)
		t.slots = slices.Insert(t.slots, i, slot{tu.ID, tu})
	}
	t.nlive++
	t.held(tu, true)
}

// removeAt deletes slot i's live row, marking the memoized digest stale
// and advancing Version, and keeps an open append run: a row the last
// digest saw joins gone, for the next digest to take its encoding out of
// the kept ones, and a row appended since leaves no trace there. The
// slot stays, as a tombstone, until compact.
func (t *Table) removeAt(i int) {
	tu := t.slots[i].tu
	t.clean, t.ver = false, t.ver+1
	if t.run && tu.ID < t.newFrom {
		t.gone = append(t.gone, tu)
	}
	t.slots[i].tu = nil
	t.nlive--
	t.held(tu, false)
}

// compact drops the tombstones once they outnumber live rows three to
// one. The DB calls it only with no savepoint active: until then
// unDelete relies on a deleted identity keeping its slot. An open
// append run goes on, since it tells the rows the last digest saw by
// identity, not by slot.
func (t *Table) compact() {
	if len(t.slots) <= 16 || t.nlive*4 >= len(t.slots) {
		return
	}
	live := t.slots[:0]
	for _, s := range t.slots {
		if s.tu != nil {
			live = append(live, s)
		}
	}
	clear(t.slots[len(live):]) // the moved tuples' stale copies
	t.slots = live
}

// unInsert reverses an insert made under a savepoint: the slot goes,
// also one the insert revived. An earlier delete of the identity that is
// undone next then takes its sorted slot again, as on a Fork.
func (t *Table) unInsert(id TupleID) {
	t.touch()
	i, _ := t.find(id)
	t.held(t.slots[i].tu, false)
	t.nlive--
	t.slots = slices.Delete(t.slots, i, i+1) // zeroes the freed slot
}

// unDelete reverses a delete made under a savepoint. The identity kept
// its slot, which insertPreservingOrder revives (compaction waits for the
// last savepoint to end), unless the table is a Fork's, whose Clone
// dropped the tombstones, or an undone restore of the identity took the
// slot out: then the row takes its sorted slot again.
func (t *Table) unDelete(tu *Tuple) { t.insertPreservingOrder(tu) }

func (t *Table) clone() *Table {
	nt := &Table{
		def:   t.def,
		slots: make([]slot, 0, t.nlive),
		nlive: t.nlive,

		digest: t.digest,
		clean:  t.clean,
		ver:    t.ver,
	}
	for _, s := range t.slots {
		if s.tu != nil {
			nt.slots = append(nt.slots, slot{s.id, s.tu.clone()})
		}
	}
	return nt
}

// setVal writes v into column col of the live row tu, keeping the
// column's index, if built: DB.UpdateRows and RollbackTo's update undo,
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

// seen returns the number of slots the last digest saw: those below newFrom.
func (t *Table) seen() int {
	i, _ := t.find(t.newFrom)
	return i
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
		for _, s := range t.slots[t.seen():] {
			if s.tu != nil {
				fn(s.tu)
			}
		}
	default:
		t.Scan(func(tu *Tuple) bool { fn(tu); return true })
	}
}

// kept returns kept row i's encoding, without its ';'.
func (t *Table) kept(i int) []byte { return t.enc[t.keptStart(i) : t.ends[i]-1] }

// keptStart returns where kept row i's encoding starts.
func (t *Table) keptStart(i int) int {
	if i == 0 {
		return 0
	}
	return t.ends[i-1]
}

// rank returns the first of the kept rows lo..hi-1 whose encoding is
// not below row, or hi: a bisection, after a check of the last of them,
// which the rows of an append usually sort after.
func (t *Table) rank(row []byte, lo, hi int) int {
	if lo == hi || bytes.Compare(t.kept(hi-1), row) < 0 {
		return hi
	}
	for hi--; lo < hi; { // kept row hi is not below row
		if m := int(uint(lo+hi) >> 1); bytes.Compare(t.kept(m), row) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// merge adds the sorted rows buf[spans[j].lo:spans[j].hi+1] to the kept
// encodings in place, from the back: each new row, the largest first,
// ranks among the kept rows not yet moved, those that sort after it move
// up past the new rows still to place in one copy, and the row goes
// below them. A rebuild empties the kept encodings first; they grow in
// one step.
func (t *Table) merge(buf []byte, spans []rowSpan) {
	i := len(t.ends) // the kept rows 0..i-1 have not moved
	t.enc = slices.Grow(t.enc, len(buf))[:len(t.enc)+len(buf)]
	t.ends = slices.Grow(t.ends, len(spans))[:i+len(spans)]
	enc, ends, w := t.enc, t.ends, len(t.enc)
	for j := len(spans) - 1; j >= 0; j-- {
		lo, hi := spans[j].lo, spans[j].hi+1
		if i > 0 { // else a rebuild, or every kept row has moved
			if p := t.rank(buf[lo:hi-1], 0, i); p < i {
				from, to := t.keptStart(p), ends[i-1]
				d := w - to // the kept rows p..i-1 move up by d, and by j+1 places
				copy(enc[from+d:w], enc[from:to])
				for m := i - 1; m >= p; m-- {
					ends[m+j+1] = ends[m] + d
				}
				w, i = from+d, p
			}
		}
		ends[i+j] = w
		w -= copy(enc[w-(hi-lo):w], buf[lo:hi])
	}
}

// drop takes one kept encoding equal to each of the rows t.gone holds
// out of the kept encodings in place. The rows, encoded and sorted, each
// rank among the kept rows after the last one taken, and the places
// taken go in s.at; then each run of kept rows between two of them moves
// down in one copy. It reports false, leaving the kept encodings to a
// rebuild, if a row has no equal among them.
func (t *Table) drop(s *fpScratch) bool {
	buf, spans := s.sorted(t, true)
	s.at = s.at[:0]
	lo := 0 // the kept rows from lo on come after every one taken
	for _, sp := range spans {
		row := buf[sp.lo:sp.hi]
		p := t.rank(row, lo, len(t.ends))
		if p == len(t.ends) || !bytes.Equal(t.kept(p), row) {
			return false
		}
		s.at, lo = append(s.at, p), p+1
	}
	at, enc, ends := s.at, t.enc, t.ends
	w, k := t.keptStart(at[0]), at[0] // where the next kept row that stays goes: its start and index
	for r, p := range at {
		next := len(ends)
		if r+1 < len(at) {
			next = at[r+1]
		}
		from, to := ends[p], t.keptStart(next) // the kept rows p+1..next-1
		copy(enc[w:], enc[from:to])
		for m := p + 1; m < next; m, k = m+1, k+1 {
			ends[k] = ends[m] - (from - w)
		}
		w += to - from
	}
	t.enc, t.ends = enc[:w], ends[:k]
	return true
}

// sortedEncodings returns the canonical encodings of all live tuples,
// sorted, so two tables with the same multiset of rows encode identically
// regardless of tuple identities or insertion order.
func (t *Table) sortedEncodings() [][]byte {
	encs := make([][]byte, 0, t.nlive)
	t.Scan(func(tu *Tuple) bool {
		encs = append(encs, tu.encode(nil))
		return true
	})
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
	rows := make([]rendered, 0, t.nlive)
	t.Scan(func(tu *Tuple) bool {
		parts := make([]string, len(tu.Vals))
		for i, v := range tu.Vals {
			parts[i] = v.String()
		}
		rows = append(rows, rendered{key: string(tu.encode(nil)), text: strings.Join(parts, ", ")})
		return true
	})
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	out := fmt.Sprintf("%s (%d rows)\n", t.def.Name, t.nlive)
	for _, r := range rows {
		out += "  (" + r.text + ")\n"
	}
	return out
}
