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
// The history of an open transaction is the database's own
// (storage.DB.History: one Change per primitive mutation, which is also
// what a rollback reverses); this package keeps no record of its own.
// ComputeTable derives the net effect on one table of any suffix of that
// history against the current database state. The net effect yields both
// the triggering operations (for deciding which rules are triggered) and
// the materialized transition tables (inserted, deleted, new-updated,
// old-updated) a considered rule sees. Positions in the history ("marks")
// identify the transition each rule has yet to see (Section 2: a rule is
// triggered iff its transition predicate holds for the composite
// transition since it was last considered).
//
// Table names are the schema's canonical (lower-case) names throughout
// this package — what statement resolution and rule compilation produce —
// and nothing folds case again.
package transition

import (
	"crypto/sha256"
	"sort"
	"sync/atomic"

	"activerules/internal/schema"
	"activerules/internal/storage"
)

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

// Net is the net effect of a history suffix on one table: its inserted,
// deleted and updated tuples. A rule's transition predicate and
// transition tables concern its own table alone, so this is all the
// engine ever computes. A Net is immutable from one ComputeTable to the
// next that is handed it to refill, and until then may be shared
// between engines and goroutines.
type Net struct {
	tn TableNet
	// vals is the one backing array every row of tn is carved from.
	vals []storage.Value
	// fp memoizes TableFingerprint(tn.Table). Racing callers publish
	// identical digests, so a plain atomic store suffices.
	fp atomic.Pointer[[32]byte]
}

var emptyNet = new(Net)

// EmptyNet returns the net effect with no changes. It is shared, and
// ComputeTable never refills it.
func EmptyNet() *Net { return emptyNet }

// tupState is what the history suffix did to one tuple: the kind of its
// first change, whether a delete followed, and — unless that first change
// is an insert — its value at the suffix start, in the net's own memory.
type tupState struct {
	id       storage.TupleID
	first    storage.ChangeKind
	deleted  bool
	baseline []storage.Value
}

// Scratch holds the tuple states of one ComputeTable call, by value and
// in first-touch order. A state is found by scanning while there are at
// most linearProbe of them — a rule action's transition is usually a
// handful of tuples — and through index beyond. A Scratch serves one
// goroutine; the zero value is ready, and nothing a Net holds points
// into it.
type Scratch struct {
	states []tupState
	index  map[storage.TupleID]int
}

const linearProbe = 8

func (sc *Scratch) find(id storage.TupleID) *tupState {
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

func (sc *Scratch) add(st tupState) {
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

// reset empties the scratch, dropping its references into the net.
func (sc *Scratch) reset() {
	clear(sc.states)
	sc.states = sc.states[:0]
	clear(sc.index)
}

// ComputeTable derives the net effect on table t of the suffix of db's
// history starting at mark, reading final tuple values from t (the
// current state). Tuples whose composite update is the identity are
// dropped entirely (no net effect).
//
// The history records an update as one column's old value and a delete as
// the removed tuple, not as full old rows, so a tuple the suffix did not
// insert gets its value at the suffix start — what its Deleted or
// Updated.Old row is — by taking its last value (the live row) and
// walking the suffix newest-first, writing each update's old value back
// and taking a delete's row whole.
//
// Every row of the result, deleted ones included, is carved from one
// backing array the Net owns: no row aliases storage, where a rolled-back
// delete revives the very tuple object the history held and later updates
// write it in place, while forks go on sharing the Net.
//
// reuse, when not nil, is a net the caller owns and no longer reads: it
// is overwritten with the result, its backing array and lists kept where
// they are large enough, and returned. Every row and list it held before
// then reads as the new net's, so a caller passes a net only when nothing
// can read it any more (DESIGN.md §11.3 "Pending nets are memoized"). A
// result with no changes is the shared empty net, whatever reuse is, and
// the empty net itself is never refilled.
func ComputeTable(db *storage.DB, mark int, t *storage.Table, sc *Scratch, reuse *Net) *Net {
	defer sc.reset()
	hist := db.History()
	for i := mark; i < len(hist); i++ {
		c := &hist[i]
		if c.Table != t {
			continue
		}
		if st := sc.find(c.ID); st != nil {
			st.deleted = st.deleted || c.Kind == storage.ChangeDelete
			continue
		}
		sc.add(tupState{id: c.ID, first: c.Kind, deleted: c.Kind == storage.ChangeDelete})
	}

	// Size the lists, and the one backing array for every row.
	var nIns, nDel, nUpd int
	for i := range sc.states {
		switch st := &sc.states[i]; {
		case st.first == storage.ChangeInsert:
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
	def := t.Def()
	n := reuse
	if n == nil || n == emptyNet {
		n = new(Net)
	}
	n.fp.Store(nil)
	tn := &n.tn
	tn.Table = def.Name
	vals := fit(n.vals, (nIns+nDel+2*nUpd)*len(def.Columns))
	carve := func(row []storage.Value) []storage.Value {
		vals = append(vals, row...)
		return vals[len(vals)-len(row) : len(vals) : len(vals)]
	}

	if nDel+nUpd > 0 {
		for i := range sc.states {
			if st := &sc.states[i]; st.first != storage.ChangeInsert {
				if tu := t.Get(st.id); tu != nil {
					st.baseline = carve(tu.Vals)
				} else { // deleted: a blank row, which its delete overwrites below
					blank := vals[len(vals) : len(vals)+len(def.Columns)]
					clear(blank) // a refilled array holds the last net's values
					st.baseline = carve(blank)
				}
			}
		}
		for i := len(hist) - 1; i >= mark; i-- {
			c := &hist[i]
			if c.Table != t || c.Kind == storage.ChangeInsert {
				continue
			}
			st := sc.find(c.ID)
			switch {
			case st.baseline == nil: // inserted in the suffix: no earlier value
			case c.Kind == storage.ChangeDelete:
				copy(st.baseline, c.Row.Vals)
			default:
				st.baseline[c.Col] = c.Old
			}
		}
	}

	tn.Inserted = fit(tn.Inserted, nIns)
	tn.Deleted = fit(tn.Deleted, nDel)
	tn.Updated = fit(tn.Updated, nUpd)
	cols := tn.UpdatedColumns[:0]
	tn.UpdatedColumns = nil
	for i := range sc.states {
		st := &sc.states[i]
		switch {
		case st.first == storage.ChangeInsert:
			if st.deleted {
				continue
			}
			// Defensive: a tuple may have vanished without a recorded delete.
			if tu := t.Get(st.id); tu != nil {
				tn.Inserted = append(tn.Inserted, carve(tu.Vals)) // rule 3: final values
			}
		case st.deleted: // rule 2 or a plain delete: the original tuple
			tn.Deleted = append(tn.Deleted, st.baseline)
		default:
			tu := t.Get(st.id)
			if tu == nil || rowsIdentical(st.baseline, tu.Vals) {
				continue // composite update is the identity: no net effect
			}
			tn.Updated = append(tn.Updated, UpdatedPair{Old: st.baseline, New: carve(tu.Vals)})
		}
	}
	if len(tn.Updated) > 0 {
		for c := range tn.Updated[0].Old {
			for _, up := range tn.Updated {
				if !valuesIdentical(up.Old[c], up.New[c]) {
					cols = append(cols, def.Column(c).Name)
					break
				}
			}
		}
		tn.UpdatedColumns = cols
	}
	n.vals = vals
	return n
}

// fit returns s emptied when it can hold n elements, else a new slice
// that can. It never returns nil: a net's row lists are empty, not
// absent, whether the net is fresh or refilled.
func fit[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
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
