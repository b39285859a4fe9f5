package storage

import "activerules/internal/schema"

// index is the equality index of one int or string column: for each
// value the table's live rows hold in the column, how many hold it and,
// while the index knows one of them, that row's identity. Keys are the
// values' payloads; nulls are not indexed. Holders builds it on the
// column's second probe: a table probed once, as an explorer's fork
// often is, pays one scan as it would without the index, which pays
// back only over repeated probes. From then on every change to a live
// row keeps it exact: insert, insertPreservingOrder (unDelete's too),
// removeAt, unInsert and setVal. It is a cache of the live rows, like
// the digest, but unlike the digest it moves neither Version nor the
// digest; clone leaves it behind, with the marks of the columns probed.
type index struct {
	col  int
	ints map[int64]holding  // an int column's
	strs map[string]holding // a string column's
	next *index             // the table's index built before this one
}

// holding is a value's entry in an index: n live rows hold it, id among
// them, or none the index knows when id is 0.
type holding struct {
	n  int
	id TupleID
}

// hold counts the live row id in (live) or out of v's entry; a value
// not of the column's kind is not indexed.
func (ix *index) hold(v Value, id TupleID, live bool) {
	switch {
	case ix.ints != nil && v.Kind == KindInt:
		count(ix.ints, v.I, id, live)
	case ix.strs != nil && v.Kind == KindString:
		count(ix.strs, v.S, id, live)
	}
}

// count adds the live row id to k's entry or takes it out. An entry no
// row holds is deleted; one whose known row went out forgets it.
func count[K comparable](m map[K]holding, k K, id TupleID, live bool) {
	h := m[k]
	switch {
	case live:
		h.n++
		if h.id == 0 {
			h.id = id
		}
	case h.n == 1:
		delete(m, k)
		return
	default:
		h.n--
		if h.id == id {
			h.id = 0
		}
	}
	m[k] = h
}

// held counts the row tu into (live) or out of every built index.
func (t *Table) held(tu *Tuple, live bool) {
	for ix := t.idx; ix != nil; ix = ix.next {
		ix.hold(tu.Vals[ix.col], tu.ID, live)
	}
}

// Holders returns how many live rows hold v in column col and, when
// exactly one does and the column's index knows which, that row. ok is
// false, and the caller must scan, unless col is an int or string
// column, v a non-null value of its kind, and the column probed before
// since the table was made or cloned. That second call builds the
// column's index from the live rows, and the first marks the column, so
// Holders WRITES the table: it follows the same one-goroutine rule as
// mutation, and a statement that only reads must not call it.
func (t *Table) Holders(col int, v Value) (n int, one *Tuple, ok bool) {
	switch typ := t.def.Columns[col].Type; {
	case typ == schema.Int && v.Kind == KindInt, typ == schema.String && v.Kind == KindString:
	default:
		return 0, nil, false
	}
	ix := t.index(col)
	if ix == nil {
		return 0, nil, false
	}
	var h holding
	if v.Kind == KindInt {
		h = ix.ints[v.I]
	} else {
		h = ix.strs[v.S]
	}
	if h.n == 1 && h.id != 0 {
		one = t.Get(h.id)
	}
	return h.n, one, true
}

// index returns column col's index, building it if the column was
// probed before, or else marks the column probed and returns nil. The
// mark is bit col%32 of probed: columns that share a bit share a mark,
// which at worst builds an index one probe early.
func (t *Table) index(col int) *index {
	for ix := t.idx; ix != nil; ix = ix.next {
		if ix.col == col {
			return ix
		}
	}
	if bit := uint32(1) << (col % 32); t.probed&bit == 0 {
		t.probed |= bit
		return nil
	}
	ix := &index{col: col, next: t.idx}
	if t.def.Columns[col].Type == schema.Int {
		ix.ints = make(map[int64]holding, t.nlive)
	} else {
		ix.strs = make(map[string]holding, t.nlive)
	}
	t.Scan(func(tu *Tuple) bool {
		ix.hold(tu.Vals[col], tu.ID, true)
		return true
	})
	t.idx = ix
	return ix
}
