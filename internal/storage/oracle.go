package storage

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
)

// FingerprintOracle holds the memoized two-level Fingerprint to its
// from-scratch definitions. It is the owning oracle of the memo, and
// exported because the histories worth driving it with live in other
// packages' tests (the engine's rollback scenario, crashtest's durable
// points). It follows the DB's one-goroutine rule; the zero value is
// ready.
type FingerprintOracle struct {
	canonOf map[[32]byte][32]byte // Fingerprint → CanonicalFingerprint of every state seen
	fpOf    map[[32]byte][32]byte // and back
}

// Check reads db's fingerprint and returns how it departs from scratch,
// if it does: (i) a row-for-row rebuild, which has no memo to be stale,
// fingerprints differently; (ii) a table's digest — memoized, or just
// computed by the allocation-free pass — is not the SHA-256 of its
// sorted encodings (writeSorted); (iii) a table's open append run breaks
// its invariant (runErr) before the digest — its gone rows are not a
// sub-multiset of the kept encodings, or one of them is live, or with
// the live rows the last digest saw they are not exactly the kept
// encodings — or after it, where the run must also have seen every slot
// and hold no gone rows; (iv) over all states this oracle has seen, two
// agree on Fingerprint but not on CanonicalFingerprint, or the reverse;
// (v) a built equality index disagrees with a scan of the live rows
// (indexErr).
func (o *FingerprintOracle) Check(db *DB) error {
	for name, t := range db.tables {
		if err := runErr(t); err != nil {
			return fmt.Errorf("storage: table %s, before the digest: %v", name, err)
		}
		if err := indexErr(t); err != nil {
			return fmt.Errorf("storage: table %s: %v", name, err)
		}
	}
	fp := db.Fingerprint() // leaves every table clean
	fresh := NewDB(db.sch)
	for name, t := range db.tables {
		ft := fresh.tables[name]
		t.Scan(func(tu *Tuple) bool { ft.insert(tu.clone()); return true })
	}
	if got := fresh.Fingerprint(); got != fp {
		return fmt.Errorf("storage: Fingerprint %x, but %x on a row-for-row rebuild: a memoized table digest is stale", fp[:4], got[:4])
	}
	for name, t := range db.tables {
		h := sha256.New()
		t.writeSorted(h)
		var want [32]byte
		h.Sum(want[:0])
		if !t.clean || t.digest != want {
			return fmt.Errorf("storage: table %s: memoized digest (clean=%v) is not its sorted encodings' digest", name, t.clean)
		}
		if fresh.tables[name].digest != want {
			return fmt.Errorf("storage: table %s: the buffer pass and sortedEncodings digest differently", name)
		}
		if len(t.gone) > 0 || t.run && t.seen() != len(t.slots) {
			return fmt.Errorf("storage: table %s: the digest left %d gone rows, and a run over %d of %d slots", name, len(t.gone), t.seen(), len(t.slots))
		}
		if err := runErr(t); err != nil {
			return fmt.Errorf("storage: table %s, after the digest: %v", name, err)
		}
	}
	canon := db.CanonicalFingerprint()
	if o.canonOf == nil {
		o.canonOf, o.fpOf = map[[32]byte][32]byte{}, map[[32]byte][32]byte{}
	}
	if c, ok := o.canonOf[fp]; ok && c != canon {
		return fmt.Errorf("storage: two states agree on Fingerprint %x but not on CanonicalFingerprint", fp[:4])
	}
	if f, ok := o.fpOf[canon]; ok && f != fp {
		return fmt.Errorf("storage: two states agree on CanonicalFingerprint %x but not on Fingerprint", canon[:4])
	}
	o.canonOf[fp], o.fpOf[canon] = canon, fp
	return nil
}

// runErr returns how t departs from its slots' and its open append
// run's invariants, if it does: slot identities strictly ascend and the
// live count counts the live slots; the kept encodings are the sorted
// encodings of the rows the last digest saw, which are the live rows
// below newFrom and the gone rows; and no gone row is live. Outside a
// run, gone is empty.
func runErr(t *Table) error {
	live := 0
	for i, s := range t.slots {
		if i > 0 && s.id <= t.slots[i-1].id {
			return fmt.Errorf("slot %d holds identity %d after %d", i, s.id, t.slots[i-1].id)
		}
		if s.tu != nil {
			live++
			if s.tu.ID != s.id {
				return fmt.Errorf("slot %d of identity %d holds row %d", i, s.id, s.tu.ID)
			}
		}
	}
	if live != t.nlive {
		return fmt.Errorf("%d live slots, but Len %d", live, t.nlive)
	}
	if !t.run {
		if len(t.gone) > 0 {
			return fmt.Errorf("%d gone rows outside an append run", len(t.gone))
		}
		return nil
	}
	seen := slices.Clone(t.gone)
	for _, g := range t.gone {
		if t.Get(g.ID) != nil {
			return fmt.Errorf("gone row %d is live", g.ID)
		}
	}
	for _, s := range t.slots[:t.seen()] {
		if s.tu != nil {
			seen = append(seen, s.tu)
		}
	}
	encs := make([]string, len(seen))
	for i, tu := range seen {
		encs[i] = string(tu.encode(nil))
	}
	slices.Sort(encs)
	var enc []byte
	var ends []int
	for _, e := range encs {
		enc = append(append(enc, e...), ';')
		ends = append(ends, len(enc))
	}
	if !bytes.Equal(t.enc, enc) || !slices.Equal(t.ends, ends) {
		return fmt.Errorf("the kept encodings are not those of the %d rows the last digest saw, %d of them gone", len(seen), len(t.gone))
	}
	return nil
}

// indexErr returns how one of t's built equality indexes departs from a
// scan of the live rows, if it does: a value's count is not the number
// of live rows holding it, a remembered identity is not a live row
// holding the value, or a value no live row holds keeps an entry.
func indexErr(t *Table) error {
	for ix := t.idx; ix != nil; ix = ix.next {
		want := &index{col: ix.col}
		if ix.ints != nil {
			want.ints = map[int64]holding{}
		} else {
			want.strs = map[string]holding{}
		}
		t.Scan(func(tu *Tuple) bool {
			want.hold(tu.Vals[ix.col], 0, true) // identities are checked below
			return true
		})
		if err := indexMatches(t, ix.col, ix.ints, want.ints); err != nil {
			return err
		}
		if err := indexMatches(t, ix.col, ix.strs, want.strs); err != nil {
			return err
		}
	}
	return nil
}

// indexMatches compares one column's index entries with the counts a
// scan made, and checks each remembered identity against the live rows.
func indexMatches[K comparable](t *Table, col int, got, want map[K]holding) error {
	for k, w := range want {
		if h := got[k]; h.n != w.n {
			return fmt.Errorf("column %d's index counts %d live rows holding %v, a scan %d", col, h.n, k, w.n)
		}
	}
	for k, h := range got {
		switch tu := t.Get(h.id); {
		case want[k].n == 0:
			return fmt.Errorf("column %d's index keeps an entry for %v, which no live row holds", col, k)
		case h.id == 0:
		case tu == nil:
			return fmt.Errorf("column %d's index remembers row %d for %v, which is not live", col, h.id, k)
		case !tu.Vals[col].Equal(keyValue(k)):
			return fmt.Errorf("column %d's index remembers row %d for %v, which holds %v", col, h.id, k, tu.Vals[col])
		}
	}
	return nil
}

// keyValue is the value an index key stands for.
func keyValue(k any) Value {
	if i, ok := k.(int64); ok {
		return IntV(i)
	}
	return StringV(k.(string))
}
