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
// sorted encodings (writeSorted); (iii) a table's open append run keeps
// encodings other than its sorted ones, or counts other slots than its
// order slice holds; (iv) over all states this oracle has seen, two
// agree on Fingerprint but not on CanonicalFingerprint, or the reverse.
func (o *FingerprintOracle) Check(db *DB) error {
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
		if t.run {
			var enc []byte
			var ends []int
			for _, e := range t.sortedEncodings() {
				enc = append(append(enc, e...), ';')
				ends = append(ends, len(enc))
			}
			if t.sortedN != len(t.order) || !bytes.Equal(t.enc, enc) || !slices.Equal(t.ends, ends) {
				return fmt.Errorf("storage: table %s: an append run keeps other encodings than its sorted ones, or counts %d of %d slots", name, t.sortedN, len(t.order))
			}
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
