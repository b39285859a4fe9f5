package rules

// Bits is a set of rules as a bit row: bit i is the rule whose Index is
// i. The analyses keep their pair relations in this form — the priority
// closure here, the Definition 6.5 and 7.1 sets in internal/analysis —
// so "does r relate to some member of the set" is a word-wise AND.
// Rows of one rule set all have the length NewBits gives them.
type Bits []uint64

// NewBits returns an empty row wide enough for n rules.
func NewBits(n int) Bits { return make(Bits, (n+63)/64) }

// Has reports whether rule index i is in the row.
func (b Bits) Has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// Add puts rule index i into the row.
func (b Bits) Add(i int) { b[i>>6] |= 1 << (i & 63) }

// Intersects reports whether the two rows share a rule.
func (b Bits) Intersects(o Bits) bool {
	for w, bits := range b {
		if bits&o[w] != 0 {
			return true
		}
	}
	return false
}
