package analysis

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// pairState is one cell of the verdict table: what Lemma 6.1 (plus
// certifications and refinement) decided for an unordered pair of rules.
// A cell moves from pairUnknown to one of the other three exactly once
// and never changes again.
type pairState uint32

const (
	pairUnknown  pairState = iota // not examined yet
	pairCommutes                  // guaranteed to commute
	pairMayNot                    // may not commute; reasons are in the side map
	pairRefined                   // commutes because refinement discharged every reason
)

// verdictTable memoizes Commute for one analyzer view: two bits per
// unordered pair, packed sixteen to a word in triangular order, so a
// set of n rules costs n(n-1)/8 bytes however the verdicts fall. Cells
// are read and published with sync/atomic; the reasons of the pairs that
// may not commute — the only ones that have any — live in a sparse side
// map, stored BEFORE the cell's bits so that whoever reads pairMayNot
// finds them.
type verdictTable struct {
	pairs   int
	words   []atomic.Uint32
	reasons sync.Map // pair index (int) -> []NoncommuteReason
}

const cellsPerWord = 16

func newVerdictTable(rules int) *verdictTable {
	pairs := rules * (rules - 1) / 2
	return &verdictTable{
		pairs: pairs,
		words: make([]atomic.Uint32, (pairs+cellsPerWord-1)/cellsPerWord),
	}
}

// pairIndex is the triangular position of the pair of rule indices
// lo < hi.
func pairIndex(lo, hi int) int { return hi*(hi-1)/2 + lo }

func cellShift(k int) uint { return uint(k%cellsPerWord) * 2 }

func (t *verdictTable) load(k int) pairState {
	return pairState(t.words[k/cellsPerWord].Load() >> cellShift(k) & 3)
}

func (t *verdictTable) reasonsOf(k int) []NoncommuteReason {
	v, _ := t.reasons.Load(k)
	reasons, _ := v.([]NoncommuteReason)
	return reasons
}

// publish records the verdict of pair k. Concurrent publishers of one
// pair carry the same verdict (it is a pure function of the pair), so
// OR-ing the bits in is idempotent.
func (t *verdictTable) publish(k int, st pairState, reasons []NoncommuteReason) {
	if st == pairMayNot {
		t.reasons.Store(k, reasons)
	}
	w := &t.words[k/cellsPerWord]
	bits := uint32(st) << cellShift(k)
	for {
		old := w.Load()
		if old&bits == bits || w.CompareAndSwap(old, old|bits) {
			return
		}
	}
}

// PairTableStats counts the cells of an analyzer's verdict table: how
// many unordered pairs the rule set has, how many the analyses run so
// far had to examine, and how those fell.
type PairTableStats struct {
	Total            int // unordered pairs of distinct rules
	Examined         int // pairs with a verdict
	MayNotCommute    int // examined pairs that may not commute
	RefinedToCommute int // examined pairs refinement upgraded to "commutes"
}

// String renders the counts as one line of the statistics block.
func (s PairTableStats) String() string {
	return fmt.Sprintf("  verdict table: %d pairs, %d examined, %d may not commute, %d refined to commute\n",
		s.Total, s.Examined, s.MayNotCommute, s.RefinedToCommute)
}

// PairTable reports the state of the analyzer's own verdict table. The
// views analyses derive internally (the Obs extension of Section 8) fill
// tables of their own, which are not counted here.
func (a *Analyzer) PairTable() PairTableStats {
	n := a.set.Len()
	s := PairTableStats{Total: n * (n - 1) / 2}
	t := a.verdicts.Load()
	if t == nil {
		return s // nothing examined yet
	}
	for k := 0; k < t.pairs; k++ {
		switch t.load(k) {
		case pairCommutes:
			s.Examined++
		case pairMayNot:
			s.Examined++
			s.MayNotCommute++
		case pairRefined:
			s.Examined++
			s.RefinedToCommute++
		}
	}
	return s
}

// table returns the analyzer's verdict table, allocating it on first
// use.
func (a *Analyzer) table() *verdictTable {
	if t := a.verdicts.Load(); t != nil {
		return t
	}
	a.verdicts.CompareAndSwap(nil, newVerdictTable(a.set.Len()))
	return a.verdicts.Load()
}
