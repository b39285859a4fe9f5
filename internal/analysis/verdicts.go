package analysis

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"activerules/internal/rules"
)

// pairState is what Lemma 6.1 (plus certifications and refinement)
// decided for an unordered pair of rules. A pair moves from pairUnknown
// to one of the other three exactly once and never changes again.
type pairState uint32

const (
	pairUnknown  pairState = iota // not examined yet
	pairCommutes                  // guaranteed to commute
	pairMayNot                    // may not commute; reasons are in the side map
	pairRefined                   // commutes because refinement discharged every reason
)

// verdictTable memoizes Commute for one analyzer view as two square bit
// planes indexed by Rule.Index: known[r] holds the rules r has a verdict
// against, mayNot[r] those of them it may not commute with. Both planes
// are symmetric — a pair sets its bit in both rules' rows — because the
// question Sig asks is a row against a set ("which members may r not
// commute with"), answered 64 pairs per load. A set of n rules costs two
// planes of n rows of ⌈n/64⌉ words: n²/4 bytes plus row padding.
//
// Words are read and published with sync/atomic. A pair that may not
// commute stores its reasons in the sparse side map first, then its two
// mayNot bits, then its two known bits, so whoever reads a known bit
// finds the rest of the verdict. Which of the commuting pairs refinement
// upgraded is not kept per pair, only counted.
type verdictTable struct {
	rowWords      int
	known, mayNot []atomic.Uint64
	refined       atomic.Int64
	reasons       sync.Map // pair index (int) -> []NoncommuteReason
}

func newVerdictTable(n int) *verdictTable {
	w := len(rules.NewBits(n))
	return &verdictTable{
		rowWords: w,
		known:    make([]atomic.Uint64, n*w),
		mayNot:   make([]atomic.Uint64, n*w),
	}
}

// pairIndex keys the reasons of the pair of rule indices lo < hi.
func pairIndex(lo, hi int) int { return hi*(hi-1)/2 + lo }

// load returns the verdict of the pair lo, hi. A refined pair reads back
// as pairCommutes: Commute answers the two alike.
func (t *verdictTable) load(lo, hi int) pairState {
	w, bit := lo*t.rowWords+hi>>6, uint64(1)<<(hi&63)
	switch {
	case t.known[w].Load()&bit == 0:
		return pairUnknown
	case t.mayNot[w].Load()&bit != 0:
		return pairMayNot
	}
	return pairCommutes
}

func (t *verdictTable) reasonsOf(lo, hi int) []NoncommuteReason {
	v, _ := t.reasons.Load(pairIndex(lo, hi))
	reasons, _ := v.([]NoncommuteReason)
	return reasons
}

// setBit ORs bit c into row r of the plane and reports whether this call
// flipped it. (A CAS loop: atomic.Uint64.Or needs go 1.23.)
func (t *verdictTable) setBit(plane []atomic.Uint64, r, c int) bool {
	w, bit := &plane[r*t.rowWords+c>>6], uint64(1)<<(c&63)
	for {
		old := w.Load()
		if old&bit != 0 {
			return false
		}
		if w.CompareAndSwap(old, old|bit) {
			return true
		}
	}
}

// publish records the verdict of the pair lo < hi. Concurrent publishers
// of one pair carry the same verdict (it is a pure function of the
// pair), so setting the bits twice is harmless; the one that flips the
// pair's known bit in lo's row counts it.
func (t *verdictTable) publish(lo, hi int, st pairState, reasons []NoncommuteReason) {
	if st == pairMayNot {
		t.reasons.Store(pairIndex(lo, hi), reasons)
		t.setBit(t.mayNot, lo, hi)
		t.setBit(t.mayNot, hi, lo)
	}
	first := t.setBit(t.known, lo, hi)
	t.setBit(t.known, hi, lo)
	if first && st == pairRefined {
		t.refined.Add(1)
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
	for i := range t.known {
		s.Examined += bits.OnesCount64(t.known[i].Load())
		s.MayNotCommute += bits.OnesCount64(t.mayNot[i].Load())
	}
	s.Examined /= 2 // every pair has its bit in two rows
	s.MayNotCommute /= 2
	s.RefinedToCommute = int(t.refined.Load())
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
