package analysis

import (
	"fmt"
	"math/bits"

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
// The reasons of a pair that may not commute sit in a sparse side map.
// Which of the commuting pairs refinement upgraded is not kept per pair,
// only counted.
//
// The Obs view's table (observableOver) is an overlay: it holds only the
// pairs of two rules in own, the observable rules the view extends, and
// reads and fills base, the analyzer's table, for every other pair —
// whose verdict the extension cannot change (DESIGN.md §7). The overlay
// of the view that extends every observable rule lives as long as its
// base, which keeps it in obs.
type verdictTable struct {
	rowWords      int
	known, mayNot []uint64
	refined       int
	reasons       map[int][]NoncommuteReason // by pairIndex

	base *verdictTable // nil but in an overlay
	own  rules.Bits
	obs  *verdictTable
}

func newVerdictTable(n int) *verdictTable {
	w := len(rules.NewBits(n))
	return &verdictTable{
		rowWords: w,
		known:    make([]uint64, n*w),
		mayNot:   make([]uint64, n*w),
		reasons:  map[int][]NoncommuteReason{},
	}
}

// pairIndex keys the reasons of the pair of rule indices lo < hi.
func pairIndex(lo, hi int) int { return hi*(hi-1)/2 + lo }

// overlay returns the table over t of a view that extends the given
// rules of a set of n: a new one, or the one t keeps when they are every
// observable rule of the set (all), since a pair's cell depends only on
// whether the view extends its two rules.
func (t *verdictTable) overlay(n int, extended []*rules.Rule, all bool) *verdictTable {
	if all && t.obs != nil {
		return t.obs
	}
	o := newVerdictTable(n)
	o.base, o.own = t, rules.NewBits(n)
	for _, r := range extended {
		o.own.Add(r.Index())
	}
	if all {
		t.obs = o
	}
	return o
}

// cell returns the table that holds the pair lo, hi.
func (t *verdictTable) cell(lo, hi int) *verdictTable {
	if t.base != nil && !(t.own.Has(lo) && t.own.Has(hi)) {
		return t.base
	}
	return t
}

// word returns word w of rule r's rows of the two planes, as the table
// that holds each pair has it.
func (t *verdictTable) word(r, w int) (known, mayNot uint64) {
	i := r*t.rowWords + w
	known, mayNot = t.known[i], t.mayNot[i]
	if t.base != nil {
		var mine uint64
		if t.own.Has(r) {
			mine = t.own[w]
		}
		known = t.base.known[i]&^mine | known&mine
		mayNot = t.base.mayNot[i]&^mine | mayNot&mine
	}
	return known, mayNot
}

// load returns the verdict of the pair lo, hi. A refined pair reads back
// as pairCommutes: Commute answers the two alike.
func (t *verdictTable) load(lo, hi int) pairState {
	w, bit := lo*t.rowWords+hi>>6, uint64(1)<<(hi&63)
	switch {
	case t.known[w]&bit == 0:
		return pairUnknown
	case t.mayNot[w]&bit != 0:
		return pairMayNot
	}
	return pairCommutes
}

func (t *verdictTable) reasonsOf(lo, hi int) []NoncommuteReason {
	return t.reasons[pairIndex(lo, hi)]
}

// setBit ORs bit c into row r of the plane.
func (t *verdictTable) setBit(plane []uint64, r, c int) {
	plane[r*t.rowWords+c>>6] |= 1 << (c & 63)
}

// publish records the verdict of the pair lo < hi. A verdict is a pure
// function of the pair, so publishing it again changes nothing: a
// refined pair is counted only when it was unknown.
func (t *verdictTable) publish(lo, hi int, st pairState, reasons []NoncommuteReason) {
	if st == pairRefined && t.load(lo, hi) == pairUnknown {
		t.refined++
	}
	if st == pairMayNot {
		t.reasons[pairIndex(lo, hi)] = reasons
		t.setBit(t.mayNot, lo, hi)
		t.setBit(t.mayNot, hi, lo)
	}
	t.setBit(t.known, lo, hi)
	t.setBit(t.known, hi, lo)
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
// Obs view of Section 8 fills it too, for every pair with at most one
// observable rule, so those evaluations are counted here; its
// observable × observable pairs, and the views Lint derives, fill tables
// of their own, which are not.
func (a *Analyzer) PairTable() PairTableStats {
	n := a.set.Len()
	s := PairTableStats{Total: n * (n - 1) / 2}
	t := a.verdicts
	if t == nil {
		return s // nothing examined yet
	}
	for i := range t.known {
		s.Examined += bits.OnesCount64(t.known[i])
		s.MayNotCommute += bits.OnesCount64(t.mayNot[i])
	}
	s.Examined /= 2 // every pair has its bit in two rows
	s.MayNotCommute /= 2
	s.RefinedToCommute = t.refined
	return s
}

// table returns the analyzer's verdict table, allocating it on first
// use.
func (a *Analyzer) table() *verdictTable {
	if a.verdicts == nil {
		a.verdicts = newVerdictTable(a.set.Len())
	}
	return a.verdicts
}
