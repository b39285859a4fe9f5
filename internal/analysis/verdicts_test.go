package analysis

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"activerules/internal/rules"
	"activerules/internal/workload"
)

// fullPass runs every analysis rulecheck can print, in the benchmark's
// order, and returns the rendered reports.
func fullPass(a *Analyzer, g *workload.Generated) string {
	var sb strings.Builder
	sb.WriteString(ReportTermination(a.Termination()))
	sb.WriteString(ReportConfluence(a.Confluence()))
	sb.WriteString(ReportObservable(a.ObservableDeterminism()))
	sb.WriteString(ReportPartialConfluence(a.PartialConfluence(g.Schema.TableNames()[:4])))
	sb.WriteString(a.ShardPlan().String())
	sb.WriteString(RenderLintText(a.Lint(), "generated"))
	return sb.String()
}

type pairVerdict struct {
	ok      bool
	reasons []NoncommuteReason
}

// allVerdicts asks Commute for every unordered pair.
func allVerdicts(a *Analyzer) []pairVerdict {
	rs := a.set.Rules()
	var out []pairVerdict
	for i, ri := range rs {
		for _, rj := range rs[:i] {
			ok, reasons := a.Commute(ri, rj) // hi, lo: Commute canonicalizes
			out = append(out, pairVerdict{ok, append([]NoncommuteReason(nil), reasons...)})
		}
	}
	return out
}

// wantLoad is what load answers for a published state: the table counts
// refined pairs but reads them back as commuting.
func wantLoad(st pairState) pairState {
	if st == pairRefined {
		return pairCommutes
	}
	return st
}

// TestVerdictTableCells exercises the bit planes directly: every state
// round-trips at every bit of a word, through the row of either rule of
// the pair; pairs never published — the neighbours — stay unknown; the
// refined count is exact; and the planes stay within the quarter byte
// per pair of rules squared (plus row padding) the design costs.
func TestVerdictTableCells(t *testing.T) {
	const n = 131 // three words a row, the last partly used
	tab := newVerdictTable(n)
	want := map[[2]int]pairState{}
	refined := 0
	rng := rand.New(rand.NewSource(1))
	for _, k := range rng.Perm(n * n) {
		lo, hi := k/n, k%n
		if lo >= hi {
			continue
		}
		st := pairState(rng.Intn(4)) // a quarter stay unknown
		want[[2]int{lo, hi}] = st
		if st == pairUnknown {
			continue
		}
		if st == pairRefined {
			refined++
		}
		var reasons []NoncommuteReason
		if st == pairMayNot {
			reasons = []NoncommuteReason{{Cond: k}}
		}
		tab.publish(lo, hi, st, reasons)
		tab.publish(lo, hi, st, reasons) // a second publish changes nothing
	}
	for lo := 0; lo < n; lo++ {
		if got := tab.load(lo, lo); got != pairUnknown {
			t.Fatalf("diagonal cell %d = %d", lo, got)
		}
		for hi := lo + 1; hi < n; hi++ {
			st := want[[2]int{lo, hi}]
			if a, b := tab.load(lo, hi), tab.load(hi, lo); a != wantLoad(st) || b != wantLoad(st) {
				t.Fatalf("pair (%d, %d) published as %d reads %d in row %d and %d in row %d", lo, hi, st, a, lo, b, hi)
			}
			if rs := tab.reasonsOf(lo, hi); (st == pairMayNot) != (len(rs) == 1 && rs[0].Cond == lo*n+hi) {
				t.Fatalf("pair (%d, %d) in state %d has reasons %v", lo, hi, st, rs)
			}
		}
	}
	if got := tab.refined; got != refined {
		t.Errorf("refined count %d, published %d refined pairs (twice each)", got, refined)
	}

	const big = 10002
	bigTab := newVerdictTable(big)
	if got, bound := 8*(len(bigTab.known)+len(bigTab.mayNot)), big*big/4+2*8*big; got > bound {
		t.Errorf("table for %d rules takes %d bytes, bound %d", big, got, bound)
	}
}

// TestOverlayCells: an overlay over a base table holds the pairs of two
// of its own rules and routes every other pair to the base; a word of a
// row, own rule or not, reads each pair from the table that holds it;
// and only the view that extends every observable rule keeps its
// overlay on the base.
func TestOverlayCells(t *testing.T) {
	const n = 131
	rng := rand.New(rand.NewSource(2))
	set := verdictWorkload(t, 7, n).Set
	var own []*rules.Rule
	for _, r := range set.Rules() {
		if rng.Intn(3) == 0 {
			own = append(own, r)
		}
	}
	base := newVerdictTable(n)
	o := base.overlay(n, own, false)
	if base.obs != nil {
		t.Fatal("the base keeps the overlay of a view that extends some observable rules")
	}
	if kept := base.overlay(n, own, true); kept == o || base.overlay(n, own, true) != kept {
		t.Fatal("the base does not keep the overlay of the view that extends every observable rule")
	}
	want := map[[2]int]pairState{}
	for lo := 0; lo < n; lo++ {
		for hi := lo + 1; hi < n; hi++ {
			st := pairState(rng.Intn(3)) // unknown, commutes or may not
			want[[2]int{lo, hi}] = st
			if st != pairUnknown {
				o.cell(lo, hi).publish(lo, hi, st, nil)
			}
			if inOwn := o.own.Has(lo) && o.own.Has(hi); (o.cell(lo, hi) == o) != inOwn {
				t.Fatalf("pair (%d, %d) (both own: %v) routed to the wrong table", lo, hi, inOwn)
			}
		}
	}
	for r := 0; r < n; r++ {
		for w := 0; w < o.rowWords; w++ {
			known, mayNot := o.word(r, w)
			for b := 0; b < 64 && w<<6|b < n; b++ {
				c := w<<6 | b
				if c == r {
					continue
				}
				st := want[[2]int{min(r, c), max(r, c)}]
				if gotKnown, gotMayNot := known>>b&1 == 1, mayNot>>b&1 == 1; gotKnown != (st != pairUnknown) || gotMayNot != (st == pairMayNot) {
					t.Fatalf("row %d reads pair with %d as known %v, may not %v; published %d", r, c, gotKnown, gotMayNot, st)
				}
			}
		}
	}
}

// TestVerdictTableConcurrentPublish publishes every pair twice, one
// full sweep after the other, so that words are shared: the second
// sweep leaves the state as the first left it, and each refined pair is
// counted once.
func TestVerdictTableConcurrentPublish(t *testing.T) {
	const n = 40
	tab := newVerdictTable(n)
	state := func(lo, hi int) pairState { return pairState(1 + (lo+hi)%3) }
	refined := 0
	sweep := func() {
		for hi := 0; hi < n; hi++ {
			for lo := 0; lo < hi; lo++ {
				tab.publish(lo, hi, state(lo, hi), []NoncommuteReason{{Cond: hi}})
				if got := tab.load(lo, hi); got != wantLoad(state(lo, hi)) {
					t.Errorf("pair (%d, %d) = %d right after publishing %d", lo, hi, got, state(lo, hi))
				}
			}
		}
	}
	sweep()
	known, mayNot := append([]uint64(nil), tab.known...), append([]uint64(nil), tab.mayNot...)
	sweep()
	if !reflect.DeepEqual(known, tab.known) || !reflect.DeepEqual(mayNot, tab.mayNot) {
		t.Error("publishing every pair again changed the planes")
	}
	for hi := 0; hi < n; hi++ {
		for lo := 0; lo < hi; lo++ {
			if state(lo, hi) == pairRefined {
				refined++
			}
			if a, b := tab.load(lo, hi), tab.load(hi, lo); a != wantLoad(state(lo, hi)) || a != b {
				t.Fatalf("pair (%d, %d) reads %d and %d, want %d", lo, hi, a, b, state(lo, hi))
			}
		}
	}
	if got := tab.refined; got != refined {
		t.Errorf("refined count %d after two sweeps, want %d", got, refined)
	}
}

// TestCommuteComputedOncePerPair is the exact-once tripwire. Over a full
// sequential pass Lemma 6.1 is evaluated at most once for each pair with
// at most one observable rule, across the base view and the Obs view
// together — they share its cell — and at most once per view for each
// observable × observable pair. The table counts every shared
// evaluation, the Obs view's included, and a second pass evaluates
// nothing on either view. Views Lint derives keep cells of their own:
// at most once per pair and view.
func TestCommuteComputedOncePerPair(t *testing.T) {
	g := verdictWorkload(t, 1000003+128, 128)
	type cell struct {
		view   any // "base" or "obs" on a's two views, else the view
		lo, hi int
	}
	runs := map[cell]int{}
	a := New(g.Set, nil).SetRefinement(true)
	sharedByObs := 0
	a.computeHook = func(view *Analyzer, lo, hi *rules.Rule) {
		if lo.Index() >= hi.Index() {
			t.Errorf("pair (%s, %s) not in definition order", lo.Name, hi.Name)
		}
		c := cell{view, lo.Index(), hi.Index()}
		obsView := view != a && view.verdicts != nil && view.verdicts.base == a.verdicts
		switch {
		case (view == a || obsView) && !(lo.Observable() && hi.Observable()):
			c.view = "shared"
			if obsView {
				sharedByObs++
			}
		case view == a:
			c.view = "base"
		case obsView:
			c.view = "obs"
		}
		runs[c]++
	}
	count := func() (shared, base, obs int) {
		for c, k := range runs {
			if k != 1 {
				t.Errorf("pair (%d, %d) evaluated %d times on view %v", c.lo, c.hi, k, c.view)
			}
			switch c.view {
			case "shared":
				shared++
			case "base":
				base++
			case "obs":
				obs++
			}
		}
		return shared, base, obs
	}

	fullPass(a, g)
	shared, base, obs := count()
	if sharedByObs == 0 || obs == 0 {
		t.Fatalf("the Obs view evaluated %d shared and %d observable × observable pairs: the pass should examine both", sharedByObs, obs)
	}
	if st := a.PairTable(); st.Examined != shared+base || st.Total != g.Set.Len()*(g.Set.Len()-1)/2 {
		t.Errorf("table reports %+v after %d shared and %d base-only evaluations", st, shared, base)
	}
	fullPass(a, g)
	if s2, b2, o2 := count(); s2 != shared || b2 != base || o2 != obs {
		t.Errorf("second pass evaluated %d shared, %d base and %d Obs-view pairs more", s2-shared, b2-base, o2-obs)
	}
}

// TestDerivedAnalyzersReachComputeHook: every analyzer derived from
// another — Lint's refined and raw copies as well as the Obs views —
// is a copy of it, so the tripwire counts the pairs they evaluate too.
func TestDerivedAnalyzersReachComputeHook(t *testing.T) {
	g := verdictWorkload(t, 1000003+40, 40)
	a := New(g.Set, nil)
	seen := map[*Analyzer]int{}
	a.computeHook = func(view *Analyzer, _, _ *rules.Rule) { seen[view]++ }
	refined := a.withRefinement()
	raw := refined.derive(refined.view, nil)
	for _, d := range []*Analyzer{refined, raw} {
		if d == a {
			t.Fatal("an analyzer without refinement was not copied for Lint")
		}
		d.CommutativityMatrix()
		if seen[d] == 0 {
			t.Errorf("Lint's derived analyzer (refine %v) evaluated pairs unseen by computeHook", d.Refined())
		}
	}
}

// TestVerdictTableMatchesLemma is the differential battery for the
// table, refinement on and off: what Commute answers from it equals a
// fresh evaluation of every pair; two analyzers agree on reports,
// verdicts, reasons and, once every pair is examined, upgrades; and
// switching refinement resets the table.
func TestVerdictTableMatchesLemma(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		g := verdictWorkload(t, seed, 40)
		for _, refine := range []bool{false, true} {
			seq := New(g.Set, nil).SetRefinement(refine)
			again := New(g.Set, nil).SetRefinement(refine)
			if fullPass(seq, g) != fullPass(again, g) {
				t.Errorf("seed %d refine %v: reports of two analyzers differ", seed, refine)
			}

			got := allVerdicts(seq)
			fresh := New(g.Set, nil).SetRefinement(refine)
			rs, k := g.Set.Rules(), 0
			for i, hi := range rs {
				for _, lo := range rs[:i] {
					st, reasons := fresh.commuteUncached(lo, hi)
					if got[k].ok != (st != pairMayNot) || len(got[k].reasons) != len(reasons) ||
						(len(reasons) > 0 && !reflect.DeepEqual(got[k].reasons, reasons)) {
						t.Fatalf("seed %d refine %v: table says (%v, %v) for (%s, %s), Lemma 6.1 says (state %d, %v)",
							seed, refine, got[k].ok, got[k].reasons, lo.Name, hi.Name, st, reasons)
					}
					k++
				}
			}
			if !reflect.DeepEqual(got, allVerdicts(again)) {
				t.Errorf("seed %d refine %v: verdicts of two analyzers differ", seed, refine)
			}
			if !reflect.DeepEqual(seq.Upgrades(), again.Upgrades()) {
				t.Errorf("seed %d refine %v: upgrades of two analyzers differ", seed, refine)
			}
			// fresh evaluated every pair on the base view only, so its
			// upgrade log is exactly the base view's refined cells.
			if st := seq.PairTable(); st.Examined != st.Total || st.RefinedToCommute != len(fresh.Upgrades()) {
				t.Errorf("seed %d refine %v: table %+v, Lemma 6.1 upgrades %d pairs", seed, refine, st, len(fresh.Upgrades()))
			}
		}

		// on -> off -> on: each setting answers like an analyzer that
		// never had another.
		a := New(g.Set, nil)
		for _, refine := range []bool{true, false, true} {
			a.SetRefinement(refine)
			if st := a.PairTable(); st.Examined != 0 {
				t.Fatalf("seed %d: %d cells survived SetRefinement(%v)", seed, st.Examined, refine)
			}
			want := New(g.Set, nil).SetRefinement(refine)
			if !reflect.DeepEqual(allVerdicts(a), allVerdicts(want)) ||
				!reflect.DeepEqual(a.Upgrades(), want.Upgrades()) {
				t.Errorf("seed %d: after switching refinement to %v the analyzer differs from a fresh one", seed, refine)
			}
		}
	}
}

// TestViewsDoNotShareCells: two observable rules on unrelated tables
// commute, but under the Obs extension both write and read the fictional
// table and may not. The observable analysis must reach its verdict on
// its own cells and leave the base view's untouched.
func TestViewsDoNotShareCells(t *testing.T) {
	a := compile(t, `
table s (v int)
table t (v int)
`, `
create rule show_s on s when inserted then select v from s

create rule show_t on t when inserted then select v from t
`, nil)
	ov := a.ObservableDeterminism()
	if ov.Guaranteed() || len(ov.Violations()) != 1 {
		t.Fatalf("unordered observable rules must be flagged: %+v", ov.Violations())
	}
	if st := a.PairTable(); st.Examined != 0 {
		t.Fatalf("the observable analysis filled %d cells of the base view", st.Examined)
	}
	rs := a.set.Rules()
	if ok, reasons := a.Commute(rs[0], rs[1]); !ok {
		t.Errorf("base view: rules on unrelated tables may not commute: %v", reasons)
	}
	if ov := a.ObservableDeterminism(); ov.Guaranteed() {
		t.Error("the base view's verdict leaked into the Obs view")
	}
}
