package analysis

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
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

// TestVerdictTableCells exercises the packed cells directly: every
// state round-trips at every position of a word, neighbours are left
// alone, and the dense part stays within a quarter byte per pair of
// rules squared at the size the memory bound is stated for.
func TestVerdictTableCells(t *testing.T) {
	const n = 67 // 2211 pairs: the last word is partly used
	tab := newVerdictTable(n)
	want := make([]pairState, tab.pairs)
	rng := rand.New(rand.NewSource(1))
	for _, k := range rng.Perm(tab.pairs) {
		want[k] = pairState(1 + rng.Intn(3))
		var reasons []NoncommuteReason
		if want[k] == pairMayNot {
			reasons = []NoncommuteReason{{Cond: k}}
		}
		tab.publish(k, want[k], reasons)
		tab.publish(k, want[k], reasons) // a racing publisher's second write
	}
	for k, st := range want {
		if got := tab.load(k); got != st {
			t.Fatalf("cell %d = %d, want %d", k, got, st)
		}
		if rs := tab.reasonsOf(k); (st == pairMayNot) != (len(rs) == 1 && rs[0].Cond == k) {
			t.Fatalf("cell %d in state %d has reasons %v", k, st, rs)
		}
	}
	if last := pairIndex(n-2, n-1); last != tab.pairs-1 {
		t.Fatalf("last pair has index %d of %d", last, tab.pairs)
	}

	const big = 10002
	if got, bound := len(newVerdictTable(big).words)*4, big*big/4; got > bound {
		t.Errorf("table for %d rules takes %d bytes, bound %d", big, got, bound)
	}
}

// TestVerdictTableConcurrentPublish has several goroutines publish the
// cells of shared words at once (run under -race).
func TestVerdictTableConcurrentPublish(t *testing.T) {
	tab := newVerdictTable(40)
	state := func(k int) pairState { return pairState(1 + k%3) }
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w % 2; k < tab.pairs; k += 2 { // two publishers per cell
				tab.publish(k, state(k), []NoncommuteReason{{Cond: k}})
				if got := tab.load(k); got != state(k) {
					t.Errorf("cell %d = %d right after publishing %d", k, got, state(k))
				}
			}
		}(w)
	}
	wg.Wait()
	for k := 0; k < tab.pairs; k++ {
		if got := tab.load(k); got != state(k) {
			t.Fatalf("cell %d = %d, want %d", k, got, state(k))
		}
	}
}

// TestCommuteComputedOncePerPair is the exact-once tripwire: over a full
// sequential pass Lemma 6.1 is evaluated at most once per unordered pair
// and view, and a second pass evaluates nothing on the analyzer's own
// view (the Obs views are derived afresh by each observable analysis).
func TestCommuteComputedOncePerPair(t *testing.T) {
	g := verdictWorkload(t, 1000003+128, 128)
	type cell struct {
		view   *Analyzer
		lo, hi int
	}
	runs := map[cell]int{}
	a := New(g.Set, nil).SetRefinement(true)
	a.computeHook = func(view *Analyzer, lo, hi *rules.Rule) {
		if lo.Index() >= hi.Index() {
			t.Errorf("pair (%s, %s) not in definition order", lo.Name, hi.Name)
		}
		runs[cell{view, lo.Index(), hi.Index()}]++
	}
	own := func() (n int) {
		for c, k := range runs {
			if k != 1 {
				t.Errorf("pair (%d, %d) evaluated %d times on one view", c.lo, c.hi, k)
			}
			if c.view == a {
				n++
			}
		}
		return n
	}

	fullPass(a, g)
	first := own()
	if first == 0 || len(runs) == first {
		t.Fatalf("%d evaluations, %d on the base view: the pass should examine pairs on both views", len(runs), first)
	}
	if st := a.PairTable(); st.Examined != first || st.Total != g.Set.Len()*(g.Set.Len()-1)/2 {
		t.Errorf("table reports %+v after %d evaluations", st, first)
	}
	fullPass(a, g)
	if second := own(); second != first {
		t.Errorf("second pass evaluated %d more pairs on the base view", second-first)
	}
}

// TestVerdictTableMatchesLemma is the differential battery for the
// table, refinement on and off: what Commute answers from it equals a
// fresh evaluation of every pair; a sequential and a parallel analyzer
// agree on reports, verdicts, reasons and, once every pair is examined,
// upgrades; and switching refinement resets the table.
func TestVerdictTableMatchesLemma(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		g := verdictWorkload(t, seed, 40)
		for _, refine := range []bool{false, true} {
			seq := New(g.Set, nil).SetRefinement(refine)
			par := New(g.Set, nil).SetRefinement(refine).SetParallelism(4)
			seqReport, parReport := fullPass(seq, g), fullPass(par, g)
			if seqReport != parReport {
				t.Errorf("seed %d refine %v: reports differ between parallelism 1 and 4", seed, refine)
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
			if !reflect.DeepEqual(got, allVerdicts(par)) {
				t.Errorf("seed %d refine %v: verdicts differ between parallelism 1 and 4", seed, refine)
			}
			if !reflect.DeepEqual(seq.Upgrades(), par.Upgrades()) {
				t.Errorf("seed %d refine %v: upgrades differ between parallelism 1 and 4", seed, refine)
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
