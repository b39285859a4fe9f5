package rules_test

import (
	"math/rand"
	"slices"
	"testing"

	"activerules/internal/rules"
	"activerules/internal/workload"
)

// chooseByPairs is the Section 3 definition Choose is held to: the
// triggered rules, in their order, that no other triggered rule has
// precedence over, asked one pair at a time.
func chooseByPairs(s *rules.Set, triggered []*rules.Rule) []*rules.Rule {
	var out []*rules.Rule
	for _, ri := range triggered {
		eligible := true
		for _, rj := range triggered {
			if rj != ri && s.Higher(rj, ri) {
				eligible = false
				break
			}
		}
		if eligible {
			out = append(out, ri)
		}
	}
	return out
}

// TestChooseMatchesPairwise holds Choose's OR of priority rows to the
// pairwise definition over generated sets with priorities, one of them
// over 128 rules so a row spans three words, and random triggered
// subsets in random order, sparse and dense. The scratch row is reused
// from call to call, so a row Choose did not clear would show; nil
// scratch is checked too.
func TestChooseMatchesPairwise(t *testing.T) {
	for _, n := range []int{5, 40, 64, 65, 130} {
		g := workload.MustGenerate(workload.Config{Seed: int64(n), Rules: n, PriorityDensity: 0.3})
		s := g.Set
		rng := rand.New(rand.NewSource(int64(n) * 31))
		above := rules.NewBits(s.Len())
		var dst []*rules.Rule
		for trial := 0; trial < 400; trial++ {
			var triggered []*rules.Rule
			keep := rng.Float64()
			for _, r := range s.Rules() {
				if rng.Float64() < keep*keep {
					triggered = append(triggered, r)
				}
			}
			rng.Shuffle(len(triggered), func(i, j int) { triggered[i], triggered[j] = triggered[j], triggered[i] })
			want := chooseByPairs(s, triggered)
			dst = s.Choose(dst[:0], triggered, above)
			if !slices.Equal(dst, want) {
				t.Fatalf("rules=%d trial %d: Choose(%v) = %v, want %v", n, trial,
					rules.Names(triggered), rules.Names(dst), rules.Names(want))
			}
			if got := s.Choose(nil, triggered, nil); !slices.Equal(got, want) {
				t.Fatalf("rules=%d trial %d: Choose with nil scratch = %v, want %v", n, trial,
					rules.Names(got), rules.Names(want))
			}
		}
	}
}
