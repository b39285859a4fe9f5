package engine

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"activerules/internal/rules"
)

// Strategy picks which eligible rule to consider next when several
// unordered rules are simultaneously eligible — the source of the
// nondeterminism that confluence analysis (Section 6) reasons about.
type Strategy interface {
	// Pick selects one rule from eligible, which is non-empty and the
	// engine's to reuse: a strategy reads it and does not keep it.
	Pick(eligible []*rules.Rule) *rules.Rule
}

// ParseStrategy reads a -strategy flag value: first | last |
// random:<seed>.
func ParseStrategy(s string) (Strategy, error) {
	switch {
	case s == "first":
		return FirstByName{}, nil
	case s == "last":
		return LastByName{}, nil
	case strings.HasPrefix(s, "random:"):
		seed, err := strconv.ParseInt(strings.TrimPrefix(s, "random:"), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad random seed in %q", s)
		}
		return NewSeeded(seed), nil
	default:
		return nil, fmt.Errorf("unknown strategy %q", s)
	}
}

// FirstByName deterministically picks the lexicographically smallest rule
// name. It is the engine default, making runs reproducible.
type FirstByName struct{}

// Pick returns the rule with the smallest name.
func (FirstByName) Pick(eligible []*rules.Rule) *rules.Rule {
	best := eligible[0]
	for _, r := range eligible[1:] {
		if r.Name < best.Name {
			best = r
		}
	}
	return best
}

// LastByName deterministically picks the lexicographically largest rule
// name — a second deterministic order, useful for exhibiting
// non-confluence with two runs.
type LastByName struct{}

// Pick returns the rule with the largest name.
func (LastByName) Pick(eligible []*rules.Rule) *rules.Rule {
	best := eligible[0]
	for _, r := range eligible[1:] {
		if r.Name > best.Name {
			best = r
		}
	}
	return best
}

// Seeded picks uniformly at random with a private generator, modeling an
// arbitrary scheduler while staying reproducible for a fixed seed.
type Seeded struct{ rng *rand.Rand }

// NewSeeded returns a Seeded strategy with the given seed.
func NewSeeded(seed int64) *Seeded {
	return &Seeded{rng: rand.New(rand.NewSource(seed))}
}

// Pick returns a uniformly random eligible rule.
func (s *Seeded) Pick(eligible []*rules.Rule) *rules.Rule {
	return eligible[s.rng.Intn(len(eligible))]
}

// Scripted replays a fixed sequence of choices (by index into the
// eligible slice); once the script is exhausted it falls back to
// FirstByName. The model checker uses engine forking instead, but
// Scripted is convenient for directed tests reproducing a specific
// interleaving.
type Scripted struct {
	Choices []int
	pos     int
}

// Pick returns the scripted choice, clamped to the eligible slice.
func (s *Scripted) Pick(eligible []*rules.Rule) *rules.Rule {
	if s.pos >= len(s.Choices) {
		return FirstByName{}.Pick(eligible)
	}
	i := s.Choices[s.pos]
	s.pos++
	if i < 0 || i >= len(eligible) {
		i = 0
	}
	return eligible[i]
}
