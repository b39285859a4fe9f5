package rules_test

// The priority closure as it was computed before the relation became bit
// rows — Floyd–Warshall over an n × n [][]bool — kept verbatim as the
// oracle for Set.Higher and for which rule a priority cycle is reported
// on, through both constructors (NewSet and WithOrdering share one
// closing function; the oracle is what they are each held to).

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"activerules/internal/ruledef"
	"activerules/internal/rules"
	"activerules/internal/schema"
	"activerules/internal/workload"
)

// closureOracle closes the direct orderings (higher, lower) over n rules
// and returns the matrix and the index of the first rule ordered above
// itself, or -1.
func closureOracle(n int, edges [][2]int) (higher [][]bool, cycle int) {
	higher = make([][]bool, n)
	for i := range higher {
		higher[i] = make([]bool, n)
	}
	for _, e := range edges {
		higher[e[0]][e[1]] = true
	}
	// Transitive closure (Floyd–Warshall on the boolean matrix).
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if !higher[i][k] {
				continue
			}
			for j := 0; j < n; j++ {
				if higher[k][j] {
					higher[i][j] = true
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		if higher[i][i] {
			return higher, i
		}
	}
	return higher, -1
}

type closureCase struct {
	name string
	sch  *schema.Schema
	defs []rules.Definition
}

// closureCorpus is 24 generated sets at priority densities 0.1 and 0.5
// and the seven shipped systems.
func closureCorpus(t *testing.T) []closureCase {
	t.Helper()
	var out []closureCase
	for _, prio := range []float64{0.1, 0.5} {
		for seed := int64(1); seed <= 12; seed++ {
			g, err := workload.Generate(workload.Config{
				Seed: seed, Rules: 20 + int(seed)*7, Acyclic: true, WriteFanout: 2,
				UpdateFrac: 0.3, DeleteFrac: 0.2, PriorityDensity: prio,
				CyclicShapes: []string{"countdown", "drain", "converge"},
			})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, closureCase{fmt.Sprintf("gen/seed=%d/prio=%.1f", seed, prio), g.Schema, g.Defs})
		}
	}
	for _, name := range []string{"bank", "converge", "countdown", "drain", "flipflop", "lintdemo", "powernet"} {
		schemaSrc, err := os.ReadFile("../../testdata/" + name + "/schema.sdl")
		if err != nil {
			t.Fatal(err)
		}
		rulesSrc, err := os.ReadFile("../../testdata/" + name + "/rules.srl")
		if err != nil {
			t.Fatal(err)
		}
		defs, err := ruledef.Parse(string(rulesSrc))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, closureCase{name, schema.MustParse(string(schemaSrc)), defs})
	}
	return out
}

// directEdges lists the (higher, lower) index pairs the definitions'
// precedes and follows clauses state.
func directEdges(t *testing.T, defs []rules.Definition) [][2]int {
	t.Helper()
	index := map[string]int{}
	for i, d := range defs {
		index[strings.ToLower(d.Name)] = i
	}
	at := func(name string) int {
		i, ok := index[strings.ToLower(strings.TrimSpace(name))]
		if !ok {
			t.Fatalf("definitions order against unknown rule %q", name)
		}
		return i
	}
	var edges [][2]int
	for i, d := range defs {
		for _, p := range d.Precedes {
			edges = append(edges, [2]int{i, at(p)})
		}
		for _, f := range d.Follows {
			edges = append(edges, [2]int{at(f), i})
		}
	}
	return edges
}

func checkHigher(t *testing.T, what string, set *rules.Set, want [][]bool) {
	t.Helper()
	for i, ri := range set.Rules() {
		for j, rj := range set.Rules() {
			if got := set.Higher(ri, rj); got != want[i][j] {
				t.Fatalf("%s: Higher(%s, %s) = %v, Floyd–Warshall says %v", what, ri.Name, rj.Name, got, want[i][j])
			}
			if set.HigherRow(ri).Has(j) != want[i][j] {
				t.Fatalf("%s: HigherRow(%s) disagrees with Higher about %s", what, ri.Name, rj.Name)
			}
		}
	}
}

// TestPriorityClosureMatchesOracle: equal Higher for every ordered pair,
// whether the orderings arrive through NewSet or half of them through
// WithOrdering; and when an ordering is added that closes a cycle, both
// constructors name the rule the oracle names.
func TestPriorityClosureMatchesOracle(t *testing.T) {
	ordered, cycles := 0, 0
	for _, c := range closureCorpus(t) {
		n := len(c.defs)
		edges := directEdges(t, c.defs)
		want, cycle := closureOracle(n, edges)
		if cycle >= 0 {
			t.Fatalf("%s: corpus set has a priority cycle", c.name)
		}
		set, err := rules.NewSet(c.sch, c.defs)
		if err != nil {
			t.Fatal(err)
		}
		checkHigher(t, c.name+" NewSet", set, want)

		// The orderings the second half of the definitions state, added
		// afterwards.
		base := append([]rules.Definition(nil), c.defs...)
		var later [][2]string
		for i := n / 2; i < n; i++ {
			for _, p := range base[i].Precedes {
				later = append(later, [2]string{base[i].Name, p})
			}
			for _, f := range base[i].Follows {
				later = append(later, [2]string{f, base[i].Name})
			}
			base[i].Precedes, base[i].Follows = nil, nil
		}
		baseSet, err := rules.NewSet(c.sch, base)
		if err != nil {
			t.Fatal(err)
		}
		grown, err := baseSet.WithOrdering(later...)
		if err != nil {
			t.Fatal(err)
		}
		checkHigher(t, c.name+" WithOrdering", grown, want)
		baseWant, _ := closureOracle(n, directEdges(t, base))
		checkHigher(t, c.name+" WithOrdering's receiver", baseSet, baseWant)

		// Close a cycle: order the lower rule of the first and of the last
		// closure pair back above the higher one.
		var pairs [][2]int
		for i := range want {
			for j := range want[i] {
				if want[i][j] {
					pairs = append(pairs, [2]int{i, j})
				}
			}
		}
		ordered += len(pairs)
		if len(pairs) == 0 {
			continue
		}
		for _, p := range [][2]int{pairs[0], pairs[len(pairs)-1]} {
			hi, lo := p[0], p[1]
			_, cycle := closureOracle(n, append(edges[:len(edges):len(edges)], [2]int{lo, hi}))
			culprit := fmt.Sprintf("priority cycle involving rule %q", strings.ToLower(c.defs[cycle].Name))

			cyclic := append([]rules.Definition(nil), c.defs...)
			cyclic[lo].Precedes = append(cyclic[lo].Precedes[:len(cyclic[lo].Precedes):len(cyclic[lo].Precedes)], c.defs[hi].Name)
			if _, err := rules.NewSet(c.sch, cyclic); err == nil || err.Error() != "rules: "+culprit {
				t.Fatalf("%s: NewSet with %s above %s: error %v, want %s", c.name, c.defs[lo].Name, c.defs[hi].Name, err, culprit)
			}
			if _, err := set.WithOrdering([2]string{c.defs[lo].Name, c.defs[hi].Name}); err == nil || err.Error() != "rules: WithOrdering: "+culprit {
				t.Fatalf("%s: WithOrdering %s above %s: error %v, want %s", c.name, c.defs[lo].Name, c.defs[hi].Name, err, culprit)
			}
			cycles++
		}
	}
	if ordered < 1000 || cycles < 40 {
		t.Errorf("corpus ordered %d pairs and closed %d cycles: too thin to pin the closure", ordered, cycles)
	}
}

// TestBits: membership, and intersection a word at a time.
func TestBits(t *testing.T) {
	a, b := rules.NewBits(130), rules.NewBits(130)
	if len(a) != 3 || len(rules.NewBits(128)) != 2 || len(rules.NewBits(0)) != 0 {
		t.Fatalf("NewBits(130) has %d words, NewBits(128) %d", len(a), len(rules.NewBits(128)))
	}
	for _, i := range []int{0, 63, 64, 129} {
		a.Add(i)
		if !a.Has(i) || a.Has(i+1-2*(i%2)) {
			t.Fatalf("after Add(%d): Has(%d) = %v, neighbour %v", i, i, a.Has(i), a.Has(i+1-2*(i%2)))
		}
		if a.Intersects(b) {
			t.Fatalf("row with %d intersects an empty row", i)
		}
	}
	b.Add(128)
	if a.Intersects(b) {
		t.Error("{0,63,64,129} intersects {128}")
	}
	b.Add(129)
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("{0,63,64,129} does not intersect {128,129}")
	}
}
