// Package absint implements a small abstract interpretation over the
// sqlmini expression language: a per-column abstract value domain
// (null / numeric interval / finite string set / boolean), necessary
// row constraints extracted from predicates, and per-statement effect
// summaries for rule actions.
//
// The analyses of Sections 5–8 are computed from syntactic read/write
// sets and are therefore deliberately conservative. The abstractions in
// this package let internal/analysis discharge some of the resulting
// false positives semantically: a triggering edge ri -> rj can be
// pruned when rj's condition is unsatisfiable on every row ri's action
// can produce, and a Lemma 6.1 noncommutativity verdict can be upgraded
// to "commutes" when the two rules' predicates are provably disjoint on
// the contested columns.
//
// Everything here is a Galois-style over-approximation: an Abs value
// describes a SET of possible storage.Values, and every operation
// (Join, Meet, EvalExpr, the constraint extractors) is monotone and
// errs toward Top. Consequently a client may conclude "impossible" only
// from a Bottom meet — never "possible" — which is exactly the
// direction refinement soundness requires (see DESIGN.md, "Refinement
// soundness").
package absint

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"activerules/internal/storage"
)

// maxStrSet bounds the size of a finite string set before it widens to
// "any string".
const maxStrSet = 8

// Abs is an abstract value: a set of possible storage.Values described
// as the union of a null component, a numeric interval (ints and floats
// compare numerically, so one interval covers both kinds), a string
// component (a finite set or "any string"), and a boolean component.
// The zero value is Bottom (no value possible).
type Abs struct {
	mayNull bool

	// Numeric component: when mayNum, any number in the interval
	// [lo, hi], with loOpen/hiOpen marking strict bounds. ±Inf encode
	// unbounded ends.
	mayNum         bool
	lo, hi         float64
	loOpen, hiOpen bool

	// String component: when mayStr, any string when strs is nil, else
	// exactly the (sorted, non-empty) finite set strs.
	mayStr bool
	strs   []string

	// Boolean component.
	mayTrue, mayFalse bool
}

// Bottom is the empty abstract value: no concrete value is possible.
func Bottom() Abs { return Abs{} }

// Top describes every possible value (including null).
func Top() Abs {
	return Abs{
		mayNull: true,
		mayNum:  true, lo: math.Inf(-1), hi: math.Inf(1),
		mayStr:  true,
		mayTrue: true, mayFalse: true,
	}
}

// NonNull describes every possible value except null.
func NonNull() Abs {
	a := Top()
	a.mayNull = false
	return a
}

// NullOnly describes exactly the SQL null value.
func NullOnly() Abs { return Abs{mayNull: true} }

// NumRange describes the numeric interval [lo, hi] (open ends per the
// flags), excluding null and every non-numeric kind.
func NumRange(lo, hi float64, loOpen, hiOpen bool) Abs {
	a := Abs{mayNum: true, lo: lo, hi: hi, loOpen: loOpen, hiOpen: hiOpen}
	return a.normalize()
}

// FromValue abstracts one concrete value exactly.
func FromValue(v storage.Value) Abs {
	switch v.Kind {
	case storage.KindNull:
		return NullOnly()
	case storage.KindInt:
		f := float64(v.I)
		return Abs{mayNum: true, lo: f, hi: f}
	case storage.KindFloat:
		if math.IsNaN(v.F) {
			// NaN compares false against everything; treat it as an
			// unconstrained number so no disjointness is concluded.
			return Abs{mayNum: true, lo: math.Inf(-1), hi: math.Inf(1)}
		}
		return Abs{mayNum: true, lo: v.F, hi: v.F}
	case storage.KindString:
		return Abs{mayStr: true, strs: []string{v.S}}
	case storage.KindBool:
		if v.B {
			return Abs{mayTrue: true}
		}
		return Abs{mayFalse: true}
	default:
		return Top()
	}
}

// normalize collapses empty components so IsBottom is a simple test.
func (a Abs) normalize() Abs {
	if a.mayNum {
		if a.lo > a.hi || (a.lo == a.hi && (a.loOpen || a.hiOpen)) ||
			math.IsNaN(a.lo) || math.IsNaN(a.hi) {
			a.mayNum = false
		}
	}
	if !a.mayNum {
		a.lo, a.hi, a.loOpen, a.hiOpen = 0, 0, false, false
	}
	if a.mayStr && a.strs != nil && len(a.strs) == 0 {
		a.mayStr = false
	}
	if !a.mayStr {
		a.strs = nil
	}
	return a
}

// IsBottom reports whether no concrete value is possible.
func (a Abs) IsBottom() bool {
	a = a.normalize()
	return !a.mayNull && !a.mayNum && !a.mayStr && !a.mayTrue && !a.mayFalse
}

// IsTop reports whether the value is completely unconstrained.
func (a Abs) IsTop() bool {
	a = a.normalize()
	return a.mayNull && a.mayNum && math.IsInf(a.lo, -1) && math.IsInf(a.hi, 1) &&
		!a.loOpen && !a.hiOpen && a.mayStr && a.strs == nil && a.mayTrue && a.mayFalse
}

// MayBeNull reports whether null is among the possible values.
func (a Abs) MayBeNull() bool { return a.mayNull }

// WithoutNull removes null from the possible values.
func (a Abs) WithoutNull() Abs {
	a.mayNull = false
	return a.normalize()
}

// Join returns the least upper bound: a value possible under either
// operand is possible under the result.
func (a Abs) Join(b Abs) Abs {
	a, b = a.normalize(), b.normalize()
	out := Abs{mayNull: a.mayNull || b.mayNull, mayTrue: a.mayTrue || b.mayTrue, mayFalse: a.mayFalse || b.mayFalse}
	switch {
	case a.mayNum && b.mayNum:
		out.mayNum = true
		out.lo, out.loOpen = a.lo, a.loOpen
		if b.lo < out.lo || (b.lo == out.lo && !b.loOpen) {
			out.lo, out.loOpen = b.lo, b.loOpen && a.loOpen
			if b.lo < a.lo {
				out.loOpen = b.loOpen
			}
		}
		out.hi, out.hiOpen = a.hi, a.hiOpen
		if b.hi > out.hi || (b.hi == out.hi && !b.hiOpen) {
			out.hiOpen = b.hiOpen && a.hiOpen
			if b.hi > a.hi {
				out.hiOpen = b.hiOpen
			}
			out.hi = b.hi
		}
	case a.mayNum:
		out.mayNum, out.lo, out.hi, out.loOpen, out.hiOpen = true, a.lo, a.hi, a.loOpen, a.hiOpen
	case b.mayNum:
		out.mayNum, out.lo, out.hi, out.loOpen, out.hiOpen = true, b.lo, b.hi, b.loOpen, b.hiOpen
	}
	switch {
	case a.mayStr && b.mayStr:
		out.mayStr = true
		if a.strs == nil || b.strs == nil {
			out.strs = nil
		} else {
			set := map[string]bool{}
			for _, s := range a.strs {
				set[s] = true
			}
			for _, s := range b.strs {
				set[s] = true
			}
			if len(set) > maxStrSet {
				out.strs = nil // widen
			} else {
				out.strs = sortedKeys(set)
			}
		}
	case a.mayStr:
		out.mayStr, out.strs = true, a.strs
	case b.mayStr:
		out.mayStr, out.strs = true, b.strs
	}
	return out.normalize()
}

// Meet returns the greatest lower bound: only values possible under
// BOTH operands are possible under the result. A Bottom meet is the
// only licence to conclude impossibility.
func (a Abs) Meet(b Abs) Abs {
	a, b = a.normalize(), b.normalize()
	out := Abs{mayNull: a.mayNull && b.mayNull, mayTrue: a.mayTrue && b.mayTrue, mayFalse: a.mayFalse && b.mayFalse}
	if a.mayNum && b.mayNum {
		out.mayNum = true
		out.lo, out.loOpen = a.lo, a.loOpen
		if b.lo > out.lo || (b.lo == out.lo && b.loOpen) {
			out.lo, out.loOpen = b.lo, b.loOpen || (b.lo == a.lo && a.loOpen)
		}
		out.hi, out.hiOpen = a.hi, a.hiOpen
		if b.hi < out.hi || (b.hi == out.hi && b.hiOpen) {
			out.hiOpen = b.hiOpen || (b.hi == a.hi && a.hiOpen)
			out.hi = b.hi
		}
	}
	if a.mayStr && b.mayStr {
		out.mayStr = true
		switch {
		case a.strs == nil:
			out.strs = b.strs
		case b.strs == nil:
			out.strs = a.strs
		default:
			set := map[string]bool{}
			for _, s := range a.strs {
				set[s] = true
			}
			var inter []string
			for _, s := range b.strs {
				if set[s] {
					inter = append(inter, s)
				}
			}
			if inter == nil {
				inter = []string{}
			}
			out.strs = inter
		}
	}
	return out.normalize()
}

// Disjoint reports that the two abstract values share no concrete
// value. (Meet == Bottom.)
func (a Abs) Disjoint(b Abs) bool { return a.Meet(b).IsBottom() }

// String renders the abstraction for justifications and reports, e.g.
// "{100}", "(-inf,50)", "'a'|'b'", "null|[0,10]", "any", "none".
func (a Abs) String() string {
	a = a.normalize()
	if a.IsTop() {
		return "any"
	}
	var parts []string
	if a.mayNull {
		parts = append(parts, "null")
	}
	if a.mayNum {
		if a.lo == a.hi {
			parts = append(parts, "{"+FormatNum(a.lo)+"}")
		} else {
			open, clos := "[", "]"
			if a.loOpen || math.IsInf(a.lo, -1) {
				open = "("
			}
			if a.hiOpen || math.IsInf(a.hi, 1) {
				clos = ")"
			}
			parts = append(parts, open+FormatNum(a.lo)+","+FormatNum(a.hi)+clos)
		}
	}
	if a.mayStr {
		if a.strs == nil {
			parts = append(parts, "string")
		} else {
			quoted := make([]string, len(a.strs))
			for i, s := range a.strs {
				quoted[i] = "'" + s + "'"
			}
			parts = append(parts, strings.Join(quoted, "|"))
		}
	}
	switch {
	case a.mayTrue && a.mayFalse:
		parts = append(parts, "bool")
	case a.mayTrue:
		parts = append(parts, "true")
	case a.mayFalse:
		parts = append(parts, "false")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// FormatNum renders a bound for report text: infinities as inf and
// -inf, integral values without a decimal point, anything else in
// shortest 'g' form.
func FormatNum(f float64) string {
	switch {
	case math.IsInf(f, -1):
		return "-inf"
	case math.IsInf(f, 1):
		return "inf"
	case f == math.Trunc(f) && math.Abs(f) < 1e15:
		return strconv.FormatInt(int64(f), 10)
	default:
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
