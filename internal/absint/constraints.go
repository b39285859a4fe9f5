package absint

import (
	"math"
	"sort"

	"activerules/internal/sqlmini"
	"activerules/internal/storage"
)

// Constraints maps column names of a single row source to the abstract
// values the row must satisfy. An absent column is unconstrained (Top).
type Constraints map[string]Abs

// Get returns the constraint for col, Top when unconstrained.
func (c Constraints) Get(col string) Abs {
	if a, ok := c[col]; ok {
		return a
	}
	return Top()
}

// HasBottom reports whether any column's constraint is empty — i.e. no
// row can satisfy the constraints.
func (c Constraints) HasBottom() bool {
	for _, a := range c {
		if a.IsBottom() {
			return true
		}
	}
	return false
}

// SortedCols returns the constrained column names in sorted order, for
// deterministic iteration in justifications.
func (c Constraints) SortedCols() []string {
	out := make([]string, 0, len(c))
	for k := range c {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Env binds resolved source names (sqlmini ColRef.RSource) to column
// constraints, used when abstractly evaluating expressions. A source or
// column absent from the env evaluates to Top.
type Env map[string]Constraints

// EvalExpr abstractly evaluates an expression: the result describes a
// superset of the values the expression can take under any row binding
// consistent with env. Evaluation errors at runtime produce no row, so
// they need not be modeled — only successfully produced values must be
// covered.
func EvalExpr(e sqlmini.Expr, env Env) Abs {
	switch x := e.(type) {
	case *sqlmini.Literal:
		return FromValue(x.Val)
	case *sqlmini.ColRef:
		if cons, ok := env[x.RSource]; ok {
			return cons.Get(x.Column)
		}
		return Top()
	case *sqlmini.Unary:
		v := EvalExpr(x.X, env)
		switch x.Op {
		case sqlmini.UnaryNeg:
			out := Abs{mayNull: v.mayNull}
			if v.mayNum {
				out.mayNum = true
				out.lo, out.loOpen = -v.hi, v.hiOpen
				out.hi, out.hiOpen = -v.lo, v.loOpen
			}
			return out.normalize()
		case sqlmini.UnaryNot:
			return Abs{mayNull: v.mayNull, mayTrue: v.mayFalse, mayFalse: v.mayTrue}.normalize()
		}
		return Top()
	case *sqlmini.Binary:
		l, r := EvalExpr(x.L, env), EvalExpr(x.R, env)
		mayNull := l.mayNull || r.mayNull
		switch x.Op {
		case sqlmini.OpAdd, sqlmini.OpSub:
			out := Abs{mayNull: mayNull}
			if l.mayNum && r.mayNum {
				out.mayNum = true
				if x.Op == sqlmini.OpAdd {
					out.lo, out.loOpen = addBound(l.lo, r.lo, -1), l.loOpen || r.loOpen
					out.hi, out.hiOpen = addBound(l.hi, r.hi, 1), l.hiOpen || r.hiOpen
				} else {
					out.lo, out.loOpen = addBound(l.lo, -r.hi, -1), l.loOpen || r.hiOpen
					out.hi, out.hiOpen = addBound(l.hi, -r.lo, 1), l.hiOpen || r.loOpen
				}
			}
			return out.normalize()
		case sqlmini.OpMul, sqlmini.OpDiv, sqlmini.OpMod:
			// Unbounded but numeric (or null on null input / error on
			// non-numeric input, which produces no row).
			return Abs{mayNull: mayNull, mayNum: true, lo: math.Inf(-1), hi: math.Inf(1)}
		case sqlmini.OpEq, sqlmini.OpNe, sqlmini.OpLt, sqlmini.OpLe, sqlmini.OpGt, sqlmini.OpGe:
			return Abs{mayNull: mayNull, mayTrue: true, mayFalse: true}
		case sqlmini.OpAnd, sqlmini.OpOr:
			return Abs{mayNull: l.mayNull || r.mayNull, mayTrue: true, mayFalse: true}
		}
		return Top()
	case *sqlmini.IsNull:
		v := EvalExpr(x.X, env)
		null := v.mayNull
		nonNull := !v.WithoutNull().IsBottom()
		if x.Negate {
			null, nonNull = nonNull, null
		}
		// IS [NOT] NULL never yields null itself.
		return Abs{mayTrue: null, mayFalse: nonNull}.normalize()
	case *sqlmini.InList, *sqlmini.InSelect, *sqlmini.Exists:
		return Abs{mayNull: true, mayTrue: true, mayFalse: true}
	case *sqlmini.ScalarSubquery:
		return Top()
	case *sqlmini.Aggregate:
		if x.Func == "count" {
			return Abs{mayNum: true, lo: 0, hi: math.Inf(1)}
		}
		return Top()
	}
	return Top()
}

// addBound adds interval bounds, resolving an Inf + -Inf indeterminate
// toward the conservative side (dir = -1 for a lower bound, +1 for an
// upper bound).
func addBound(a, b float64, dir float64) float64 {
	s := a + b
	if math.IsNaN(s) {
		return math.Inf(int(dir))
	}
	return s
}

// SourceConstraints maps resolved source names to their row
// constraints.
type SourceConstraints map[string]Constraints

func mergeAnd(a, b SourceConstraints) SourceConstraints {
	if len(a) == 0 {
		return b
	}
	out := SourceConstraints{}
	for src, cons := range a {
		cp := Constraints{}
		for col, abs := range cons {
			cp[col] = abs
		}
		out[src] = cp
	}
	for src, cons := range b {
		dst, ok := out[src]
		if !ok {
			dst = Constraints{}
			out[src] = dst
		}
		for col, abs := range cons {
			if prev, ok := dst[col]; ok {
				dst[col] = prev.Meet(abs)
			} else {
				dst[col] = abs
			}
		}
	}
	return out
}

// mergeOr keeps only constraints present in BOTH branches, joined: a
// disjunction guarantees a constraint only if each disjunct does.
func mergeOr(a, b SourceConstraints) SourceConstraints {
	out := SourceConstraints{}
	for src, consA := range a {
		consB, ok := b[src]
		if !ok {
			continue
		}
		dst := Constraints{}
		for col, absA := range consA {
			if absB, ok := consB[col]; ok {
				dst[col] = absA.Join(absB)
			}
		}
		if len(dst) > 0 {
			out[src] = dst
		}
	}
	return out
}

// stringSet is a tiny immutable set for scope shadowing.
type stringSet map[string]bool

func (s stringSet) with(names ...string) stringSet {
	out := stringSet{}
	for k := range s {
		out[k] = true
	}
	for _, n := range names {
		out[n] = true
	}
	return out
}

func subAliases(s *sqlmini.Select) []string {
	out := make([]string, 0, len(s.From))
	for _, tr := range s.From {
		out = append(out, tr.EffectiveAlias())
	}
	return out
}

// aggNoGroup reports whether s is an aggregate query without GROUP BY:
// such a query yields exactly one row regardless of its input, so
// "s is nonempty" carries no information about rows satisfying s.Where.
func aggNoGroup(s *sqlmini.Select) bool {
	return len(s.GroupBy) == 0 && sqlmini.HasAggregateItems(s)
}

// cons extracts necessary row constraints from a predicate: if
// (neg ? NOT e : e) evaluates to TRUE under some row binding, then for
// every source s and column c in the result, the bound value of s.c
// lies in result[s][c]. Sources whose names appear in shadow belong to
// an inner scope and are excluded. Returning fewer constraints is
// always sound; returning none is the universal fallback.
func cons(e sqlmini.Expr, neg bool, shadow stringSet) SourceConstraints {
	switch x := e.(type) {
	case *sqlmini.Unary:
		if x.Op == sqlmini.UnaryNot {
			return cons(x.X, !neg, shadow)
		}
	case *sqlmini.Binary:
		switch x.Op {
		case sqlmini.OpAnd, sqlmini.OpOr:
			conjunctive := (x.Op == sqlmini.OpAnd) != neg
			l, r := cons(x.L, neg, shadow), cons(x.R, neg, shadow)
			if conjunctive {
				return mergeAnd(l, r)
			}
			return mergeOr(l, r)
		case sqlmini.OpEq, sqlmini.OpNe, sqlmini.OpLt, sqlmini.OpLe, sqlmini.OpGt, sqlmini.OpGe:
			op := x.Op
			if neg {
				// NOT(a op b) = TRUE requires a op b = FALSE, which in
				// three-valued logic requires both operands non-null and
				// the complement comparison to hold.
				op = complement(op)
			}
			out := SourceConstraints{}
			if c, ok := x.L.(*sqlmini.ColRef); ok && !shadow[c.RSource] {
				addCons(out, c, cmpNecessary(op, EvalExpr(x.R, nil)))
			}
			if c, ok := x.R.(*sqlmini.ColRef); ok && !shadow[c.RSource] {
				addCons(out, c, cmpNecessary(flip(op), EvalExpr(x.L, nil)))
			}
			return out
		}
	case *sqlmini.IsNull:
		c, ok := x.X.(*sqlmini.ColRef)
		if !ok || shadow[c.RSource] {
			return nil
		}
		out := SourceConstraints{}
		if x.Negate != neg {
			// Effective IS NOT NULL.
			addCons(out, c, NonNull())
		} else {
			addCons(out, c, NullOnly())
		}
		return out
	case *sqlmini.InList:
		c, ok := x.X.(*sqlmini.ColRef)
		if !ok || shadow[c.RSource] {
			return nil
		}
		out := SourceConstraints{}
		if x.Negate == neg {
			// Effective positive IN: value equals one of the list values.
			acc := Bottom()
			for _, v := range x.Vals {
				acc = acc.Join(EvalExpr(v, nil))
			}
			addCons(out, c, acc.WithoutNull())
		} else {
			// Effective NOT IN = TRUE requires every comparison FALSE,
			// hence a non-null left operand (with a non-empty list).
			if len(x.Vals) > 0 {
				addCons(out, c, NonNull())
			}
		}
		return out
	case *sqlmini.InSelect:
		if x.Negate != neg {
			// Effective NOT IN: TRUE when the subquery is empty, even
			// for a null left operand — nothing necessary.
			return nil
		}
		// Effective positive IN: the left operand is non-null and the
		// subquery is nonempty, so correlated constraints from its WHERE
		// hold for some inner row (unless the subquery yields rows
		// without consulting WHERE, as aggregates without GROUP BY do).
		out := SourceConstraints{}
		if c, ok := x.X.(*sqlmini.ColRef); ok && !shadow[c.RSource] {
			addCons(out, c, NonNull())
		}
		return mergeAnd(out, subWitnessCons(x.Sub, shadow))
	case *sqlmini.Exists:
		if x.Negate != neg {
			return nil
		}
		return subWitnessCons(x.Sub, shadow)
	}
	return nil
}

// subWitnessCons extracts correlated outer-source constraints implied
// by "sub yields at least one row".
func subWitnessCons(sub *sqlmini.Select, shadow stringSet) SourceConstraints {
	if sub == nil || sub.Where == nil || aggNoGroup(sub) || sub.Limit == 0 {
		return nil
	}
	return cons(sub.Where, false, shadow.with(subAliases(sub)...))
}

func addCons(out SourceConstraints, c *sqlmini.ColRef, abs Abs) {
	dst, ok := out[c.RSource]
	if !ok {
		dst = Constraints{}
		out[c.RSource] = dst
	}
	if prev, ok := dst[c.Column]; ok {
		dst[c.Column] = prev.Meet(abs)
	} else {
		dst[c.Column] = abs
	}
}

func complement(op sqlmini.BinaryOp) sqlmini.BinaryOp {
	switch op {
	case sqlmini.OpEq:
		return sqlmini.OpNe
	case sqlmini.OpNe:
		return sqlmini.OpEq
	case sqlmini.OpLt:
		return sqlmini.OpGe
	case sqlmini.OpLe:
		return sqlmini.OpGt
	case sqlmini.OpGt:
		return sqlmini.OpLe
	case sqlmini.OpGe:
		return sqlmini.OpLt
	}
	return op
}

// flip mirrors a comparison so the column appears on the left:
// a op b  ⇔  b flip(op) a.
func flip(op sqlmini.BinaryOp) sqlmini.BinaryOp {
	switch op {
	case sqlmini.OpLt:
		return sqlmini.OpGt
	case sqlmini.OpLe:
		return sqlmini.OpGe
	case sqlmini.OpGt:
		return sqlmini.OpLt
	case sqlmini.OpGe:
		return sqlmini.OpLe
	}
	return op // Eq, Ne symmetric
}

// cmpNecessary returns the necessary constraint on x for "x op v" to be
// TRUE, where v's possible values are described by other.
func cmpNecessary(op sqlmini.BinaryOp, other Abs) Abs {
	other = other.normalize()
	switch op {
	case sqlmini.OpEq:
		return other.WithoutNull()
	case sqlmini.OpNe:
		return NonNull()
	case sqlmini.OpLt, sqlmini.OpLe, sqlmini.OpGt, sqlmini.OpGe:
		// x must be non-null; when the other side is numeric, x is
		// bounded by the other side's extreme. Keep only the kinds the
		// other side can take (an ordered comparison against a value of
		// a different kind never yields TRUE in sqlmini).
		out := Abs{mayStr: other.mayStr, strs: nil, mayTrue: other.mayTrue || other.mayFalse, mayFalse: other.mayTrue || other.mayFalse}
		if other.mayNum {
			out.mayNum = true
			switch op {
			case sqlmini.OpLt:
				out.lo, out.hi, out.loOpen, out.hiOpen = math.Inf(-1), other.hi, false, true
			case sqlmini.OpLe:
				out.lo, out.hi, out.loOpen, out.hiOpen = math.Inf(-1), other.hi, false, other.hiOpen
			case sqlmini.OpGt:
				out.lo, out.hi, out.loOpen, out.hiOpen = other.lo, math.Inf(1), true, false
			case sqlmini.OpGe:
				out.lo, out.hi, out.loOpen, out.hiOpen = other.lo, math.Inf(1), other.loOpen, false
			}
		}
		return out.normalize()
	}
	return NonNull()
}

// cmpPossible reports whether "x op y" can evaluate to TRUE for some
// x described by l and y described by r. It is deliberately permissive:
// false is returned only when TRUE is provably impossible.
func cmpPossible(op sqlmini.BinaryOp, l, r Abs) bool {
	l, r = l.WithoutNull(), r.WithoutNull()
	if l.IsBottom() || r.IsBottom() {
		return false // a null operand makes every comparison null
	}
	// Mixed-kind comparisons: assume possible.
	if (l.mayNum && (r.mayStr || r.mayTrue || r.mayFalse)) ||
		(l.mayStr && (r.mayNum || r.mayTrue || r.mayFalse)) ||
		((l.mayTrue || l.mayFalse) && (r.mayNum || r.mayStr)) {
		return true
	}
	switch op {
	case sqlmini.OpEq:
		return !l.Meet(r).IsBottom()
	case sqlmini.OpNe:
		// Impossible only when both sides are the same single value.
		return !(singleton(l) && singleton(r) && !l.Meet(r).IsBottom())
	case sqlmini.OpLt:
		if l.mayNum && r.mayNum && l.lo < r.hi {
			return true
		}
		return strOrderPossible(op, l, r) || (l.mayTrue || l.mayFalse) && (r.mayTrue || r.mayFalse)
	case sqlmini.OpLe:
		if l.mayNum && r.mayNum && (l.lo < r.hi || (l.lo == r.hi && !l.loOpen && !r.hiOpen)) {
			return true
		}
		return strOrderPossible(op, l, r) || (l.mayTrue || l.mayFalse) && (r.mayTrue || r.mayFalse)
	case sqlmini.OpGt:
		return cmpPossible(sqlmini.OpLt, r, l)
	case sqlmini.OpGe:
		return cmpPossible(sqlmini.OpLe, r, l)
	}
	return true
}

func singleton(a Abs) bool {
	a = a.normalize()
	kinds := 0
	single := true
	if a.mayNull {
		kinds++
	}
	if a.mayNum {
		kinds++
		if a.lo != a.hi {
			single = false
		}
	}
	if a.mayStr {
		kinds++
		if a.strs == nil || len(a.strs) != 1 {
			single = false
		}
	}
	if a.mayTrue {
		kinds++
	}
	if a.mayFalse {
		kinds++
	}
	return kinds == 1 && single
}

// strOrderPossible: both sides strings and an ordered pair exists.
func strOrderPossible(op sqlmini.BinaryOp, l, r Abs) bool {
	if !l.mayStr || !r.mayStr {
		return false
	}
	if l.strs == nil || r.strs == nil {
		return true
	}
	for _, a := range l.strs {
		for _, b := range r.strs {
			if (op == sqlmini.OpLt && a < b) || (op == sqlmini.OpLe && a <= b) {
				return true
			}
		}
	}
	return false
}

// CondUnsat reports whether (neg ? NOT e : e) can never evaluate to
// TRUE, for any database state and any transition-table contents. A
// false return carries no information; a true return is a proof. A nil
// condition is vacuously TRUE, hence never unsatisfiable.
func CondUnsat(e sqlmini.Expr, neg bool) bool {
	if e == nil {
		return false
	}
	// Contradictory necessary constraints (e.g. v < 5 and v > 10) make
	// the predicate unsatisfiable regardless of structure.
	for _, rowCons := range cons(e, neg, nil) {
		if rowCons.HasBottom() {
			return true
		}
	}
	switch x := e.(type) {
	case *sqlmini.Literal:
		switch x.Val.Kind {
		case storage.KindBool:
			return x.Val.B == neg
		case storage.KindNull:
			return true // both NULL and NOT NULL are null, never TRUE
		}
		return false
	case *sqlmini.Unary:
		if x.Op == sqlmini.UnaryNot {
			return CondUnsat(x.X, !neg)
		}
	case *sqlmini.Binary:
		switch x.Op {
		case sqlmini.OpAnd, sqlmini.OpOr:
			conjunctive := (x.Op == sqlmini.OpAnd) != neg
			if conjunctive {
				return CondUnsat(x.L, neg) || CondUnsat(x.R, neg)
			}
			return CondUnsat(x.L, neg) && CondUnsat(x.R, neg)
		case sqlmini.OpEq, sqlmini.OpNe, sqlmini.OpLt, sqlmini.OpLe, sqlmini.OpGt, sqlmini.OpGe:
			op := x.Op
			if neg {
				op = complement(op)
			}
			return !cmpPossible(op, EvalExpr(x.L, nil), EvalExpr(x.R, nil))
		}
	case *sqlmini.IsNull:
		if _, ok := x.X.(*sqlmini.ColRef); ok {
			return false // a column can be null or non-null
		}
		v := EvalExpr(x.X, nil)
		wantNull := x.Negate == neg // effective IS NULL under neg?
		if wantNull {
			return !v.mayNull
		}
		return v.WithoutNull().IsBottom()
	case *sqlmini.Exists:
		if x.Negate == neg {
			// Effective positive EXISTS: unsatisfiable iff the subquery
			// is provably always empty.
			return subAlwaysEmpty(x.Sub)
		}
		// Effective NOT EXISTS: unsatisfiable iff the subquery always
		// yields a row — which aggregates without GROUP BY do.
		return aggNoGroup(x.Sub) && x.Sub.Limit != 0 && x.Sub.Having == nil
	case *sqlmini.InSelect:
		if x.Negate == neg && subAlwaysEmpty(x.Sub) {
			return true // positive IN over an always-empty subquery
		}
	}
	return false
}

// subAlwaysEmpty reports that the subquery yields zero rows in every
// state. Aggregate queries without GROUP BY always yield one row, so
// they are never empty (regardless of WHERE).
func subAlwaysEmpty(s *sqlmini.Select) bool {
	if s == nil {
		return false
	}
	if s.Limit == 0 {
		return true
	}
	if aggNoGroup(s) {
		return false
	}
	return s.Where != nil && CondUnsat(s.Where, false)
}

// RowConstraints returns the necessary constraints a predicate places
// on rows of the given resolved source name. A nil predicate yields no
// constraints.
func RowConstraints(pred sqlmini.Expr, source string) Constraints {
	if pred == nil {
		return Constraints{}
	}
	out := cons(pred, false, nil)[source]
	if out == nil {
		return Constraints{}
	}
	return out
}

// Witness is a positive existential conjunct of a rule condition over a
// single transition-table source: for the condition to be TRUE, the
// transition table must contain a row satisfying Cons.
type Witness struct {
	Table string            // physical table name
	Trans sqlmini.TransKind // Inserted / Deleted / NewUpdated / OldUpdated
	Cons  Constraints       // necessary constraints on the witness row
}

// TransWitnesses walks the top-level conjunctive structure of cond and
// returns every positive EXISTS conjunct ranging over exactly one
// transition-table source. Each witness is independently necessary:
// whenever the condition is TRUE, EVERY returned witness has a
// satisfying row in its transition table.
func TransWitnesses(cond sqlmini.Expr) []Witness {
	var out []Witness
	collectWitnesses(cond, false, &out)
	return out
}

func collectWitnesses(e sqlmini.Expr, neg bool, out *[]Witness) {
	switch x := e.(type) {
	case *sqlmini.Unary:
		if x.Op == sqlmini.UnaryNot {
			collectWitnesses(x.X, !neg, out)
		}
	case *sqlmini.Binary:
		// Recurse only through effective conjunctions: AND positively,
		// OR under negation (De Morgan).
		if (x.Op == sqlmini.OpAnd && !neg) || (x.Op == sqlmini.OpOr && neg) {
			collectWitnesses(x.L, neg, out)
			collectWitnesses(x.R, neg, out)
		}
	case *sqlmini.Exists:
		if x.Negate != neg {
			return // effective NOT EXISTS: no witness row required
		}
		sub := x.Sub
		if sub == nil || len(sub.From) != 1 || sub.From[0].Trans == sqlmini.TransNone {
			return
		}
		if aggNoGroup(sub) || sub.Limit == 0 {
			// An aggregate without GROUP BY yields a row over empty
			// input, and LIMIT 0 never yields one: neither implies a
			// transition-table row exists.
			return
		}
		tr := sub.From[0]
		*out = append(*out, Witness{
			Table: tr.RTable,
			Trans: tr.Trans,
			Cons:  RowConstraints(sub.Where, tr.EffectiveAlias()),
		})
	}
}
