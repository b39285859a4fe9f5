// Package compile turns resolved rule conditions and actions, and user
// statements once per text key (UserCache), into closures evaluated
// against statically assigned row slots, and builds the delta-driven
// trigger index the engine runs on.
//
// The compiled path must be observably indistinguishable from the
// interpreter in internal/sqlmini — same results, same errors (down to
// the message), same trace streams — because the paper's guarantees
// are stated over rule semantics, not over an implementation. Three
// design rules follow:
//
//  1. All value-level semantics (three-valued logic, comparison
//     errors, aggregate folding, null ordering) go through the same
//     helpers the interpreter uses (sqlmini's exported semantics
//     layer), so the two paths cannot drift at the value level.
//  2. Short-circuiting is applied only when the skipped operand
//     provably cannot error: the interpreter always evaluates both
//     AND/OR operands, so skipping an operand that could raise (say)
//     a division by zero would change the error taxonomy. Rows are
//     skipped on the same terms: an UPDATE or DELETE visits only the
//     holders of an equality probe's value when its WHERE cannot error.
//  3. Nothing the compiler cannot handle runs some other way. A rule's
//     unit (condition or action statement) or user statement the
//     compiler declined would fail with the compiler's error, and
//     resolution leaves none. The interpreter runs only in tests: the
//     engine package's reference rule processor, the oracle its
//     differential tests compare the engine against, is built on it.
package compile

import (
	"cmp"
	"fmt"
	"strings"

	"activerules/internal/schema"
	"activerules/internal/sqlmini"
	"activerules/internal/storage"
)

// Env is the runtime context a compiled closure executes in. Slots
// holds the row bound to each statically assigned binding index; the
// engine keeps one Env and points it at each consideration in turn.
type Env struct {
	DB    *storage.DB
	Trans *sqlmini.TransitionData
	Mut   sqlmini.Mutator
	Slots [][]storage.Value

	// Params holds the literals a user statement's text key lifted out
	// (UserCache), in text order; rule closures fold their literals in
	// and never read it.
	Params []storage.Value

	// Query scratch: stacks the running query blocks push their working
	// sets onto — FROM sources and match lists on lists, match bindings
	// and result row headers on rows, result values on vals — and a
	// DELETE or an UPDATE its matches' identities on ids (and an UPDATE
	// their new values on vals). Whoever runs a block takes a mark first
	// and releases it once done with the block's result, so a subquery
	// evaluated per outer row reuses the same memory each time. A block's
	// result rows therefore point into the Env: a caller that keeps them
	// copies them (cloneRows).
	lists []matchSnap
	rows  [][]storage.Value
	vals  []storage.Value
	ids   []storage.TupleID
}

// scratchMark is the height of an Env's scratch stacks.
type scratchMark struct{ lists, rows, vals, ids int }

func (env *Env) mark() scratchMark {
	return scratchMark{len(env.lists), len(env.rows), len(env.vals), len(env.ids)}
}

// release pops everything pushed since m. Slices handed out above the
// mark stay readable until the next push overwrites them.
func (env *Env) release(m scratchMark) {
	env.lists, env.rows, env.vals, env.ids = env.lists[:m.lists], env.rows[:m.rows], env.vals[:m.vals], env.ids[:m.ids]
}

// begin readies the Env for one compiled unit: slots for its n bindings
// and empty scratch, whatever an earlier unit's error or panic left.
func (env *Env) begin(n int) {
	if len(env.Slots) < n {
		s := make([][]storage.Value, n)
		copy(s, env.Slots)
		env.Slots = s
	}
	env.release(scratchMark{})
}

// cloneRows copies result rows out of the Env's scratch.
func cloneRows(rows [][]storage.Value) [][]storage.Value {
	out := make([][]storage.Value, len(rows))
	for i, r := range rows {
		out[i] = append([]storage.Value(nil), r...)
	}
	return out
}

// exprFn is a compiled expression.
type exprFn func(env *Env) (storage.Value, error)

// stmtFn is a compiled statement.
type stmtFn func(env *Env) (sqlmini.StmtResult, error)

// selFn is a compiled query block.
type selFn func(env *Env) ([][]storage.Value, error)

// kindMask is a conservative superset of the non-null value kinds an
// expression can produce (null is always admitted).
type kindMask uint8

const (
	kInt kindMask = 1 << iota
	kFloat
	kString
	kBool
	kNumeric = kInt | kFloat
	kAny     = kInt | kFloat | kString | kBool
)

func (m kindMask) subset(of kindMask) bool { return m&^of == 0 }

// comparableMasks reports whether two value sets are statically
// comparable under storage.Value.Compare: numerics compare across
// kinds, strings and bools only with themselves. Nulls always compare
// to unknown without error, so an empty mask is comparable to anything.
func comparableMasks(a, b kindMask) bool {
	switch {
	case a == 0 || b == 0:
		return true
	case a.subset(kNumeric) && b.subset(kNumeric):
		return true
	case a.subset(kString) && b.subset(kString):
		return true
	case a.subset(kBool) && b.subset(kBool):
		return true
	}
	return false
}

// exprC is a compiled expression with its static analysis: total means
// evaluation can never return an error (the license to skip it when
// short-circuiting); a subtree that constant-folded has a leafConst leaf.
type exprC struct {
	fn    exprFn
	total bool
	kinds kindMask
	leaf  leaf
	// test, when set, decides the expression as a WHERE does (PredTruth)
	// without building its value.
	test condFn
	// eq, when set, is the first AND-conjunct of the expression, or the
	// expression itself, that compares a column with a lifted literal or
	// a constant for equality: an UPDATE's or a DELETE's probe (probeOf).
	eq *probe
}

// where returns the expression's decision as a WHERE clause makes it:
// only a definite true satisfies, and a non-boolean is an error.
func (e exprC) where() condFn {
	if e.test != nil {
		return e.test
	}
	fn := e.fn
	return func(env *Env) (bool, error) {
		v, err := fn(env)
		if err != nil {
			return false, err
		}
		return sqlmini.PredTruth(v)
	}
}

// leaf says where an expression's value lies when it is a column, a
// lifted literal or a constant, so that a comparison kernel reads it in
// place instead of calling fn.
type leaf struct {
	from      leafFrom
	slot, idx int // leafColumn: the row in slot, column idx; leafParam: Params[idx]
	con       storage.Value
}

type leafFrom uint8

const (
	leafNone leafFrom = iota
	leafColumn
	leafParam
	leafConst
)

// at returns the leaf's value in env, or nil when a column index is out
// of its row's range (the generic path reports that).
func (l *leaf) at(env *Env) *storage.Value {
	switch l.from {
	case leafColumn:
		if row := env.Slots[l.slot]; l.idx < len(row) {
			return &row[l.idx]
		}
		return nil
	case leafParam:
		return &env.Params[l.idx]
	}
	return &l.con
}

// isConst reports that the expression folded to the constant leaf.con.
func (e exprC) isConst() bool { return e.leaf.from == leafConst }

// boolTotal reports that evaluation cannot error and yields only
// boolean or null — the condition for skipping an AND/OR operand.
func (e exprC) boolTotal() bool { return e.total && e.kinds.subset(kBool) }

// binding is one compile-time alias-to-slot assignment.
type binding struct {
	alias string
	slot  int
}

// compiler compiles the units of one rule. Slot indices are the depth
// of the binding stack at push time, so sibling subqueries reuse the
// same slots (they are never live simultaneously) and nSlots is the
// maximum nesting depth.
type compiler struct {
	sch    *schema.Schema
	stack  []binding
	nSlots int

	// lits are a user statement's lifted literals, in Env.Params order;
	// nil when compiling rules, whose literals fold. params indexes
	// them, built on the first literal compiled: a VALUES insert of bare
	// literals compiles none.
	lits   []*sqlmini.Literal
	params map[*sqlmini.Literal]int
}

// param returns a lifted literal's index in Env.Params.
func (c *compiler) param(l *sqlmini.Literal) (int, bool) {
	if c.params == nil && c.lits != nil {
		c.params = make(map[*sqlmini.Literal]int, len(c.lits))
		for i, x := range c.lits {
			c.params[x] = i
		}
	}
	p, ok := c.params[l]
	return p, ok
}

func (c *compiler) push(alias string) int {
	slot := len(c.stack)
	c.stack = append(c.stack, binding{alias: alias, slot: slot})
	if slot+1 > c.nSlots {
		c.nSlots = slot + 1
	}
	return slot
}

func (c *compiler) pop(n int) { c.stack = c.stack[:len(c.stack)-n] }

// lookup finds the innermost binding for an alias, mirroring the
// interpreter's frame-chain search.
func (c *compiler) lookup(alias string) (int, bool) {
	for i := len(c.stack) - 1; i >= 0; i-- {
		if c.stack[i].alias == alias {
			return c.stack[i].slot, true
		}
	}
	return 0, false
}

// errUnsupported aborts compilation of the current unit: a rule's unit
// (Compile) or user statement (UserCache.Exec) fails with it.
type errUnsupported struct{ what string }

func (e errUnsupported) Error() string { return "compile: unsupported " + e.what }

func constExpr(v storage.Value) exprC {
	return exprC{
		fn:    func(*Env) (storage.Value, error) { return v, nil },
		total: true,
		kinds: kindOfValue(v),
		leaf:  leaf{from: leafConst, con: v},
	}
}

func kindOfValue(v storage.Value) kindMask {
	switch v.Kind {
	case storage.KindInt:
		return kInt
	case storage.KindFloat:
		return kFloat
	case storage.KindString:
		return kString
	case storage.KindBool:
		return kBool
	default:
		return 0
	}
}

// compileExpr compiles a resolved expression.
func (c *compiler) compileExpr(e sqlmini.Expr) (exprC, error) {
	switch x := e.(type) {
	case *sqlmini.Literal:
		if p, ok := c.param(x); ok {
			fn := func(env *Env) (storage.Value, error) { return env.Params[p], nil }
			return exprC{fn: fn, total: true, kinds: kindOfValue(x.Val), leaf: leaf{from: leafParam, idx: p}}, nil
		}
		return constExpr(x.Val), nil

	case *sqlmini.ColRef:
		slot, ok := c.lookup(x.RSource)
		if !ok {
			return exprC{}, errUnsupported{what: fmt.Sprintf("unbound column source %q", x.RSource)}
		}
		idx := x.RIndex
		kinds := kAny
		t := c.sch.Table(x.RTable)
		if t != nil && idx < len(t.Columns) {
			kinds = typeMask(t.Columns[idx].Type)
		}
		// ref names the column in an error message. The statement's
		// spelling may be a slice of a request's text, which a cached
		// closure must not keep.
		ref := x.String()
		switch {
		case x.Qualifier != "": // String joined a new string
		case t != nil && idx < len(t.Columns) && ref == t.Columns[idx].Name:
			ref = t.Columns[idx].Name
		default:
			ref = strings.Clone(ref)
		}
		fn := func(env *Env) (storage.Value, error) {
			row := env.Slots[slot]
			if idx >= len(row) {
				// Defensive parity with the interpreter; resolution
				// guarantees this cannot fire for well-formed rows.
				return storage.Value{}, fmt.Errorf("sql: column index %d out of range for %s", idx, ref)
			}
			return row[idx], nil
		}
		return exprC{fn: fn, total: true, kinds: kinds, leaf: leaf{from: leafColumn, slot: slot, idx: idx}}, nil

	case *sqlmini.Unary:
		sub, err := c.compileExpr(x.X)
		if err != nil {
			return exprC{}, err
		}
		op := x.Op
		if sub.isConst() {
			if v, err := sqlmini.ApplyUnary(op, sub.leaf.con); err == nil {
				return constExpr(v), nil
			}
		}
		subFn := sub.fn
		fn := func(env *Env) (storage.Value, error) {
			v, err := subFn(env)
			if err != nil {
				return storage.Value{}, err
			}
			return sqlmini.ApplyUnary(op, v)
		}
		var total bool
		var kinds kindMask
		if op == sqlmini.UnaryNeg {
			total = sub.total && sub.kinds.subset(kNumeric)
			kinds = sub.kinds & kNumeric
		} else { // NOT
			total = sub.total && sub.kinds.subset(kBool)
			kinds = kBool
		}
		return exprC{fn: fn, total: total, kinds: kinds}, nil

	case *sqlmini.Binary:
		return c.compileBinary(x)

	case *sqlmini.IsNull:
		sub, err := c.compileExpr(x.X)
		if err != nil {
			return exprC{}, err
		}
		neg := x.Negate
		if sub.isConst() {
			return constExpr(storage.BoolV(sub.leaf.con.IsNull() != neg)), nil
		}
		subFn := sub.fn
		fn := func(env *Env) (storage.Value, error) {
			v, err := subFn(env)
			if err != nil {
				return storage.Value{}, err
			}
			return storage.BoolV(v.IsNull() != neg), nil
		}
		return exprC{fn: fn, total: sub.total, kinds: kBool}, nil

	case *sqlmini.InList:
		sub, err := c.compileExpr(x.X)
		if err != nil {
			return exprC{}, err
		}
		members := make([]exprC, len(x.Vals))
		allConst := sub.isConst()
		total := sub.total
		for i, ve := range x.Vals {
			m, err := c.compileExpr(ve)
			if err != nil {
				return exprC{}, err
			}
			members[i] = m
			allConst = allConst && m.isConst()
			total = total && m.total && comparableMasks(sub.kinds, m.kinds)
		}
		neg := x.Negate
		if allConst {
			vals := make([]storage.Value, len(members))
			for i, m := range members {
				vals[i] = m.leaf.con
			}
			return constExpr(sqlmini.InResult(sub.leaf.con, vals, neg)), nil
		}
		subFn := sub.fn
		memberFns := make([]exprFn, len(members))
		for i, m := range members {
			memberFns[i] = m.fn
		}
		fn := func(env *Env) (storage.Value, error) {
			v, err := subFn(env)
			if err != nil {
				return storage.Value{}, err
			}
			vals := make([]storage.Value, len(memberFns))
			for i, mf := range memberFns {
				vv, err := mf(env)
				if err != nil {
					return storage.Value{}, err
				}
				vals[i] = vv
			}
			return sqlmini.InResult(v, vals, neg), nil
		}
		return exprC{fn: fn, total: total, kinds: kBool}, nil

	case *sqlmini.InSelect:
		sub, err := c.compileExpr(x.X)
		if err != nil {
			return exprC{}, err
		}
		sel, err := c.compileSelect(x.Sub)
		if err != nil {
			return exprC{}, err
		}
		neg := x.Negate
		subFn := sub.fn
		fn := func(env *Env) (storage.Value, error) {
			v, err := subFn(env)
			if err != nil {
				return storage.Value{}, err
			}
			defer env.release(env.mark())
			rows, err := sel(env)
			if err != nil {
				return storage.Value{}, err
			}
			members := len(env.vals)
			for _, r := range rows {
				env.vals = append(env.vals, r[0])
			}
			return sqlmini.InResult(v, env.vals[members:], neg), nil
		}
		return exprC{fn: fn, kinds: kBool}, nil

	case *sqlmini.Exists:
		sel, err := c.compileSelect(x.Sub)
		if err != nil {
			return exprC{}, err
		}
		neg := x.Negate
		fn := func(env *Env) (storage.Value, error) {
			defer env.release(env.mark())
			rows, err := sel(env)
			if err != nil {
				return storage.Value{}, err
			}
			return storage.BoolV((len(rows) > 0) != neg), nil
		}
		return exprC{fn: fn, kinds: kBool}, nil

	case *sqlmini.ScalarSubquery:
		sel, err := c.compileSelect(x.Sub)
		if err != nil {
			return exprC{}, err
		}
		fn := func(env *Env) (storage.Value, error) {
			defer env.release(env.mark())
			rows, err := sel(env)
			if err != nil {
				return storage.Value{}, err
			}
			return sqlmini.ScalarResult(rows)
		}
		return exprC{fn: fn, kinds: kAny}, nil

	case *sqlmini.Aggregate:
		// Resolution confines aggregates to select lists; mirror the
		// interpreter's error for defensive parity.
		name := strings.Clone(x.Func)
		fn := func(*Env) (storage.Value, error) {
			return storage.Value{}, fmt.Errorf("sql: aggregate %s outside select list", name)
		}
		return exprC{fn: fn, kinds: kAny}, nil

	default:
		return exprC{}, errUnsupported{what: fmt.Sprintf("expression %T", e)}
	}
}

func typeMask(t schema.Type) kindMask {
	switch t {
	case schema.Int:
		return kInt
	case schema.Float:
		return kFloat
	case schema.String:
		return kString
	case schema.Bool:
		return kBool
	default:
		return kAny
	}
}

func (c *compiler) compileBinary(x *sqlmini.Binary) (exprC, error) {
	lc, err := c.compileExpr(x.L)
	if err != nil {
		return exprC{}, err
	}
	rc, err := c.compileExpr(x.R)
	if err != nil {
		return exprC{}, err
	}
	op := x.Op

	if lc.isConst() && rc.isConst() {
		if v, err := sqlmini.ApplyBinary(op, lc.leaf.con, rc.leaf.con); err == nil {
			return constExpr(v), nil
		}
	}

	lf, rf := lc.fn, rc.fn
	both := func(env *Env) (storage.Value, error) {
		l, err := lf(env)
		if err != nil {
			return storage.Value{}, err
		}
		r, err := rf(env)
		if err != nil {
			return storage.Value{}, err
		}
		return sqlmini.ApplyBinary(op, l, r)
	}

	switch op {
	case sqlmini.OpAnd, sqlmini.OpOr:
		total := lc.boolTotal() && rc.boolTotal()
		fn := both
		isAnd := op == sqlmini.OpAnd
		if rc.boolTotal() {
			// The skipped operand provably cannot error, so skipping
			// it is invisible: the interpreter would evaluate it and
			// discard the value.
			fn = func(env *Env) (storage.Value, error) {
				l, err := lf(env)
				if err != nil {
					return storage.Value{}, err
				}
				lb, lNull, err := sqlmini.BoolOrNull(l)
				if err != nil {
					return storage.Value{}, err
				}
				if !lNull && lb != isAnd {
					// AND with definite false / OR with definite true
					// is decided regardless of the right value.
					return storage.BoolV(lb), nil
				}
				r, err := rf(env)
				if err != nil {
					return storage.Value{}, err
				}
				return sqlmini.ApplyBinary(op, l, r)
			}
		}
		var test condFn
		if lt, rt := lc.test, rc.test; lt != nil && rt != nil && total {
			// Over operands that cannot error and are bool or null, AND
			// is true exactly when both are and OR when either is.
			if isAnd {
				test = func(env *Env) (bool, error) {
					if ok, err := lt(env); err != nil || !ok {
						return false, err
					}
					return rt(env)
				}
			} else {
				test = func(env *Env) (bool, error) {
					if ok, err := lt(env); err != nil || ok {
						return ok, err
					}
					return rt(env)
				}
			}
		}
		var eq *probe
		if isAnd {
			if eq = lc.eq; eq == nil {
				eq = rc.eq
			}
		}
		return exprC{fn: fn, total: total, kinds: kBool, test: test, eq: eq}, nil

	case sqlmini.OpEq, sqlmini.OpNe, sqlmini.OpLt, sqlmini.OpLe, sqlmini.OpGt, sqlmini.OpGe:
		total := lc.total && rc.total && comparableMasks(lc.kinds, rc.kinds)
		e := exprC{fn: both, total: total, kinds: kBool, test: typedCompare(op, lc, rc, both)}
		if op == sqlmini.OpEq {
			e.eq = eqProbe(lc.leaf, rc.leaf)
		}
		return e, nil

	case sqlmini.OpAdd, sqlmini.OpSub, sqlmini.OpMul:
		total := lc.total && rc.total && lc.kinds.subset(kNumeric) && rc.kinds.subset(kNumeric)
		kinds := kindMask(kNumeric)
		if lc.kinds.subset(kInt) && rc.kinds.subset(kInt) {
			kinds = kInt
		}
		return exprC{fn: both, total: total, kinds: kinds}, nil

	case sqlmini.OpDiv:
		return exprC{fn: both, kinds: kNumeric}, nil // division by zero: never total
	case sqlmini.OpMod:
		return exprC{fn: both, kinds: kInt}, nil
	default:
		return exprC{}, errUnsupported{what: fmt.Sprintf("binary op %d", op)}
	}
}

// typedCompare is the WHERE decision of a comparison whose operands are
// both total, of one static kind, and each a column, a lifted literal or
// a constant, or nil when they are not. It reads both operands in place
// and compares their payloads directly instead of going through
// ApplyBinary. On two values of that kind it decides exactly what
// PredTruth makes of ApplyBinary's result: false when either is null,
// else the truth of op over the three-way result storage.Value.Compare
// gives for that kind (DESIGN.md §11.1 "Typed comparison kernels"). A
// column index out of its row's range goes to generic, which reports it.
func typedCompare(op sqlmini.BinaryOp, lc, rc exprC, generic exprFn) condFn {
	kind := lc.kinds
	if !lc.total || !rc.total || rc.kinds != kind || lc.leaf.from == leafNone || rc.leaf.from == leafNone {
		return nil
	}
	switch kind {
	case kInt, kFloat, kString, kBool:
	default:
		return nil
	}
	ll, rl := lc.leaf, rc.leaf
	return func(env *Env) (bool, error) {
		l, r := ll.at(env), rl.at(env)
		switch {
		case l == nil || r == nil:
			v, err := generic(env)
			if err != nil {
				return false, err
			}
			return sqlmini.PredTruth(v)
		case l.Kind == storage.KindNull || r.Kind == storage.KindNull:
			return false, nil
		}
		return holds(op, kind, l, r), nil
	}
}

// holds is the truth of the comparison op over two non-null values of
// kind.
func holds(op sqlmini.BinaryOp, kind kindMask, l, r *storage.Value) bool {
	var c int
	switch kind {
	case kInt:
		c = cmp.Compare(l.I, r.I)
	case kFloat:
		c = compareFloats(l.F, r.F)
	case kString:
		c = strings.Compare(l.S, r.S)
	default:
		c = cmp.Compare(boolRank(l.B), boolRank(r.B))
	}
	return sqlmini.CompareHolds(op, c)
}

// compareFloats is storage.Value.Compare on two floats: anything
// neither less nor greater, NaN included, compares equal.
func compareFloats(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func boolRank(b bool) int {
	if b {
		return 1
	}
	return 0
}
