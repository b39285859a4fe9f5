// Package compile turns resolved rule conditions and actions into
// closures evaluated against statically assigned row slots, and builds
// the delta-driven trigger index the engine's compiled mode runs on.
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
//     a division by zero would change the error taxonomy.
//  3. Anything the compiler cannot handle falls back to an
//     interpreter closure for that unit — never a divergent
//     approximation. Fallbacks() exposes the count so tests can pin
//     it to zero for the rule sets they care about.
package compile

import (
	"fmt"

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

	// Query scratch: stacks the running query blocks push their working
	// sets onto — FROM sources and match lists on lists, match bindings
	// and result row headers on rows, result values on vals. Whoever
	// runs a block takes a mark first and releases it once done with the
	// block's result, so a subquery evaluated per outer row reuses the
	// same memory each time. A block's result rows therefore point into
	// the Env: a caller that keeps them copies them (cloneRows).
	lists []matchSnap
	rows  [][]storage.Value
	vals  []storage.Value
}

// scratchMark is the height of an Env's scratch stacks.
type scratchMark struct{ lists, rows, vals int }

func (env *Env) mark() scratchMark {
	return scratchMark{len(env.lists), len(env.rows), len(env.vals)}
}

// release pops everything pushed since m. Slices handed out above the
// mark stay readable until the next push overwrites them.
func (env *Env) release(m scratchMark) {
	env.lists, env.rows, env.vals = env.lists[:m.lists], env.rows[:m.rows], env.vals[:m.vals]
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
// short-circuiting); con is non-nil when the subtree constant-folded.
type exprC struct {
	fn    exprFn
	total bool
	kinds kindMask
	con   *storage.Value
}

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

// errUnsupported aborts compilation of the current unit; the caller
// installs an interpreter fallback for it.
type errUnsupported struct{ what string }

func (e errUnsupported) Error() string { return "compile: unsupported " + e.what }

func constExpr(v storage.Value) exprC {
	vv := v
	return exprC{
		fn:    func(*Env) (storage.Value, error) { return vv, nil },
		total: true,
		kinds: kindOfValue(v),
		con:   &vv,
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
		return constExpr(x.Val), nil

	case *sqlmini.ColRef:
		slot, ok := c.lookup(x.RSource)
		if !ok {
			return exprC{}, errUnsupported{what: fmt.Sprintf("unbound column source %q", x.RSource)}
		}
		idx := x.RIndex
		kinds := kAny
		if t := c.sch.Table(x.RTable); t != nil && idx < len(t.Columns) {
			kinds = typeMask(t.Columns[idx].Type)
		}
		ref := x
		fn := func(env *Env) (storage.Value, error) {
			row := env.Slots[slot]
			if idx >= len(row) {
				// Defensive parity with the interpreter; resolution
				// guarantees this cannot fire for well-formed rows.
				return storage.Value{}, fmt.Errorf("sql: column index %d out of range for %s", idx, ref)
			}
			return row[idx], nil
		}
		return exprC{fn: fn, total: true, kinds: kinds}, nil

	case *sqlmini.Unary:
		sub, err := c.compileExpr(x.X)
		if err != nil {
			return exprC{}, err
		}
		op := x.Op
		if sub.con != nil {
			if v, err := sqlmini.ApplyUnary(op, *sub.con); err == nil {
				return constExpr(v), nil
			}
		}
		fn := func(env *Env) (storage.Value, error) {
			v, err := sub.fn(env)
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
		if sub.con != nil {
			return constExpr(storage.BoolV(sub.con.IsNull() != neg)), nil
		}
		fn := func(env *Env) (storage.Value, error) {
			v, err := sub.fn(env)
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
		allConst := sub.con != nil
		total := sub.total
		for i, ve := range x.Vals {
			m, err := c.compileExpr(ve)
			if err != nil {
				return exprC{}, err
			}
			members[i] = m
			allConst = allConst && m.con != nil
			total = total && m.total && comparableMasks(sub.kinds, m.kinds)
		}
		neg := x.Negate
		if allConst {
			vals := make([]storage.Value, len(members))
			for i, m := range members {
				vals[i] = *m.con
			}
			return constExpr(sqlmini.InResult(*sub.con, vals, neg)), nil
		}
		fn := func(env *Env) (storage.Value, error) {
			v, err := sub.fn(env)
			if err != nil {
				return storage.Value{}, err
			}
			vals := make([]storage.Value, len(members))
			for i, m := range members {
				vv, err := m.fn(env)
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
		fn := func(env *Env) (storage.Value, error) {
			v, err := sub.fn(env)
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
		name := x.Func
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

	if lc.con != nil && rc.con != nil {
		if v, err := sqlmini.ApplyBinary(op, *lc.con, *rc.con); err == nil {
			return constExpr(v), nil
		}
	}

	both := func(env *Env) (storage.Value, error) {
		l, err := lc.fn(env)
		if err != nil {
			return storage.Value{}, err
		}
		r, err := rc.fn(env)
		if err != nil {
			return storage.Value{}, err
		}
		return sqlmini.ApplyBinary(op, l, r)
	}

	switch op {
	case sqlmini.OpAnd, sqlmini.OpOr:
		total := lc.boolTotal() && rc.boolTotal()
		fn := both
		if rc.boolTotal() {
			// The skipped operand provably cannot error, so skipping
			// it is invisible: the interpreter would evaluate it and
			// discard the value.
			isAnd := op == sqlmini.OpAnd
			fn = func(env *Env) (storage.Value, error) {
				l, err := lc.fn(env)
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
				r, err := rc.fn(env)
				if err != nil {
					return storage.Value{}, err
				}
				return sqlmini.ApplyBinary(op, l, r)
			}
		}
		return exprC{fn: fn, total: total, kinds: kBool}, nil

	case sqlmini.OpEq, sqlmini.OpNe, sqlmini.OpLt, sqlmini.OpLe, sqlmini.OpGt, sqlmini.OpGe:
		total := lc.total && rc.total && comparableMasks(lc.kinds, rc.kinds)
		return exprC{fn: both, total: total, kinds: kBool}, nil

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
