package sqlmini

import (
	"fmt"

	"activerules/internal/storage"
)

// This file holds the pure value-level semantics that the interpreter
// and internal/compile both call. The compiled fast path differs from the
// interpreter only in binding and dispatch (static slots instead of the
// runtime frame chain); every value-level decision — three-valued
// logic, null placement, comparison errors, aggregate folding — goes
// through these shared helpers, so the two paths cannot drift apart at
// the value level. The differential battery then checks the dispatch
// layer.

// Rows returns the transition table of the given kind (nil receiver and
// unknown kinds yield nil).
func (td *TransitionData) Rows(k TransKind) [][]storage.Value {
	if td == nil {
		return nil
	}
	switch k {
	case TransInserted:
		return td.Inserted
	case TransDeleted:
		return td.Deleted
	case TransNewUpdated:
		return td.NewUpdated
	case TransOldUpdated:
		return td.OldUpdated
	default:
		return nil
	}
}

// PredTruth interprets a predicate result: true satisfies; false and
// null do not; any other kind is a type error.
func PredTruth(v storage.Value) (bool, error) {
	if v.IsNull() {
		return false, nil
	}
	if v.Kind != storage.KindBool {
		return false, fmt.Errorf("sql: WHERE clause evaluated to non-boolean %s", v)
	}
	return v.B, nil
}

// ApplyBinary applies a binary operator to already-evaluated operands
// (expression evaluation has no side effects, so AND/OR need no
// short-circuiting — only Kleene null handling).
func ApplyBinary(op BinaryOp, l, r storage.Value) (storage.Value, error) {
	if op == OpAnd || op == OpOr {
		lb, lNull, err := BoolOrNull(l)
		if err != nil {
			return storage.Value{}, err
		}
		rb, rNull, err := BoolOrNull(r)
		if err != nil {
			return storage.Value{}, err
		}
		if op == OpAnd {
			switch {
			case !lNull && !lb, !rNull && !rb:
				return storage.BoolV(false), nil
			case lNull || rNull:
				return storage.Null, nil
			default:
				return storage.BoolV(true), nil
			}
		}
		switch {
		case !lNull && lb, !rNull && rb:
			return storage.BoolV(true), nil
		case lNull || rNull:
			return storage.Null, nil
		default:
			return storage.BoolV(false), nil
		}
	}

	switch op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		cmp, known := l.Compare(r)
		if !known {
			if l.IsNull() || r.IsNull() {
				return storage.Null, nil
			}
			return storage.Value{}, fmt.Errorf("sql: cannot compare %s with %s", l, r)
		}
		return storage.BoolV(CompareHolds(op, cmp)), nil
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		if l.IsNull() || r.IsNull() {
			return storage.Null, nil
		}
		if !l.IsNumeric() || !r.IsNumeric() {
			return storage.Value{}, fmt.Errorf("sql: arithmetic on non-numeric values %s, %s", l, r)
		}
		if l.Kind == storage.KindInt && r.Kind == storage.KindInt {
			a, b := l.I, r.I
			switch op {
			case OpAdd:
				return storage.IntV(a + b), nil
			case OpSub:
				return storage.IntV(a - b), nil
			case OpMul:
				return storage.IntV(a * b), nil
			case OpDiv:
				if b == 0 {
					return storage.Value{}, ErrDivisionByZero
				}
				return storage.IntV(a / b), nil
			case OpMod:
				if b == 0 {
					return storage.Value{}, ErrDivisionByZero
				}
				return storage.IntV(a % b), nil
			}
		}
		if op == OpMod {
			return storage.Value{}, fmt.Errorf("sql: %% requires integer operands")
		}
		a, b := l.AsFloat(), r.AsFloat()
		switch op {
		case OpAdd:
			return storage.FloatV(a + b), nil
		case OpSub:
			return storage.FloatV(a - b), nil
		case OpMul:
			return storage.FloatV(a * b), nil
		case OpDiv:
			if b == 0 {
				return storage.Value{}, ErrDivisionByZero
			}
			return storage.FloatV(a / b), nil
		}
	}
	return storage.Value{}, fmt.Errorf("sql: unknown binary op %d", op)
}

// CompareHolds reports whether a three-way comparison result satisfies
// the comparison operator op.
func CompareHolds(op BinaryOp, cmp int) bool {
	switch op {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	}
	return false
}

// BoolOrNull extracts a boolean with a null flag, erroring for other kinds.
func BoolOrNull(v storage.Value) (b, isNull bool, err error) {
	if v.IsNull() {
		return false, true, nil
	}
	if v.Kind != storage.KindBool {
		return false, false, fmt.Errorf("sql: expected boolean, got %s", v)
	}
	return v.B, false, nil
}

// ApplyUnary applies a unary operator to an evaluated operand.
func ApplyUnary(op UnaryOp, v storage.Value) (storage.Value, error) {
	switch op {
	case UnaryNeg:
		if v.IsNull() {
			return storage.Null, nil
		}
		switch v.Kind {
		case storage.KindInt:
			return storage.IntV(-v.I), nil
		case storage.KindFloat:
			return storage.FloatV(-v.F), nil
		default:
			return storage.Value{}, fmt.Errorf("sql: cannot negate %s", v)
		}
	case UnaryNot:
		if v.IsNull() {
			return storage.Null, nil
		}
		if v.Kind != storage.KindBool {
			return storage.Value{}, fmt.Errorf("sql: NOT of non-boolean %s", v)
		}
		return storage.BoolV(!v.B), nil
	default:
		return storage.Value{}, fmt.Errorf("sql: unknown unary op %d", op)
	}
}

// InResult computes SQL IN semantics with nulls: true if any member
// equals, unknown (null) if no member equals but some comparison was
// unknown, false otherwise. Negate flips true/false but leaves unknown.
func InResult(v storage.Value, members []storage.Value, negate bool) storage.Value {
	sawUnknown := false
	for _, m := range members {
		cmp, known := v.Compare(m)
		if !known {
			sawUnknown = true
			continue
		}
		if cmp == 0 {
			return storage.BoolV(!negate)
		}
	}
	if sawUnknown {
		return storage.Null
	}
	return storage.BoolV(negate)
}

// DedupRows removes duplicate projected rows, keeping first occurrences
// (which preserves any ORDER BY placement).
func DedupRows(rows [][]storage.Value) [][]storage.Value {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	for _, row := range rows {
		var key []byte
		for _, v := range row {
			key = v.AppendCanonical(key)
			key = append(key, ',')
		}
		k := string(key)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, row)
	}
	return out
}

// HasAggregateItems reports whether any select item is an aggregate call.
func HasAggregateItems(s *Select) bool {
	for _, it := range s.Items {
		if _, ok := it.Expr.(*Aggregate); ok {
			return true
		}
	}
	return false
}

// ScalarResult collapses a subquery result to a scalar: no rows is
// null, one row yields its first column, more is an error.
func ScalarResult(rows [][]storage.Value) (storage.Value, error) {
	switch len(rows) {
	case 0:
		return storage.Null, nil
	case 1:
		return rows[0][0], nil
	default:
		return storage.Value{}, fmt.Errorf("sql: scalar subquery returned %d rows", len(rows))
	}
}

// FoldAggregate computes an aggregate function over the collected
// non-null argument values (count(*) is handled by the caller, which
// knows the raw row count).
func FoldAggregate(fn string, vals []storage.Value) (storage.Value, error) {
	switch fn {
	case "count":
		return storage.IntV(int64(len(vals))), nil
	case "sum", "avg":
		if len(vals) == 0 {
			return storage.Null, nil
		}
		allInt := true
		var fsum float64
		var isum int64
		for _, v := range vals {
			if !v.IsNumeric() {
				return storage.Value{}, fmt.Errorf("sql: %s over non-numeric value %s", fn, v)
			}
			if v.Kind != storage.KindInt {
				allInt = false
			}
			fsum += v.AsFloat()
			if v.Kind == storage.KindInt {
				isum += v.I
			}
		}
		if fn == "avg" {
			return storage.FloatV(fsum / float64(len(vals))), nil
		}
		if allInt {
			return storage.IntV(isum), nil
		}
		return storage.FloatV(fsum), nil
	case "min", "max":
		if len(vals) == 0 {
			return storage.Null, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			cmp, known := v.Compare(best)
			if !known {
				return storage.Value{}, fmt.Errorf("sql: %s over incomparable values %s and %s", fn, v, best)
			}
			if fn == "min" && cmp < 0 || fn == "max" && cmp > 0 {
				best = v
			}
		}
		return best, nil
	default:
		return storage.Value{}, fmt.Errorf("sql: unknown aggregate %q", fn)
	}
}

// OrderCompare compares one pair of ORDER BY key values under one sort
// direction: negative means va sorts before vb. Nulls sort last
// ascending / first descending; incomparable non-null kinds are an
// error (and the caller keeps scanning further keys as if equal, like
// the interpreter's comparator).
func OrderCompare(va, vb storage.Value, desc bool) (int, error) {
	switch {
	case va.IsNull() && vb.IsNull():
		return 0, nil
	case va.IsNull():
		if desc {
			return -1, nil
		}
		return 1, nil
	case vb.IsNull():
		if desc {
			return 1, nil
		}
		return -1, nil
	}
	cmp, known := va.Compare(vb)
	if !known {
		return 0, fmt.Errorf("sql: ORDER BY over incomparable values %s and %s", va, vb)
	}
	if desc {
		cmp = -cmp
	}
	return cmp, nil
}

// OrderLess is the full multi-key ORDER BY comparator over
// pre-evaluated key rows: the first error is recorded in *firstErr and
// the offending comparison treated as "not less", exactly like the
// interpreter's in-sort comparator.
func OrderLess(a, b []storage.Value, desc []bool, firstErr *error) bool {
	for k := range desc {
		cmp, err := OrderCompare(a[k], b[k], desc[k])
		if err != nil {
			if *firstErr == nil {
				*firstErr = err
			}
			return false
		}
		if cmp != 0 {
			return cmp < 0
		}
	}
	return false
}
