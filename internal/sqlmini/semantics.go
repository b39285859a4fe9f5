package sqlmini

import (
	"fmt"

	"activerules/internal/storage"
)

// This file exports the pure value-level semantics of the interpreter
// for use by internal/compile. The compiled fast path differs from the
// interpreter only in binding and dispatch (static slots instead of the
// runtime frame chain); every value-level decision — three-valued
// logic, null placement, comparison errors, aggregate folding — goes
// through these shared helpers, so the two paths cannot drift apart at
// the value level. The differential battery then checks the dispatch
// layer.

// Rows returns the transition table of the given kind (nil receiver and
// unknown kinds yield nil, like the interpreter's internal accessor).
func (td *TransitionData) Rows(k TransKind) [][]storage.Value { return td.rows(k) }

// PredTruth interprets a predicate result: true satisfies; false and
// null do not; any other kind is a type error.
func PredTruth(v storage.Value) (bool, error) { return predTruth(v) }

// ApplyBinary applies a binary operator to already-evaluated operands.
func ApplyBinary(op BinaryOp, l, r storage.Value) (storage.Value, error) {
	return applyBinary(op, l, r)
}

// CompareHolds reports whether a three-way comparison result (as
// storage.Value.Compare returns it) satisfies the comparison operator op.
func CompareHolds(op BinaryOp, cmp int) bool { return compareHolds(op, cmp) }

// ApplyUnary applies a unary operator to an evaluated operand.
func ApplyUnary(op UnaryOp, v storage.Value) (storage.Value, error) {
	return applyUnary(op, v)
}

// BoolOrNull extracts a boolean with a null flag, erroring for other
// kinds.
func BoolOrNull(v storage.Value) (b, isNull bool, err error) { return boolOrNull(v) }

// InResult computes SQL IN semantics with nulls over evaluated members.
func InResult(v storage.Value, members []storage.Value, negate bool) storage.Value {
	return inResult(v, members, negate)
}

// DedupRows removes duplicate projected rows, keeping first occurrences.
func DedupRows(rows [][]storage.Value) [][]storage.Value { return dedupRows(rows) }

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

// HasAggregateItems reports whether any select item is an aggregate
// call (the non-grouped aggregate query form).
func HasAggregateItems(s *Select) bool { return hasAggregateItems(s) }
