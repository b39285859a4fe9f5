// Package storage implements the in-memory relational store that the rule
// engine executes against: typed values, tuples with stable identities,
// tables, and whole-database snapshots with canonical fingerprints.
//
// It substitutes for the Starburst DBMS substrate of the paper. Only the
// behaviour the rule semantics of Section 2 depends on is implemented:
// insert/delete/update with tuple identity (needed for net-effect
// transitions) and deterministic state comparison (needed by the execution
// graph model checker of Section 4).
package storage

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"

	"activerules/internal/schema"
)

// ValueKind tags the dynamic type of a Value.
type ValueKind int

// Value kinds. Null is the SQL null, admitted for any column type.
const (
	KindNull ValueKind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the lowercase kind name.
func (k ValueKind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("ValueKind(%d)", int(k))
	}
}

// Value is a dynamically typed SQL value. Values are comparable with ==
// (all fields are comparable), so they may be used as map keys; use Equal
// for SQL equality, which additionally identifies int and float values of
// equal magnitude.
type Value struct {
	Kind ValueKind
	I    int64
	F    float64
	S    string
	B    bool
}

// Null is the SQL null value.
var Null = Value{Kind: KindNull}

// IntV returns an integer value.
func IntV(i int64) Value { return Value{Kind: KindInt, I: i} }

// FloatV returns a floating-point value.
func FloatV(f float64) Value { return Value{Kind: KindFloat, F: f} }

// StringV returns a string value.
func StringV(s string) Value { return Value{Kind: KindString, S: s} }

// BoolV returns a boolean value.
func BoolV(b bool) Value { return Value{Kind: KindBool, B: b} }

// IsNull reports whether the value is SQL null.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// IsNumeric reports whether the value is an int or a float.
func (v Value) IsNumeric() bool { return v.Kind == KindInt || v.Kind == KindFloat }

// AsFloat returns the numeric value as a float64. It panics for
// non-numeric values.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt:
		return float64(v.I)
	case KindFloat:
		return v.F
	default:
		panic("storage: AsFloat on non-numeric value " + v.String())
	}
}

// Equal reports SQL value equality: null equals nothing (not even null);
// ints and floats compare numerically; otherwise kinds and payloads must
// match. Use Compare for a three-valued result.
func (v Value) Equal(o Value) bool {
	eq, known := v.Compare(o)
	return known && eq == 0
}

// Compare performs a three-way comparison. The second result is false when
// the comparison is unknown (either operand null, or incomparable kinds);
// the first result is then meaningless. Two ints compare exactly;
// an int and a float compare as float64s. Strings compare
// lexicographically, bools false<true.
func (v Value) Compare(o Value) (int, bool) {
	if v.IsNull() || o.IsNull() {
		return 0, false
	}
	if v.Kind == KindInt && o.Kind == KindInt {
		return cmp.Compare(v.I, o.I), true
	}
	if v.IsNumeric() && o.IsNumeric() {
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1, true
		case a > b:
			return 1, true
		default:
			return 0, true
		}
	}
	if v.Kind != o.Kind {
		return 0, false
	}
	switch v.Kind {
	case KindString:
		return strings.Compare(v.S, o.S), true
	case KindBool:
		switch {
		case v.B == o.B:
			return 0, true
		case !v.B:
			return -1, true
		default:
			return 1, true
		}
	}
	return 0, false
}

// MatchesType reports whether the value may be stored in a column of the
// given schema type. Null matches every type, and ints are accepted for
// float columns.
func (v Value) MatchesType(t schema.Type) bool {
	switch v.Kind {
	case KindNull:
		return true
	case KindInt:
		return t == schema.Int || t == schema.Float
	case KindFloat:
		return t == schema.Float
	case KindString:
		return t == schema.String
	case KindBool:
		return t == schema.Bool
	default:
		return false
	}
}

// Coerce converts the value to the representation used for a column of
// type t (e.g. int literal stored into a float column becomes a float).
// It returns an error when the value does not match the type.
func (v Value) Coerce(t schema.Type) (Value, error) {
	if !v.MatchesType(t) {
		return Value{}, fmt.Errorf("storage: value %s does not match column type %s", v, t)
	}
	if t == schema.Float && v.Kind == KindInt {
		return FloatV(float64(v.I)), nil
	}
	return v, nil
}

// String renders the value in SQL literal syntax.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "null"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case KindBool:
		if v.B {
			return "true"
		}
		return "false"
	default:
		return fmt.Sprintf("Value(kind=%d)", int(v.Kind))
	}
}

// AppendCanonical appends the canonical byte encoding of the value,
// suitable for fingerprinting (injective and kind-prefixed).
func (v Value) AppendCanonical(b []byte) []byte { return v.encode(b) }

// encode appends a canonical byte encoding of the value, used for
// fingerprints. The encoding is injective per kind and kind-prefixed.
func (v Value) encode(b []byte) []byte {
	switch v.Kind {
	case KindNull:
		return append(b, 'N')
	case KindInt:
		b = append(b, 'I')
		return strconv.AppendInt(b, v.I, 10)
	case KindFloat:
		b = append(b, 'F')
		return strconv.AppendUint(b, math.Float64bits(v.F), 16)
	case KindString:
		b = append(b, 'S')
		b = strconv.AppendInt(b, int64(len(v.S)), 10)
		b = append(b, ':')
		return append(b, v.S...)
	case KindBool:
		if v.B {
			return append(b, 'T')
		}
		return append(b, 'f')
	default:
		return append(b, '?')
	}
}
