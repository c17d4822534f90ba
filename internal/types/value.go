// Package types defines the value model shared by every layer of the
// SQL/XNF engine: typed scalar values with SQL NULL semantics, rows, row
// schemas, three-valued logic, comparison, and a compact binary row codec
// used by the storage layer.
package types

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the scalar types supported by the engine. The paper's
// examples use integers, decimals and character data; booleans appear as
// predicate results.
type Kind uint8

// Supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ParseKind maps a SQL type name to a Kind. It accepts the common aliases
// used in DDL (INT, INTEGER, BIGINT, FLOAT, DOUBLE, REAL, DECIMAL, VARCHAR,
// CHAR, TEXT, STRING, BOOLEAN, BOOL).
func ParseKind(name string) (Kind, error) {
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return KindInt, nil
	case "FLOAT", "DOUBLE", "REAL", "DECIMAL", "NUMERIC":
		return KindFloat, nil
	case "VARCHAR", "CHAR", "TEXT", "STRING", "CHARACTER":
		return KindString, nil
	case "BOOLEAN", "BOOL":
		return KindBool, nil
	default:
		return KindNull, fmt.Errorf("types: unknown type name %q", name)
	}
}

// Value is a scalar SQL value. The zero Value is NULL.
type Value struct {
	kind Kind
	i    int64 // payload for KindInt and KindBool (0/1)
	f    float64
	s    string
}

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewFloat returns a floating point value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, f: v} }

// NewString returns a character value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Kind reports the value's kind. NULL values report KindNull.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload. It panics when the value is not an
// integer; callers must check Kind first.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("types: Int() on %s value", v.kind))
	}
	return v.i
}

// Float returns the floating point payload, widening integers.
func (v Value) Float() float64 {
	switch v.kind {
	case KindFloat:
		return v.f
	case KindInt:
		return float64(v.i)
	default:
		panic(fmt.Sprintf("types: Float() on %s value", v.kind))
	}
}

// Str returns the string payload. It panics for non-string values.
func (v Value) Str() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("types: Str() on %s value", v.kind))
	}
	return v.s
}

// Bool returns the boolean payload. It panics for non-boolean values.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("types: Bool() on %s value", v.kind))
	}
	return v.i != 0
}

// IsNumeric reports whether the value is an INT or FLOAT.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// String renders the value the way a query shell would print it.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.i != 0 {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "?"
	}
}

// SQLLiteral renders the value as a SQL literal (strings quoted).
func (v Value) SQLLiteral() string {
	if v.kind == KindString {
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	}
	return v.String()
}

// Tri is SQL's three-valued logic domain.
type Tri uint8

// Three-valued logic constants.
const (
	False Tri = iota
	True
	Unknown
)

// TriOf lifts a Go bool into Tri.
func TriOf(b bool) Tri {
	if b {
		return True
	}
	return False
}

// And implements 3VL conjunction.
func (t Tri) And(o Tri) Tri {
	if t == False || o == False {
		return False
	}
	if t == Unknown || o == Unknown {
		return Unknown
	}
	return True
}

// Or implements 3VL disjunction.
func (t Tri) Or(o Tri) Tri {
	if t == True || o == True {
		return True
	}
	if t == Unknown || o == Unknown {
		return Unknown
	}
	return False
}

// Not implements 3VL negation.
func (t Tri) Not() Tri {
	switch t {
	case True:
		return False
	case False:
		return True
	default:
		return Unknown
	}
}

// Value converts the Tri to a Value (Unknown becomes NULL, per SQL).
func (t Tri) Value() Value {
	switch t {
	case True:
		return NewBool(true)
	case False:
		return NewBool(false)
	default:
		return Null()
	}
}

// String renders the truth value.
func (t Tri) String() string {
	switch t {
	case True:
		return "TRUE"
	case False:
		return "FALSE"
	default:
		return "UNKNOWN"
	}
}

// Compare orders two non-NULL values. It returns -1, 0, or +1 and an error
// when the kinds are incomparable. Numeric kinds compare cross-kind (INT vs
// FLOAT). Comparing anything with NULL yields an error; predicate evaluation
// must route NULLs through 3VL before calling Compare.
func Compare(a, b Value) (int, error) {
	if a.IsNull() || b.IsNull() {
		return 0, fmt.Errorf("types: Compare called with NULL operand")
	}
	switch {
	case a.IsNumeric() && b.IsNumeric():
		if a.kind == KindInt && b.kind == KindInt {
			switch {
			case a.i < b.i:
				return -1, nil
			case a.i > b.i:
				return 1, nil
			default:
				return 0, nil
			}
		}
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		default:
			return 0, nil
		}
	case a.kind == KindString && b.kind == KindString:
		return strings.Compare(a.s, b.s), nil
	case a.kind == KindBool && b.kind == KindBool:
		switch {
		case a.i < b.i:
			return -1, nil
		case a.i > b.i:
			return 1, nil
		default:
			return 0, nil
		}
	default:
		return 0, fmt.Errorf("types: cannot compare %s with %s", a.kind, b.kind)
	}
}

// Comparable reports whether Compare orders two non-NULL values without an
// error: both are numbers (INT or FLOAT), both strings or both booleans.
func Comparable(a, b Value) bool {
	return a.kind == b.kind && a.kind != KindNull || a.IsNumeric() && b.IsNumeric()
}

// CompareOrder is the order ORDER BY sorts by. It is Compare made a total
// order over the numbers: a NaN sorts above every other number and equal to
// another NaN, and an INT compares with a FLOAT exactly. Compare finds a NaN
// equal to every number, and it rounds an INT beyond ±2^53 to the FLOAT
// it compares with, so INT 2^53+1 ties FLOAT 2^53, which ties INT 2^53.
func CompareOrder(a, b Value) (int, error) {
	switch {
	case a.kind == KindInt && b.kind == KindFloat:
		return compareIntFloat(a.i, b.f), nil
	case a.kind == KindFloat && b.kind == KindInt:
		return -compareIntFloat(b.i, a.f), nil
	case a.kind == KindFloat && b.kind == KindFloat && (a.f != a.f || b.f != b.f):
		switch {
		case a.f == a.f:
			return -1, nil
		case b.f == b.f:
			return 1, nil
		}
		return 0, nil
	}
	return Compare(a, b)
}

// compareIntFloat orders an INT and a FLOAT without rounding the INT.
func compareIntFloat(i int64, f float64) int {
	switch {
	case f != f || f >= 1<<63:
		return -1
	case f < -1<<63:
		return 1
	}
	t := int64(f) // f truncated: exact, since |f| < 2^63
	switch {
	case i < t:
		return -1
	case i > t:
		return 1
	}
	switch frac := f - float64(t); {
	case frac > 0:
		return -1
	case frac < 0:
		return 1
	}
	return 0
}

// OrderKey maps a non-NULL value to a 64-bit key that orders like
// CompareOrder within one comparison class (see Comparable): for a and b of
// one class, OrderKey(a) < OrderKey(b) implies CompareOrder(a, b) < 0, and
// CompareOrder(a, b) < 0 implies OrderKey(a) <= OrderKey(b).
//
//   - Numbers key by the order-preserving bits of their float64, with -0
//     folded into +0 and every NaN one key above +Inf. An INT keys through
//     float64(i), which is monotone, so INTs beyond ±2^53 may only tie.
//   - Strings key by their first 8 bytes, big-endian and zero-padded.
//   - Booleans key as 0 and 1.
//
// exact is false for strings and for INTs beyond ±2^53: their keys can tie
// with unequal values. Two values with equal keys that are both exact
// compare equal under CompareOrder.
func OrderKey(v Value) (key uint64, exact bool) {
	switch v.kind {
	case KindInt:
		return floatKey(float64(v.i)), v.i > -1<<53 && v.i < 1<<53
	case KindFloat:
		return floatKey(v.f), true
	case KindString:
		var b [8]byte
		copy(b[:], v.s)
		return binary.BigEndian.Uint64(b[:]), false
	case KindBool:
		return uint64(v.i), true
	}
	panic(fmt.Sprintf("types: OrderKey on %s value", v.kind))
}

// floatKey maps a float64 to bits that order as unsigned integers like the
// floats do: the sign bit flips for positives, every bit for negatives.
func floatKey(f float64) uint64 {
	if f != f {
		return math.MaxUint64
	}
	if f == 0 {
		f = 0 // -0 keys as +0
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// CompareTri applies Compare under 3VL: any NULL operand yields Unknown.
// The op is one of "=", "<>", "<", "<=", ">", ">=".
func CompareTri(op string, a, b Value) (Tri, error) {
	if a.IsNull() || b.IsNull() {
		return Unknown, nil
	}
	c, err := Compare(a, b)
	if err != nil {
		return Unknown, err
	}
	switch op {
	case "=":
		return TriOf(c == 0), nil
	case "<>", "!=":
		return TriOf(c != 0), nil
	case "<":
		return TriOf(c < 0), nil
	case "<=":
		return TriOf(c <= 0), nil
	case ">":
		return TriOf(c > 0), nil
	case ">=":
		return TriOf(c >= 0), nil
	default:
		return Unknown, fmt.Errorf("types: unknown comparison op %q", op)
	}
}

// Equal reports deep equality treating NULL = NULL as true. It is the
// grouping/duplicate-elimination notion of equality, not the predicate one.
// Same-kind INT and VARCHAR values, the common join and grouping keys,
// compare directly.
func Equal(a, b Value) bool {
	if a.kind == b.kind {
		switch a.kind {
		case KindNull:
			return true
		case KindInt:
			return a.i == b.i
		case KindString:
			return a.s == b.s
		}
	}
	if a.IsNull() || b.IsNull() {
		return false
	}
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// Arith evaluates a binary arithmetic expression under SQL NULL propagation.
// op is one of "+", "-", "*", "/", "%". Division by zero returns an error.
func Arith(op string, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null(), nil
	}
	if op == "||" {
		if a.kind == KindString && b.kind == KindString {
			return NewString(a.s + b.s), nil
		}
		return Null(), fmt.Errorf("types: || requires string operands, got %s and %s", a.kind, b.kind)
	}
	if !a.IsNumeric() || !b.IsNumeric() {
		return Null(), fmt.Errorf("types: arithmetic %q requires numeric operands, got %s and %s", op, a.kind, b.kind)
	}
	if a.kind == KindInt && b.kind == KindInt {
		x, y := a.i, b.i
		switch op {
		case "+":
			return NewInt(x + y), nil
		case "-":
			return NewInt(x - y), nil
		case "*":
			return NewInt(x * y), nil
		case "/":
			if y == 0 {
				return Null(), fmt.Errorf("types: division by zero")
			}
			return NewInt(x / y), nil
		case "%":
			if y == 0 {
				return Null(), fmt.Errorf("types: division by zero")
			}
			return NewInt(x % y), nil
		}
	}
	x, y := a.Float(), b.Float()
	switch op {
	case "+":
		return NewFloat(x + y), nil
	case "-":
		return NewFloat(x - y), nil
	case "*":
		return NewFloat(x * y), nil
	case "/":
		if y == 0 {
			return Null(), fmt.Errorf("types: division by zero")
		}
		return NewFloat(x / y), nil
	case "%":
		return NewFloat(math.Mod(x, y)), nil
	}
	return Null(), fmt.Errorf("types: unknown arithmetic op %q", op)
}

// Neg negates a numeric value under NULL propagation.
func Neg(a Value) (Value, error) {
	switch a.kind {
	case KindNull:
		return Null(), nil
	case KindInt:
		return NewInt(-a.i), nil
	case KindFloat:
		return NewFloat(-a.f), nil
	default:
		return Null(), fmt.Errorf("types: cannot negate %s", a.kind)
	}
}

// Coerce converts v to the requested kind when a lossless or standard SQL
// conversion exists (int<->float, anything-to-string via rendering is NOT
// implicit; strings parse to numbers only explicitly).
func Coerce(v Value, k Kind) (Value, error) {
	if v.IsNull() || v.kind == k {
		return v, nil
	}
	switch {
	case v.kind == KindInt && k == KindFloat:
		return NewFloat(float64(v.i)), nil
	case v.kind == KindFloat && k == KindInt:
		return NewInt(int64(v.f)), nil
	default:
		return Null(), fmt.Errorf("types: cannot coerce %s to %s", v.kind, k)
	}
}

// FNV-1a parameters of Value.Hash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvByte folds one byte into an FNV-1a hash.
func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// fnvTagged hashes a kind tag followed by the eight little-endian bytes of u.
func fnvTagged(tag byte, u uint64) uint64 {
	h := fnvByte(fnvOffset64, tag)
	for s := 0; s < 64; s += 8 {
		h = fnvByte(h, byte(u>>s))
	}
	return h
}

// Hash returns a 64-bit hash of the value, suitable for hash joins and
// grouping. Values that are Equal hash identically (INT 2 and FLOAT 2.0
// hash the same because they compare equal).
func (v Value) Hash() uint64 {
	switch v.kind {
	case KindNull:
		return fnvByte(fnvOffset64, 0)
	case KindInt, KindFloat:
		// An INT within ±2^53 converts to float and back exactly, so it
		// hashes as itself without the round trip.
		if v.kind == KindInt && v.i >= -1<<53 && v.i <= 1<<53 {
			return fnvTagged(1, uint64(v.i))
		}
		// Normalize numerics: integral floats hash as ints.
		f := v.Float()
		if f == math.Trunc(f) && !math.IsInf(f, 0) && f >= math.MinInt64 && f <= math.MaxInt64 {
			return fnvTagged(1, uint64(int64(f)))
		}
		return fnvTagged(2, math.Float64bits(f))
	case KindString:
		h := fnvByte(fnvOffset64, 3)
		for i := 0; i < len(v.s); i++ {
			h = fnvByte(h, v.s[i])
		}
		return h
	case KindBool:
		return fnvByte(fnvByte(fnvOffset64, 4), byte(v.i))
	}
	return fnvOffset64
}
