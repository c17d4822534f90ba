package types

import (
	"math"
	"math/rand"
	"testing"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "NULL",
		KindInt:    "INTEGER",
		KindFloat:  "FLOAT",
		KindString: "VARCHAR",
		KindBool:   "BOOLEAN",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
	}{
		{"INT", KindInt}, {"integer", KindInt}, {"BIGINT", KindInt},
		{"FLOAT", KindFloat}, {"double", KindFloat}, {"DECIMAL", KindFloat},
		{"VARCHAR", KindString}, {"text", KindString}, {"CHAR", KindString},
		{"BOOLEAN", KindBool}, {"bool", KindBool},
	} {
		got, err := ParseKind(tc.in)
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", tc.in, err)
		}
		if got != tc.want {
			t.Errorf("ParseKind(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if _, err := ParseKind("BLOB"); err == nil {
		t.Error("ParseKind(BLOB) should fail")
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null() not null")
	}
	if v := NewInt(42); v.Int() != 42 || v.Kind() != KindInt {
		t.Errorf("NewInt: %v", v)
	}
	if v := NewFloat(2.5); v.Float() != 2.5 || v.Kind() != KindFloat {
		t.Errorf("NewFloat: %v", v)
	}
	if v := NewString("NY"); v.Str() != "NY" || v.Kind() != KindString {
		t.Errorf("NewString: %v", v)
	}
	if v := NewBool(true); !v.Bool() {
		t.Errorf("NewBool(true): %v", v)
	}
	if v := NewBool(false); v.Bool() {
		t.Errorf("NewBool(false): %v", v)
	}
	// Float() widens ints.
	if got := NewInt(3).Float(); got != 3.0 {
		t.Errorf("Int.Float() = %v", got)
	}
}

func TestValueAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("Int on string", func() { NewString("x").Int() })
	mustPanic("Str on int", func() { NewInt(1).Str() })
	mustPanic("Bool on null", func() { Null().Bool() })
	mustPanic("Float on bool", func() { NewBool(true).Float() })
}

func TestValueString(t *testing.T) {
	for _, tc := range []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{NewInt(-7), "-7"},
		{NewFloat(1.5), "1.5"},
		{NewString("abc"), "abc"},
		{NewBool(true), "TRUE"},
		{NewBool(false), "FALSE"},
	} {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
	if got := NewString("o'brien").SQLLiteral(); got != "'o''brien'" {
		t.Errorf("SQLLiteral = %q", got)
	}
}

func TestTriLogic(t *testing.T) {
	// Kleene truth tables.
	and := [3][3]Tri{
		//        F        T        U
		{False, False, False},     // F
		{False, True, Unknown},    // T
		{False, Unknown, Unknown}, // U
	}
	or := [3][3]Tri{
		{False, True, Unknown},
		{True, True, True},
		{Unknown, True, Unknown},
	}
	vals := []Tri{False, True, Unknown}
	for i, a := range vals {
		for j, b := range vals {
			if got := a.And(b); got != and[i][j] {
				t.Errorf("%v AND %v = %v, want %v", a, b, got, and[i][j])
			}
			if got := a.Or(b); got != or[i][j] {
				t.Errorf("%v OR %v = %v, want %v", a, b, got, or[i][j])
			}
		}
	}
	if True.Not() != False || False.Not() != True || Unknown.Not() != Unknown {
		t.Error("Not truth table broken")
	}
	if !Unknown.Value().IsNull() {
		t.Error("Unknown.Value() should be NULL")
	}
	if !True.Value().Bool() {
		t.Error("True.Value() should be TRUE")
	}
}

func TestCompare(t *testing.T) {
	for _, tc := range []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(2), NewFloat(2.0), 0},
		{NewFloat(1.5), NewInt(2), -1},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{NewBool(false), NewBool(true), -1},
	} {
		got, err := Compare(tc.a, tc.b)
		if err != nil {
			t.Fatalf("Compare(%v,%v): %v", tc.a, tc.b, err)
		}
		if got != tc.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
	if _, err := Compare(NewInt(1), NewString("x")); err == nil {
		t.Error("cross-kind compare should fail")
	}
	if _, err := Compare(Null(), NewInt(1)); err == nil {
		t.Error("NULL compare should fail")
	}
}

func TestCompareTri(t *testing.T) {
	// NULL operands yield Unknown for every operator.
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		got, err := CompareTri(op, Null(), NewInt(1))
		if err != nil || got != Unknown {
			t.Errorf("CompareTri(%s, NULL, 1) = %v, %v", op, got, err)
		}
	}
	cases := []struct {
		op   string
		a, b Value
		want Tri
	}{
		{"=", NewInt(2), NewInt(2), True},
		{"<>", NewInt(2), NewInt(2), False},
		{"<", NewInt(1), NewInt(2), True},
		{"<=", NewInt(2), NewInt(2), True},
		{">", NewInt(1), NewInt(2), False},
		{">=", NewFloat(2.5), NewInt(2), True},
		{"=", NewString("NY"), NewString("NY"), True},
	}
	for _, tc := range cases {
		got, err := CompareTri(tc.op, tc.a, tc.b)
		if err != nil {
			t.Fatalf("CompareTri(%s,%v,%v): %v", tc.op, tc.a, tc.b, err)
		}
		if got != tc.want {
			t.Errorf("CompareTri(%s,%v,%v) = %v, want %v", tc.op, tc.a, tc.b, got, tc.want)
		}
	}
	if _, err := CompareTri("~", NewInt(1), NewInt(2)); err == nil {
		t.Error("unknown op should fail")
	}
}

func TestEqualNullSemantics(t *testing.T) {
	if !Equal(Null(), Null()) {
		t.Error("grouping equality: NULL = NULL should hold")
	}
	if Equal(Null(), NewInt(0)) {
		t.Error("NULL != 0")
	}
	if !Equal(NewInt(2), NewFloat(2)) {
		t.Error("2 = 2.0 should hold")
	}
}

func TestArith(t *testing.T) {
	for _, tc := range []struct {
		op   string
		a, b Value
		want Value
	}{
		{"+", NewInt(2), NewInt(3), NewInt(5)},
		{"-", NewInt(2), NewInt(3), NewInt(-1)},
		{"*", NewInt(4), NewInt(3), NewInt(12)},
		{"/", NewInt(7), NewInt(2), NewInt(3)},
		{"%", NewInt(7), NewInt(2), NewInt(1)},
		{"+", NewFloat(1.5), NewInt(1), NewFloat(2.5)},
		{"/", NewFloat(1), NewFloat(4), NewFloat(0.25)},
		{"||", NewString("a"), NewString("b"), NewString("ab")},
	} {
		got, err := Arith(tc.op, tc.a, tc.b)
		if err != nil {
			t.Fatalf("Arith(%s,%v,%v): %v", tc.op, tc.a, tc.b, err)
		}
		if !Equal(got, tc.want) {
			t.Errorf("Arith(%s,%v,%v) = %v, want %v", tc.op, tc.a, tc.b, got, tc.want)
		}
	}
	// NULL propagation.
	if got, err := Arith("+", Null(), NewInt(1)); err != nil || !got.IsNull() {
		t.Errorf("NULL + 1 = %v, %v", got, err)
	}
	// Division by zero.
	if _, err := Arith("/", NewInt(1), NewInt(0)); err == nil {
		t.Error("int division by zero should fail")
	}
	if _, err := Arith("/", NewFloat(1), NewFloat(0)); err == nil {
		t.Error("float division by zero should fail")
	}
	// Type errors.
	if _, err := Arith("+", NewString("a"), NewInt(1)); err == nil {
		t.Error("string + int should fail")
	}
}

func TestNeg(t *testing.T) {
	if v, err := Neg(NewInt(5)); err != nil || v.Int() != -5 {
		t.Errorf("Neg(5) = %v, %v", v, err)
	}
	if v, err := Neg(NewFloat(2.5)); err != nil || v.Float() != -2.5 {
		t.Errorf("Neg(2.5) = %v, %v", v, err)
	}
	if v, err := Neg(Null()); err != nil || !v.IsNull() {
		t.Errorf("Neg(NULL) = %v, %v", v, err)
	}
	if _, err := Neg(NewString("x")); err == nil {
		t.Error("Neg(string) should fail")
	}
}

func TestCoerce(t *testing.T) {
	if v, err := Coerce(NewInt(3), KindFloat); err != nil || v.Float() != 3.0 || v.Kind() != KindFloat {
		t.Errorf("Coerce int->float: %v, %v", v, err)
	}
	if v, err := Coerce(NewFloat(3.7), KindInt); err != nil || v.Int() != 3 {
		t.Errorf("Coerce float->int: %v, %v", v, err)
	}
	if v, err := Coerce(Null(), KindInt); err != nil || !v.IsNull() {
		t.Errorf("Coerce NULL: %v, %v", v, err)
	}
	if _, err := Coerce(NewString("3"), KindInt); err == nil {
		t.Error("implicit string->int should fail")
	}
}

func TestHashEqualConsistency(t *testing.T) {
	// Equal values must hash equal, including the INT/FLOAT cross-kind case.
	pairs := [][2]Value{
		{NewInt(7), NewFloat(7)},
		{NewString("x"), NewString("x")},
		{Null(), Null()},
		{NewBool(true), NewBool(true)},
	}
	for _, p := range pairs {
		if p[0].Hash() != p[1].Hash() {
			t.Errorf("Equal values hash differently: %v vs %v", p[0], p[1])
		}
	}
	if NewInt(1).Hash() == NewInt(2).Hash() {
		t.Error("distinct ints should (almost surely) hash differently")
	}
	if math.MaxInt64 == 0 { // keep math import honest in minimal builds
		t.Fatal("unreachable")
	}
}

// refHash is Value.Hash as it was written before INTs within ±2^53 skipped
// the float round trip: the hashes key nothing persistent, but the fast
// paths must not move one.
func refHash(v Value) uint64 {
	h := uint64(14695981039346656037)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	switch v.kind {
	case KindNull:
		mix(0)
	case KindInt, KindFloat:
		f := v.Float()
		if f == math.Trunc(f) && !math.IsInf(f, 0) && f >= math.MinInt64 && f <= math.MaxInt64 {
			u := uint64(int64(f))
			mix(1)
			for s := 0; s < 64; s += 8 {
				mix(byte(u >> s))
			}
		} else {
			u := math.Float64bits(f)
			mix(2)
			for s := 0; s < 64; s += 8 {
				mix(byte(u >> s))
			}
		}
	case KindString:
		mix(3)
		for i := 0; i < len(v.s); i++ {
			mix(v.s[i])
		}
	case KindBool:
		mix(4)
		mix(byte(v.i))
	}
	return h
}

// TestHashAndEqualFastPaths: INT hashing without the float round trip gives
// the reference hash on both sides of ±2^53 and at the int64 limits, and the
// same-kind Equal shortcuts agree with Compare across kinds.
func TestHashAndEqualFastPaths(t *testing.T) {
	vals := []Value{Null(), NewBool(true), NewBool(false), NewString(""), NewString("abc"),
		NewFloat(2), NewFloat(-0.0), NewFloat(2.5), NewFloat(math.Inf(1)), NewFloat(math.NaN()), NewFloat(1 << 60)}
	for _, i := range []int64{0, 1, -1, 2, 255, 1 << 53, -1 << 53, 1<<53 + 1, -1<<53 - 1, 1 << 60,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1} {
		vals = append(vals, NewInt(i))
	}
	for _, v := range vals {
		if got, want := v.Hash(), refHash(v); got != want {
			t.Errorf("%v (%s): hash %x, reference %x", v, v.kind, got, want)
		}
		for _, o := range vals {
			want := v.IsNull() && o.IsNull()
			if !v.IsNull() && !o.IsNull() {
				c, err := Compare(v, o)
				want = err == nil && c == 0
			}
			if got := Equal(v, o); got != want {
				t.Errorf("Equal(%v %s, %v %s) = %v, want %v", v, v.kind, o, o.kind, got, want)
			}
		}
	}
	if NewInt(2).Hash() != NewFloat(2).Hash() {
		t.Error("INT 2 and FLOAT 2.0 hash apart")
	}
}

// TestOrderKeyAgreesWithCompareOrder pins OrderKey's contract over random
// pairs of one comparison class: a smaller key means a smaller value, a
// smaller value never has a larger key, and equal exact keys mean equal
// values. The values crowd the edges: INTs around ±2^53 and the int64
// limits, FLOATs that are -0, ±Inf, NaN or integral, strings that share
// 8-byte prefixes or end in NUL bytes.
func TestOrderKeyAgreesWithCompareOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	edgeInts := []int64{0, 1, -1, 1<<53 - 1, 1 << 53, 1<<53 + 1, -1<<53 + 1, -1 << 53, -1<<53 - 1, math.MaxInt64, math.MinInt64}
	edgeFloats := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(), 1 << 53, 1<<53 + 2, -1 << 53, 1 << 63, -1 << 63, 0.5, -0.5}
	randInt := func() int64 {
		switch rng.Intn(3) {
		case 0:
			return edgeInts[rng.Intn(len(edgeInts))] + int64(rng.Intn(5)-2)
		case 1:
			return int64(rng.Intn(21) - 10)
		}
		return int64(rng.Uint64())
	}
	randValue := func(class int) Value {
		switch class {
		case 0: // numbers
			switch rng.Intn(4) {
			case 0:
				return NewInt(randInt())
			case 1:
				return NewFloat(edgeFloats[rng.Intn(len(edgeFloats))])
			case 2:
				return NewFloat(float64(randInt()) + float64(rng.Intn(3)-1)*0.5)
			}
			return NewFloat(math.Float64frombits(rng.Uint64()))
		case 1: // strings
			b := make([]byte, rng.Intn(12))
			for i := range b {
				b[i] = "ab\x00\xff"[rng.Intn(4)]
			}
			return NewString(string(b))
		}
		return NewBool(rng.Intn(2) == 1)
	}
	for n := 0; n < 200_000; n++ {
		class := rng.Intn(3)
		a, b := randValue(class), randValue(class)
		c, err := CompareOrder(a, b)
		if err != nil {
			t.Fatalf("CompareOrder(%v, %v): %v", a, b, err)
		}
		ka, xa := OrderKey(a)
		kb, xb := OrderKey(b)
		switch {
		case ka < kb && c >= 0, ka > kb && c <= 0:
			t.Fatalf("keys %#x, %#x order %v, %v the other way (CompareOrder %d)", ka, kb, a, b, c)
		case ka == kb && xa && xb && c != 0:
			t.Fatalf("%v and %v have equal exact keys %#x but CompareOrder %d", a, b, ka, c)
		}
	}
	nan, _ := OrderKey(NewFloat(math.NaN()))
	negNaN, _ := OrderKey(NewFloat(-math.NaN()))
	inf, _ := OrderKey(NewFloat(math.Inf(1)))
	zero, _ := OrderKey(NewFloat(0))
	negZero, _ := OrderKey(NewFloat(math.Copysign(0, -1)))
	intZero, _ := OrderKey(NewInt(0))
	if nan != negNaN || nan <= inf || zero != negZero || zero != intZero {
		t.Errorf("NaN %#x, -NaN %#x, +Inf %#x, 0 %#x, -0 %#x, INT 0 %#x", nan, negNaN, inf, zero, negZero, intZero)
	}
	for _, v := range []Value{NewInt(1 << 53), NewInt(-1 << 53), NewString("")} {
		if _, exact := OrderKey(v); exact {
			t.Errorf("OrderKey(%v) is exact", v)
		}
	}
}

// TestCompareOrderIsTransitive: INT 2^53+1, FLOAT 2^53 and INT 2^53 form
// a chain that Compare ties link by link but orders at its ends; CompareOrder
// orders the chain below, which ends in +Inf and then NaN.
func TestCompareOrderIsTransitive(t *testing.T) {
	chain := []Value{NewFloat(math.Inf(-1)), NewInt(math.MinInt64), NewInt(-1 << 53), NewFloat(-0.5), NewFloat(math.Copysign(0, -1)),
		NewFloat(0.5), NewInt(1 << 53), NewFloat(1 << 53), NewInt(1<<53 + 1), NewInt(math.MaxInt64), NewFloat(1 << 63), NewFloat(math.Inf(1)), NewFloat(math.NaN())}
	for i, a := range chain {
		for j, b := range chain {
			c, err := CompareOrder(a, b)
			want := 0
			switch {
			case i < j:
				want = -1
			case i > j:
				want = 1
			}
			if i+j == 13 && (i == 6 || i == 7) {
				want = 0 // INT 2^53 is FLOAT 2^53
			}
			if err != nil || c != want {
				t.Errorf("CompareOrder(%v, %v) = %d, %v; want %d", a, b, c, err, want)
			}
		}
	}
}
