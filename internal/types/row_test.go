package types

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// arbitraryValue builds a random Value from quick's rand source.
func arbitraryValue(r *rand.Rand) Value {
	switch r.Intn(5) {
	case 0:
		return Null()
	case 1:
		return NewInt(r.Int63() - r.Int63())
	case 2:
		return NewFloat(r.NormFloat64() * 1e6)
	case 3:
		n := r.Intn(20)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		return NewString(string(b))
	default:
		return NewBool(r.Intn(2) == 0)
	}
}

// arbitraryRow builds a random Row.
func arbitraryRow(r *rand.Rand, maxLen int) Row {
	n := r.Intn(maxLen + 1)
	row := make(Row, n)
	for i := range row {
		row[i] = arbitraryValue(r)
	}
	return row
}

// rowGen adapts arbitraryRow for testing/quick.
type rowGen struct{ Row Row }

// Generate implements quick.Generator.
func (rowGen) Generate(r *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(rowGen{Row: arbitraryRow(r, 8)})
}

func TestRowEncodeDecodeRoundTrip(t *testing.T) {
	prop := func(g rowGen) bool {
		enc := g.Row.Encode(nil)
		if len(enc) != g.Row.EncodedSize() {
			return false
		}
		dec, used, err := DecodeRow(enc)
		if err != nil || used != len(enc) {
			return false
		}
		return dec.Equal(g.Row)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRowEncodeAppendsToDst(t *testing.T) {
	r1 := Row{NewInt(1), NewString("a")}
	r2 := Row{NewFloat(2.5), Null()}
	buf := r1.Encode(nil)
	n1 := len(buf)
	buf = r2.Encode(buf)
	d1, used1, err := DecodeRow(buf)
	if err != nil || used1 != n1 || !d1.Equal(r1) {
		t.Fatalf("first row decode: %v %d %v", d1, used1, err)
	}
	d2, _, err := DecodeRow(buf[used1:])
	if err != nil || !d2.Equal(r2) {
		t.Fatalf("second row decode: %v %v", d2, err)
	}
}

func TestDecodeRowCorruption(t *testing.T) {
	good := Row{NewInt(5), NewString("hello"), NewFloat(1.25)}.Encode(nil)
	// Truncations at every prefix length must error, never panic.
	for i := 0; i < len(good); i++ {
		if _, _, err := DecodeRow(good[:i]); err == nil {
			// A prefix may coincidentally decode as a shorter valid row only
			// if it consumed exactly i bytes; Encode's framing prevents that
			// for this row, so any nil error is a bug.
			t.Errorf("truncation at %d bytes decoded successfully", i)
		}
	}
	// Unknown tag.
	bad := append([]byte{1}, 0x7F)
	if _, _, err := DecodeRow(bad); err == nil {
		t.Error("unknown tag should fail")
	}
	// Empty input.
	if _, _, err := DecodeRow(nil); err == nil {
		t.Error("nil input should fail")
	}
	// A value count past the remaining bytes must fail before anything is
	// sized by it, and a string length past them must fail, not wrap.
	huge := binary.AppendUvarint(nil, 1<<62)
	if _, _, err := DecodeRow(append(huge, tagNull)); err == nil {
		t.Error("a value count beyond the input should fail")
	}
	str := append([]byte{1, tagString}, binary.AppendUvarint(nil, 1<<63)...)
	if _, _, err := DecodeRow(append(str, 'x')); err == nil {
		t.Error("a string length beyond the input should fail")
	}
}

func TestRowEqualAndHash(t *testing.T) {
	a := Row{NewInt(1), Null(), NewString("x")}
	b := Row{NewFloat(1), Null(), NewString("x")}
	if !a.Equal(b) {
		t.Error("rows with 1 vs 1.0 should be Equal")
	}
	if a.Hash() != b.Hash() {
		t.Error("Equal rows must hash equal")
	}
	if a.Equal(Row{NewInt(1)}) {
		t.Error("different arity rows cannot be Equal")
	}
	c := a.Clone()
	c[0] = NewInt(2)
	if a[0].Int() != 1 {
		t.Error("Clone must not alias")
	}
}

func TestRowString(t *testing.T) {
	r := Row{NewInt(1), NewString("a"), Null()}
	if got := r.String(); got != "(1, a, NULL)" {
		t.Errorf("Row.String() = %q", got)
	}
}

func TestEncodeKeyOrderPreservation(t *testing.T) {
	// Property: bytewise order of EncodeKey matches value order for
	// same-kind single-column keys, with NULL before everything.
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		var a, b Value
		switch iter % 3 {
		case 0:
			a, b = NewInt(rng.Int63n(2000)-1000), NewInt(rng.Int63n(2000)-1000)
		case 1:
			a, b = NewFloat(rng.NormFloat64()*100), NewFloat(rng.NormFloat64()*100)
		default:
			a, b = NewString(randWord(rng)), NewString(randWord(rng))
		}
		ka, kb := EncodeKey([]Value{a}), EncodeKey([]Value{b})
		cmpKeys := bytes.Compare(ka, kb)
		cmpVals, err := Compare(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if sign(cmpKeys) != sign(cmpVals) {
			t.Fatalf("key order mismatch: %v vs %v (keys %v vs %v)", a, b, ka, kb)
		}
	}
	// NULL sorts first.
	if bytes.Compare(EncodeKey([]Value{Null()}), EncodeKey([]Value{NewInt(math.MinInt64)})) >= 0 {
		t.Error("NULL key must sort before any int")
	}
	// Mixed int/float ordering holds too.
	if bytes.Compare(EncodeKey([]Value{NewInt(2)}), EncodeKey([]Value{NewFloat(2.5)})) >= 0 {
		t.Error("2 must sort before 2.5")
	}
}

func TestEncodeKeyCompositeAndEmbeddedZero(t *testing.T) {
	// Strings with embedded NULs must not confuse ordering of composites.
	rows := []Row{
		{NewString("a\x00b"), NewInt(1)},
		{NewString("a"), NewInt(9)},
		{NewString("a\x00"), NewInt(0)},
		{NewString("ab"), NewInt(0)},
	}
	keys := make([][]byte, len(rows))
	for i, r := range rows {
		keys[i] = EncodeKey(r)
	}
	idx := []int{0, 1, 2, 3}
	sort.Slice(idx, func(i, j int) bool { return bytes.Compare(keys[idx[i]], keys[idx[j]]) < 0 })
	// Expected lexical row order: "a" < "a\x00" < "a\x00b" < "ab".
	want := []int{1, 2, 0, 3}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("composite key order = %v, want %v", idx, want)
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

func randWord(rng *rand.Rand) string {
	n := rng.Intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// FuzzDecodeColumns: for any bytes and any ascending column list (the set
// bits of mask), the selective decode through a RowDecoder — arena and
// borrowed alike — equals the full DecodeRow projected onto those columns,
// consuming the same bytes; and every cell the full decode rejects, the
// selective one rejects too, whichever columns it lists.
func FuzzDecodeColumns(f *testing.F) {
	rows := []Row{
		{NewInt(5), NewString("hello"), NewFloat(1.25)},
		{Null(), NewBool(true), NewBool(false), NewInt(-1 << 40), NewString("")},
		{NewFloat(math.Inf(-1)), NewString("x\x00y"), Null()},
		{},
	}
	for _, r := range rows {
		enc := r.Encode(nil)
		for _, mask := range []uint64{0, 1, 1 << uint(len(r)-1), 0b101, ^uint64(0)} {
			f.Add(enc, mask)
		}
		// Every truncation, with only the first or only the last column
		// listed: the values after or before it are skipped, and each skip
		// must still see the cut.
		for i := range enc {
			f.Add(enc[:i], uint64(1))
			f.Add(enc[:i], uint64(1)<<uint(max(len(r)-1, 0)))
		}
	}
	f.Add([]byte{2, tagFloat, 1, 2, 3}, uint64(2))                 // float cut short
	f.Add([]byte{2, tagString, 0xFF, 0xFF, 0xFF, 0x0F}, uint64(2)) // string past the end
	f.Add([]byte{1, 0x7F}, uint64(0))                              // unknown tag
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0}, uint64(0))      // count past the end
	f.Fuzz(func(t *testing.T, src []byte, mask uint64) {
		full, used, ferr := DecodeRow(src)
		cols := []int{}
		for c := 0; c < 64; c++ {
			if mask>>c&1 == 1 && (ferr != nil || c < len(full)) {
				cols = append(cols, c)
			}
		}
		for _, borrow := range []bool{false, true} {
			d := RowDecoder{Cols: cols, Spare: 1}
			decode := d.Decode
			if borrow {
				decode = d.Borrow
			}
			got, gused, err := decode(src)
			if ferr != nil {
				if err == nil {
					t.Fatalf("borrow=%v cols %v: decoded %v from a cell DecodeRow rejects (%v)", borrow, cols, got, ferr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("borrow=%v cols %v: %v on a cell DecodeRow reads as %v", borrow, cols, err, full)
			}
			want := make(Row, len(cols))
			for i, c := range cols {
				want[i] = full[c]
			}
			if gused != used || !bytes.Equal(got.Encode(nil), want.Encode(nil)) {
				t.Fatalf("borrow=%v cols %v: got %v (%d bytes), want %v (%d bytes)", borrow, cols, got, gused, want, used)
			}
			if cap(got) < len(cols)+1 {
				t.Fatalf("borrow=%v: capacity %d leaves no spare slot past %d columns", borrow, cap(got), len(cols))
			}
		}
	})
}

// TestRowDecoderNilColsDecodesAll: a decoder listing no columns (nil)
// decodes every column; an empty list decodes none but still checks the
// cell.
func TestRowDecoderNilColsDecodesAll(t *testing.T) {
	r := Row{NewInt(1), NewString("a"), NewFloat(2)}
	enc := r.Encode(nil)
	var all RowDecoder
	if got, _, err := all.Decode(enc); err != nil || !got.Equal(r) {
		t.Fatalf("nil Cols: %v, %v", got, err)
	}
	none := RowDecoder{Cols: []int{}}
	if got, used, err := none.Decode(enc); err != nil || len(got) != 0 || used != len(enc) {
		t.Fatalf("empty Cols: %v (%d bytes), %v", got, used, err)
	}
	if _, _, err := none.Decode(enc[:len(enc)-1]); err == nil {
		t.Fatal("empty Cols accepted a truncated cell")
	}
	past := RowDecoder{Cols: []int{3}}
	if _, _, err := past.Decode(enc); err == nil {
		t.Fatal("a column past the row's values decoded")
	}
}
