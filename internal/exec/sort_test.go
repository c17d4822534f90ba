package exec

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sqlxnf/internal/types"
)

// sortCols is the number of key-able columns of a decoded sort case; a
// fourth column carries the row's input position.
const sortCols = 3

// Value palettes of decodeSortCase: each holds values whose keys tie or
// straddle the edges of types.OrderKey.
var (
	sortInts = []int64{
		-3, -1, 0, 1, 2, 7,
		1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<53 + 2, -1<<53 + 1, -1 << 53, -1<<53 - 1,
		math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1,
	}
	sortFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 2.5, -2.5, 7,
		math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(),
		1 << 53, 1<<53 + 2, -1 << 53, math.SmallestNonzeroFloat64, math.MaxFloat64,
	}
	sortStrings = []string{
		"", "\x00", "\x00\x00", "a", "a\x00", "ab", "abcdefg", "abcdefgh",
		"abcdefgh\x00", "abcdefgha", "abcdefghb", "abcdefghbb", "abcdefgi", "\xff", "b",
	}
)

// decodeSortCase turns fuzz bytes into rows and a key list. The first byte
// picks 1–3 keys, one byte each picks a key's column and direction, and one
// byte per column picks its class: INT, FLOAT, a mix of both, VARCHAR,
// BOOL, or any of them row by row. Every later byte is one value; an eighth
// of them are NULL.
func decodeSortCase(data []byte) ([]types.Row, []SortKey) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	keys := make([]SortKey, 1+int(next())%3)
	for i := range keys {
		b := next()
		keys[i] = SortKey{Idx: int(b) % sortCols, Desc: b&0x80 != 0}
	}
	var classes [sortCols]byte
	for c := range classes {
		classes[c] = next() % 6
	}
	var rows []types.Row
	for len(data) > 0 {
		r := make(types.Row, sortCols+1)
		for c := 0; c < sortCols; c++ {
			r[c] = sortValue(classes[c], next())
		}
		r[sortCols] = types.NewInt(int64(len(rows)))
		rows = append(rows, r)
	}
	return rows, keys
}

// sortValue decodes one value of a column class from a byte.
func sortValue(class, b byte) types.Value {
	if b%8 == 0 {
		return types.Null()
	}
	n := int(b >> 3)
	if class == 5 { // any class, row by row
		class, n = byte(n%5), n/5
	}
	switch class {
	case 0:
		return types.NewInt(sortInts[n%len(sortInts)])
	case 1:
		return types.NewFloat(sortFloats[n%len(sortFloats)])
	case 2: // INT and FLOAT in one column
		if n%2 == 0 {
			return types.NewInt(sortInts[n/2%len(sortInts)])
		}
		return types.NewFloat(sortFloats[n/2%len(sortFloats)])
	case 3:
		return types.NewString(sortStrings[n%len(sortStrings)])
	}
	return types.NewBool(n%2 == 1)
}

// checkSortMatchesStable runs Sort over rows and compares it with the
// oracle: slices.SortStableFunc over the compiled row comparator. Rows must
// come out in exactly the oracle's order. Where the keys mix comparison
// classes both must fail with types.Compare's error; which pair of kinds it
// names depends on which rows an algorithm happens to compare first.
func checkSortMatchesStable(t *testing.T, rows []types.Row, keys []SortKey) {
	t.Helper()
	want := slices.Clone(rows)
	cmp := compileComparator(keys)
	var wantErr error
	slices.SortStableFunc(want, func(a, b types.Row) int { return cmp(a, b, &wantErr) })

	schema := make(types.Schema, sortCols+1)
	got, err := Collect(NewContext(), &Sort{Child: &Values{Out: schema, Rows: rows}, Keys: keys})
	if wantErr != nil || err != nil {
		if wantErr == nil || err == nil ||
			!strings.HasPrefix(err.Error(), "types: cannot compare") ||
			!strings.HasPrefix(wantErr.Error(), "types: cannot compare") {
			t.Fatalf("keys %v over %v:\nerr %v\nstable sort err %v", keys, rows, err, wantErr)
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("keys %v: %d rows, want %d", keys, len(got), len(want))
	}
	for i := range want {
		if got[i][sortCols].Int() != want[i][sortCols].Int() {
			t.Fatalf("keys %v over %v:\n got %v\nwant %v", keys, rows, got, want)
		}
	}
}

// FuzzSortMatchesStableComparator: Sort's key entries order rows exactly as
// a stable sort over the row comparator does, over INTs near and beyond
// ±2^53, FLOATs with -0/+0, ±Inf and NaN, strings that share 8-byte
// prefixes or end in NUL bytes, booleans, NULLs, columns that mix classes,
// and 1–3 ASC/DESC keys. The seeds, random cases among them, run in every
// `go test`; `make fuzz` explores beyond them.
func FuzzSortMatchesStableComparator(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 0, 9, 17, 25, 33, 41, 49, 57})
	f.Add([]byte{2, 0x80, 1, 2, 3, 1, 3, 9, 10, 11, 12, 13, 14, 0, 8, 16, 9, 10, 11})
	f.Add([]byte{0, 0x80, 5, 5, 5, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11})
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		data := make([]byte, 8+rng.Intn(200))
		rng.Read(data)
		if i%3 != 0 { // one class per column, so most cases sort without an error
			nk := 1 + int(data[0])%3
			for c := 0; c < sortCols; c++ {
				data[1+nk+c] = byte(rng.Intn(5))
			}
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, keys := decodeSortCase(data)
		checkSortMatchesStable(t, rows, keys)
	})
}
