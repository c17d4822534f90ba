package types

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"
)

// Row is one tuple: a slice of values positionally matched to a Schema.
type Row []Value

// Clone returns a deep-enough copy of the row (values are immutable).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Equal reports whether two rows are value-wise Equal (NULL = NULL).
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !Equal(r[i], o[i]) {
			return false
		}
	}
	return true
}

// Hash combines the hashes of all values in the row.
func (r Row) Hash() uint64 {
	h := uint64(1469598103934665603)
	for _, v := range r {
		h ^= v.Hash()
		h *= 1099511628211
	}
	return h
}

// String renders the row as a parenthesized value list.
func (r Row) String() string {
	s := "("
	for i, v := range r {
		if i > 0 {
			s += ", "
		}
		s += v.String()
	}
	return s + ")"
}

// Value tags used by the binary row codec.
const (
	tagNull   byte = 0
	tagInt    byte = 1
	tagFloat  byte = 2
	tagString byte = 3
	tagTrue   byte = 4
	tagFalse  byte = 5
)

// Encode appends a compact binary encoding of the row to dst and returns the
// extended slice. The encoding is self-describing (kind tags) so rows of
// heterogeneous shape can share a page, which the XNF answer stream needs.
func (r Row) Encode(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r)))
	for _, v := range r {
		switch v.kind {
		case KindNull:
			dst = append(dst, tagNull)
		case KindInt:
			dst = append(dst, tagInt)
			dst = binary.AppendVarint(dst, v.i)
		case KindFloat:
			dst = append(dst, tagFloat)
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.f))
		case KindString:
			dst = append(dst, tagString)
			dst = binary.AppendUvarint(dst, uint64(len(v.s)))
			dst = append(dst, v.s...)
		case KindBool:
			if v.i != 0 {
				dst = append(dst, tagTrue)
			} else {
				dst = append(dst, tagFalse)
			}
		}
	}
	return dst
}

// EncodedSize returns the number of bytes Encode would emit for the row.
func (r Row) EncodedSize() int {
	n := uvarintLen(uint64(len(r)))
	for _, v := range r {
		switch v.kind {
		case KindNull, KindBool:
			n++
		case KindInt:
			n += 1 + varintLen(v.i)
		case KindFloat:
			n += 1 + 8
		case KindString:
			n += 1 + uvarintLen(uint64(len(v.s))) + len(v.s)
		}
	}
	return n
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

func varintLen(x int64) int {
	ux := uint64(x) << 1
	if x < 0 {
		ux = ^ux
	}
	return uvarintLen(ux)
}

// DecodeRow parses a row previously produced by Encode. It returns the row
// and the number of bytes consumed.
func DecodeRow(src []byte) (Row, int, error) {
	n, used, err := rowHeader(src)
	if err != nil {
		return nil, 0, err
	}
	return decodeValues(src, used, n, nil, make(Row, 0, n), false)
}

// Arena hands out rows carved from chunked value allocations: one
// allocation per chunk instead of one per row. Its first row gets an exact
// allocation, so a one-row fetch pays no chunk; the first chunk then holds
// eight rows of that width and each next one doubles up to the max, so a
// few-row result stays small and large batches amortize to one allocation
// per ~thousand values. Reset rewinds the arena: the rows carved
// after it reuse the chunks, so every row carved before becomes invalid. An
// arena that is never Reset hands out each value once, and its rows live as
// long as anything references them. The zero value is ready to use.
type Arena struct {
	chunks [][]Value // every chunk allocated so far, smallest first
	next   int       // chunks[:next] are in use since the last Reset
	free   []Value   // the unused tail of chunks[next-1]
	size   int       // the size of the newest chunk
}

// arenaChunkMax is the size, in values (40 B each), that chunks stop
// doubling at.
const arenaChunkMax = 4096

// poisonReuse makes Reset overwrite the values it hands back, in test
// binaries only: a consumer that reads a row past its producer's next batch
// then reads poisonValue instead of a plausible stale row, and fails.
var poisonReuse = testing.Testing()

var poisonValue = NewString("<poison: row read after its batch was reused>")

// Take returns an empty row with capacity n carved from the arena.
func (a *Arena) Take(n int) Row {
	if len(a.free) < n && !a.refill(n) {
		return make(Row, 0, n)
	}
	row := a.free[:0:n]
	a.free = a.free[n:]
	return row
}

// Copy returns a copy of r carved from the arena.
func (a *Arena) Copy(r Row) Row {
	return append(a.Take(len(r)), r...)
}

// refill makes the next chunk current: a chunk kept from before the last
// Reset when it fits n values, else a new one, at least n long. It reports
// false when the arena's first row gets an exact allocation instead.
func (a *Arena) refill(n int) bool {
	if a.next < len(a.chunks) && len(a.chunks[a.next]) >= n {
		a.free = a.chunks[a.next]
		a.next++
		return true
	}
	switch {
	case a.size == 0:
		a.size = 4 * n
		return false
	case a.size < arenaChunkMax:
		a.size = min(2*a.size, arenaChunkMax)
	}
	c := make([]Value, max(a.size, n))
	if a.next < len(a.chunks) {
		a.chunks[a.next] = c
	} else {
		a.chunks = append(a.chunks, c)
	}
	a.next++
	a.free = c
	return true
}

// Reset rewinds the arena so the rows it carves next reuse its chunks.
func (a *Arena) Reset() {
	if poisonReuse {
		for _, c := range a.chunks[:a.next] {
			for i := range c {
				c[i] = poisonValue
			}
		}
	}
	a.next, a.free = 0, nil
}

// RowDecoder decodes consecutive rows into an Arena, so their value storage
// comes from chunked allocations instead of one allocation per row — the
// page-scan hot path uses it. Decoded rows stay valid until the decoder's
// next Reset; a caller that never calls Reset keeps every row it decoded.
// The zero value is ready to use and decodes every column.
type RowDecoder struct {
	// Cols lists the columns to decode, in ascending order; nil decodes
	// every column. A decoded row holds the listed columns only: the other
	// values are skipped over in place, never built, but still checked, so
	// a cell the full decode rejects fails whichever columns are listed.
	Cols []int
	// Spare is extra capacity reserved past each decoded row's values, so a
	// scan can append that many values (the RID column) without re-allocating
	// the row.
	Spare   int
	arena   Arena
	scratch Row
}

// Reset lets the decoder reuse the memory of every row it decoded before:
// those rows become invalid. Values copied out of them stay valid, since a
// decoded string never aliases its source.
func (d *RowDecoder) Reset() { d.arena.Reset() }

// width is the number of values a decoded row holds, for a cell of n.
func (d *RowDecoder) width(n uint64) int {
	if d.Cols == nil {
		return int(n)
	}
	return len(d.Cols)
}

// Decode parses one row's listed columns into the arena (with Spare
// capacity), returning it and the number of bytes consumed.
func (d *RowDecoder) Decode(src []byte) (Row, int, error) {
	n, used, err := rowHeader(src)
	if err != nil {
		return nil, 0, err
	}
	return decodeValues(src, used, n, d.Cols, d.arena.Take(d.width(n)+d.Spare), false)
}

// Borrow parses one row's listed columns into the decoder's scratch row
// (with Spare capacity) without allocating: its strings alias src. The row
// is valid only while src is unchanged and until the next Borrow; Own
// copies one that must outlive either.
func (d *RowDecoder) Borrow(src []byte) (Row, int, error) {
	n, used, err := rowHeader(src)
	if err != nil {
		return nil, 0, err
	}
	if need := d.width(n) + d.Spare; cap(d.scratch) < need {
		d.scratch = make(Row, 0, need)
	}
	return decodeValues(src, used, n, d.Cols, d.scratch[:0], true)
}

// Own copies a borrowed row into the arena, cloning its strings, so the
// copy shares no bytes with the source Borrow read.
func (d *RowDecoder) Own(borrowed Row) Row {
	row := d.arena.Take(len(borrowed))[:len(borrowed)]
	for i, v := range borrowed {
		if v.kind == KindString {
			v.s = strings.Clone(v.s)
		}
		row[i] = v
	}
	return row
}

// rowHeader reads a row's value count. Every value takes at least its tag
// byte, so a count beyond the remaining bytes is a truncated row, rejected
// before anything is sized by it.
func rowHeader(src []byte) (n uint64, used int, err error) {
	n, used = binary.Uvarint(src)
	if used <= 0 {
		return 0, 0, fmt.Errorf("types: corrupt row header")
	}
	if n > uint64(len(src)-used) {
		return 0, 0, fmt.Errorf("types: truncated row: %d values in %d bytes", n, len(src)-used)
	}
	return n, used, nil
}

// decodeValues walks the n values encoded at src[pos:] and appends those
// that cols lists (every one when cols is nil) to row. Unlisted values are
// bounds-checked exactly like listed ones, but no string of theirs is
// built. With alias set, strings point into src instead of copying it.
func decodeValues(src []byte, pos int, n uint64, cols []int, row Row, alias bool) (Row, int, error) {
	next := 0 // index in cols of the next listed column
	for i := uint64(0); i < n; i++ {
		keep := cols == nil
		if !keep && next < len(cols) && uint64(cols[next]) == i {
			keep = true
			next++
		}
		if pos >= len(src) {
			return nil, 0, fmt.Errorf("types: truncated row at value %d", i)
		}
		tag := src[pos]
		pos++
		var v Value
		switch tag {
		case tagNull:
			v = Null()
		case tagInt:
			x, u := binary.Varint(src[pos:])
			if u <= 0 {
				return nil, 0, fmt.Errorf("types: corrupt int at value %d", i)
			}
			pos += u
			v = NewInt(x)
		case tagFloat:
			if pos+8 > len(src) {
				return nil, 0, fmt.Errorf("types: truncated float at value %d", i)
			}
			v = NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(src[pos:])))
			pos += 8
		case tagString:
			l, u := binary.Uvarint(src[pos:])
			if u <= 0 {
				return nil, 0, fmt.Errorf("types: corrupt string length at value %d", i)
			}
			pos += u
			if l > uint64(len(src)-pos) {
				return nil, 0, fmt.Errorf("types: truncated string at value %d", i)
			}
			if keep {
				b := src[pos : pos+int(l)]
				if alias && l > 0 {
					v = NewString(unsafe.String(&b[0], len(b)))
				} else {
					v = NewString(string(b))
				}
			}
			pos += int(l)
		case tagTrue:
			v = NewBool(true)
		case tagFalse:
			v = NewBool(false)
		default:
			return nil, 0, fmt.Errorf("types: unknown value tag %d", tag)
		}
		if keep {
			row = append(row, v)
		}
	}
	if next < len(cols) {
		return nil, 0, fmt.Errorf("types: row of %d values has no column %d", n, cols[next])
	}
	return row, pos, nil
}

// EncodeKey produces an order-preserving byte encoding of a row prefix, used
// as B+tree keys: bytewise comparison of encoded keys matches row ordering
// (NULLs first, then by value; numerics normalized to float ordering).
func EncodeKey(vals []Value) []byte {
	var dst []byte
	for _, v := range vals {
		switch v.kind {
		case KindNull:
			dst = append(dst, 0x00)
		case KindInt, KindFloat:
			dst = append(dst, 0x01)
			bits := math.Float64bits(v.Float())
			// Flip for order preservation: positive floats get the sign bit
			// set; negative floats are fully complemented.
			if bits&(1<<63) != 0 {
				bits = ^bits
			} else {
				bits |= 1 << 63
			}
			dst = binary.BigEndian.AppendUint64(dst, bits)
		case KindString:
			dst = append(dst, 0x02)
			// Escape 0x00 as 0x00 0xFF so the 0x00 0x01 terminator sorts
			// before any continuation.
			for i := 0; i < len(v.s); i++ {
				b := v.s[i]
				if b == 0x00 {
					dst = append(dst, 0x00, 0xFF)
				} else {
					dst = append(dst, b)
				}
			}
			dst = append(dst, 0x00, 0x01)
		case KindBool:
			dst = append(dst, 0x03, byte(v.i))
		}
	}
	return dst
}
