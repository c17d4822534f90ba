// Frame codec: Request and Response written and read as exactly the JSON
// objects their struct tags describe (same keys, same omitempty rules),
// without reflection. The contract is differential against encoding/json:
// every frame written here, encoding/json reads to the same value; every
// frame encoding/json accepts, the decoders here read to the same value, and
// every frame it rejects, they reject. That covers its decoding quirks too —
// member names matched exactly or else under Unicode case folding, unknown
// members skipped, null leaving scalars as they were, a repeated member
// decoding over the first, numbers in rows decoded as float64, lone
// surrogates and invalid UTF-8 read as U+FFFD, nesting capped at 10 000.
// Spelling may differ: the writer leaves <, >, & and U+2028/2029 unescaped.
// The nested stats payload stays on encoding/json: it is a cold op over
// engine structs.

package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// appendRequest appends r as a JSON object.
func appendRequest(b []byte, r *Request) []byte {
	if r == nil {
		return append(b, "null"...)
	}
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, r.ID, 10)
	b = append(b, `,"op":`...)
	b = appendString(b, r.Op)
	if r.SQL != "" {
		b = append(b, `,"sql":`...)
		b = appendString(b, r.SQL)
	}
	if r.TimeoutMS != 0 {
		b = append(b, `,"timeout_ms":`...)
		b = strconv.AppendInt(b, r.TimeoutMS, 10)
	}
	return append(b, '}')
}

// appendResponse appends r as a JSON object. It fails, like json.Marshal,
// on a non-finite float or a row value of a type the wire does not carry.
func appendResponse(b []byte, r *Response) ([]byte, error) {
	if r == nil {
		return append(b, "null"...), nil
	}
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, r.ID, 10)
	b = append(b, `,"ok":`...)
	b = strconv.AppendBool(b, r.OK)
	if e := r.Err; e != nil {
		b = append(b, `,"error":{"code":`...)
		b = appendString(b, string(e.Code))
		b = append(b, `,"retryable":`...)
		b = strconv.AppendBool(b, e.Retryable)
		b = append(b, `,"message":`...)
		b = appendString(b, e.Message)
		b = append(b, '}')
	}
	if len(r.Columns) > 0 {
		b = append(b, `,"columns":[`...)
		for i, c := range r.Columns {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, c)
		}
		b = append(b, ']')
	}
	if len(r.Rows) > 0 {
		b = append(b, `,"rows":[`...)
		for i, row := range r.Rows {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendArray(b, row); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
	}
	b = appendIntMember(b, `,"rows_affected":`, r.RowsAffected)
	b = appendStringMember(b, `,"explain":`, r.Explain)
	b = appendStringMember(b, `,"co_text":`, r.COText)
	b = appendIntMember(b, `,"retries":`, int64(r.Retries))
	b = appendIntMember(b, `,"elapsed_us":`, r.ElapsedUS)
	if r.Stats != nil {
		stats, err := json.Marshal(r.Stats)
		if err != nil {
			return nil, err
		}
		b = append(b, `,"stats":`...)
		b = append(b, stats...)
	}
	return append(b, '}'), nil
}

// appendIntMember appends an omitempty integer member.
func appendIntMember(b []byte, key string, n int64) []byte {
	if n == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), n, 10)
}

// appendStringMember appends an omitempty string member.
func appendStringMember(b []byte, key string, s string) []byte {
	if s == "" {
		return b
	}
	return appendString(append(b, key...), s)
}

// appendValue appends one row value: the scalars encodeResult produces, and
// the arrays and objects a decoded response may hold.
func appendValue(b []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case nil:
		return append(b, "null"...), nil
	case string:
		return appendString(b, v), nil
	case int64:
		return strconv.AppendInt(b, v, 10), nil
	case float64:
		return appendFloat(b, v)
	case bool:
		return strconv.AppendBool(b, v), nil
	case []any:
		return appendArray(b, v)
	case map[string]any:
		if v == nil {
			return append(b, "null"...), nil
		}
		b = append(b, '{')
		for i, k := range slices.Sorted(maps.Keys(v)) {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(appendString(b, k), ':')
			var err error
			if b, err = appendValue(b, v[k]); err != nil {
				return nil, err
			}
		}
		return append(b, '}'), nil
	default:
		return nil, fmt.Errorf("wire: cannot encode a row value of type %T", v)
	}
}

// appendArray appends a row, or any array a row value holds.
func appendArray(b []byte, a []any) ([]byte, error) {
	if a == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, x := range a {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendValue(b, x); err != nil {
			return nil, err
		}
	}
	return append(b, ']'), nil
}

// appendFloat appends f in encoding/json's spelling: plain decimal, or
// exponent form outside [1e-6, 1e21).
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, fmt.Errorf("wire: JSON cannot carry the float %v", f)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7, as encoding/json writes it.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// plainByte marks the bytes a JSON string carries as they are: printable
// ASCII other than quote and backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string, replacing invalid UTF-8 with
// U+FFFD as encoding/json does.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if plainByte[c] {
			i++
			continue
		}
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			if r != utf8.RuneError || size != 1 {
				i += size
				continue
			}
			b = append(b, s[start:i]...)
			b = utf8.AppendRune(b, utf8.RuneError)
		} else {
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
		}
		i++
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// maxDepth is encoding/json's nesting limit: objects and arrays open at
// once, the frame's own object included.
const maxDepth = 10000

// A decoder reads one frame. The frame is converted to a string once, so a
// decoded string without escapes is a substring of it, not a copy.
type decoder struct {
	s     string
	i     int
	depth int
	cells []any // the slab a response's rows are cut from
}

var errEnd = errors.New("wire: unexpected end of JSON input")

// syntax reports the byte at the cursor as unexpected.
func (d *decoder) syntax() error {
	if d.i >= len(d.s) {
		return errEnd
	}
	return fmt.Errorf("wire: invalid character %q at offset %d", d.s[d.i], d.i)
}

// mismatch reports a well-formed value of the wrong type for its member.
func (d *decoder) mismatch(member string) error {
	return fmt.Errorf("wire: wrong JSON type for %q at offset %d", member, d.i)
}

// next skips whitespace and returns the byte at the cursor, 0 at the end.
// A NUL byte also reads as 0; every caller rejects both alike.
func (d *decoder) next() byte {
	for ; d.i < len(d.s); d.i++ {
		switch c := d.s[d.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// literal consumes want: true, false or null.
func (d *decoder) literal(want string) error {
	if !strings.HasPrefix(d.s[d.i:], want) {
		return d.syntax()
	}
	d.i += len(want)
	return nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits advances past a run of digits; false if there was none.
func (d *decoder) digits() bool {
	start := d.i
	for d.i < len(d.s) && isDigit(d.s[d.i]) {
		d.i++
	}
	return d.i > start
}

// number consumes a JSON number and returns its text.
func (d *decoder) number() (string, error) {
	start := d.i
	if d.i < len(d.s) && d.s[d.i] == '-' {
		d.i++
	}
	switch {
	case d.i < len(d.s) && d.s[d.i] == '0':
		d.i++
	case !d.digits():
		return "", d.syntax()
	}
	if d.i < len(d.s) && d.s[d.i] == '.' {
		d.i++
		if !d.digits() {
			return "", d.syntax()
		}
	}
	if d.i < len(d.s) && (d.s[d.i] == 'e' || d.s[d.i] == 'E') {
		d.i++
		if d.i < len(d.s) && (d.s[d.i] == '+' || d.s[d.i] == '-') {
			d.i++
		}
		if !d.digits() {
			return "", d.syntax()
		}
	}
	return d.s[start:d.i], nil
}

// str consumes a JSON string at the cursor and returns its value.
func (d *decoder) str() (string, error) {
	for i := d.i + 1; i < len(d.s); {
		c := d.s[i]
		switch {
		case plainByte[c]:
			i++
		case c == '"':
			v := d.s[d.i+1 : i]
			d.i = i + 1
			return v, nil
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRuneInString(d.s[i:])
			if r == utf8.RuneError && size == 1 {
				return d.unquote(i)
			}
			i += size
		case c == '\\':
			return d.unquote(i)
		default:
			d.i = i
			return "", d.syntax()
		}
	}
	d.i = len(d.s)
	return "", errEnd
}

// unquote is str's slow path from index i, the first byte that is not
// copied as it is: it resolves escapes (a surrogate pair to its rune, a lone
// surrogate to U+FFFD) and replaces each invalid UTF-8 byte with U+FFFD.
func (d *decoder) unquote(i int) (string, error) {
	s := d.s
	b := make([]byte, 0, i-d.i+16)
	b = append(b, s[d.i+1:i]...)
	for {
		start := i
		for i < len(s) && plainByte[s[i]] {
			i++
		}
		b = append(b, s[start:i]...)
		if i >= len(s) {
			d.i = i
			return "", errEnd
		}
		switch c := s[i]; {
		case c == '"':
			d.i = i + 1
			return string(b), nil
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRuneInString(s[i:])
			b = utf8.AppendRune(b, r)
			i += size
		case c != '\\':
			d.i = i
			return "", d.syntax()
		case i+1 >= len(s):
			d.i = len(s)
			return "", errEnd
		default:
			i++
			switch e := s[i]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r, ok := hex4(s, i+1)
				if !ok {
					d.i = i
					return "", d.syntax()
				}
				i += 4
				if utf16.IsSurrogate(r) {
					hi := r
					r = utf8.RuneError
					if lo, ok := hex4(s, i+3); ok && s[i+1] == '\\' && s[i+2] == 'u' {
						if pair := utf16.DecodeRune(hi, lo); pair != utf8.RuneError {
							r = pair
							i += 6
						}
					}
				}
				b = utf8.AppendRune(b, r)
			default:
				d.i = i
				return "", d.syntax()
			}
			i++
		}
	}
}

// hex4 reads the four hex digits of a \u escape starting at s[i].
func hex4(s string, i int) (rune, bool) {
	if i+4 > len(s) {
		return 0, false
	}
	var r rune
	for _, c := range []byte(s[i : i+4]) {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// open consumes the '{' or '[' at the cursor, counting the nesting depth.
func (d *decoder) open() error {
	d.i++
	if d.depth++; d.depth > maxDepth {
		return fmt.Errorf("wire: JSON nested deeper than %d at offset %d", maxDepth, d.i)
	}
	return nil
}

// more advances to the next member or element of the object or array whose
// opening byte is at the cursor (first) or that is being read: it consumes
// the opening byte or the separating comma, and false means it consumed the
// closing byte instead.
func (d *decoder) more(first bool, closing byte) (bool, error) {
	if first {
		if err := d.open(); err != nil {
			return false, err
		}
	}
	switch c := d.next(); {
	case c == closing:
		d.i++
		d.depth--
		return false, nil
	case first:
		return true, nil
	case c == ',':
		d.i++
		return true, nil
	default:
		return false, d.syntax()
	}
}

// member advances to the object's next member and returns its name; false
// at the closing brace.
func (d *decoder) member(first bool) (string, bool, error) {
	ok, err := d.more(first, '}')
	if !ok || err != nil {
		return "", false, err
	}
	if d.next() != '"' {
		return "", false, d.syntax()
	}
	key, err := d.str()
	if err != nil {
		return "", false, err
	}
	if d.next() != ':' {
		return "", false, d.syntax()
	}
	d.i++
	return key, true, nil
}

// element advances to the array's next element; false at the closing bracket.
func (d *decoder) element(first bool) (bool, error) { return d.more(first, ']') }

// skip consumes one value of any type, checking only its syntax, as
// encoding/json does for a member it does not know.
func (d *decoder) skip() error {
	_, err := d.value(false)
	return err
}

// value decodes one value the way encoding/json decodes into an interface:
// objects to map[string]any, arrays to []any, numbers to float64. Without
// keep it builds nothing and leaves numbers unparsed.
func (d *decoder) value(keep bool) (any, error) {
	switch d.next() {
	case '"':
		return d.str()
	case '{':
		var m map[string]any
		if keep {
			m = map[string]any{}
		}
		for first := true; ; first = false {
			k, ok, err := d.member(first)
			if !ok || err != nil {
				return m, err
			}
			v, err := d.value(keep)
			if err != nil {
				return nil, err
			}
			if keep {
				m[k] = v
			}
		}
	case '[':
		var a []any
		if keep {
			a = []any{}
		}
		for first := true; ; first = false {
			ok, err := d.element(first)
			if !ok || err != nil {
				return a, err
			}
			v, err := d.value(keep)
			if err != nil {
				return nil, err
			}
			if keep {
				a = append(a, v)
			}
		}
	case 't':
		return true, d.literal("true")
	case 'f':
		return false, d.literal("false")
	case 'n':
		return nil, d.literal("null")
	default:
		text, err := d.number()
		if err != nil || !keep {
			return nil, err
		}
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, fmt.Errorf("wire: number %s out of range", text)
		}
		return f, nil
	}
}

// field resolves a member name the way encoding/json matches struct fields:
// exactly, else under Unicode case folding; "" for an unknown member.
func field(key string, names []string) string {
	for _, n := range names {
		if key == n {
			return n
		}
	}
	for _, n := range names {
		if strings.EqualFold(key, n) {
			return n
		}
	}
	return ""
}

// The member decoders below leave their target as it was on null, except
// where encoding/json sets it to nil: pointers and slices.

// integer consumes an integer member's number text; "" for null.
func (d *decoder) integer(name string) (string, error) {
	switch c := d.next(); {
	case c == 'n':
		return "", d.literal("null")
	case c == '-' || isDigit(c):
		return d.number()
	default:
		return "", d.mismatch(name)
	}
}

func (d *decoder) uintMember(name string, dst *uint64) error {
	text, err := d.integer(name)
	if text == "" || err != nil {
		return err
	}
	if *dst, err = strconv.ParseUint(text, 10, 64); err != nil {
		return d.mismatch(name)
	}
	return nil
}

func (d *decoder) intMember(name string, dst *int64) error {
	text, err := d.integer(name)
	if text == "" || err != nil {
		return err
	}
	if *dst, err = strconv.ParseInt(text, 10, 64); err != nil {
		return d.mismatch(name)
	}
	return nil
}

func (d *decoder) boolMember(name string, dst *bool) error {
	switch d.next() {
	case 'n':
		return d.literal("null")
	case 't':
		*dst = true
		return d.literal("true")
	case 'f':
		*dst = false
		return d.literal("false")
	default:
		return d.mismatch(name)
	}
}

func (d *decoder) stringMember(name string, dst *string) error {
	switch d.next() {
	case 'n':
		return d.literal("null")
	case '"':
		s, err := d.str()
		*dst = s
		return err
	default:
		return d.mismatch(name)
	}
}

// stringsMember decodes into the slice already there, as encoding/json
// does: elements past its length but within its capacity reappear, and a
// null element leaves the one beneath it.
func (d *decoder) stringsMember(name string, dst *[]string) error {
	switch d.next() {
	case 'n':
		*dst = nil
		return d.literal("null")
	case '[':
	default:
		return d.mismatch(name)
	}
	s, n := *dst, 0
	if cap(s) == 0 {
		s = make([]string, 0, 8)
	}
	for first := true; ; first = false {
		ok, err := d.element(first)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if n >= len(s) {
			if n < cap(s) {
				s = s[:n+1]
			} else {
				s = append(s, "")
			}
		}
		if err := d.stringMember(name, &s[n]); err != nil {
			return err
		}
		n++
	}
	if n == 0 {
		s = []string{}
	}
	*dst = s[:n]
	return nil
}

// rowsMember decodes the rows, cutting every row from one slab of cells.
// Rows decode fresh rather than over the slice already there: a row's
// elements are interfaces, which encoding/json replaces, not reuses.
func (d *decoder) rowsMember(dst *[][]any) error {
	switch d.next() {
	case 'n':
		*dst = nil
		return d.literal("null")
	case '[':
	default:
		return d.mismatch("rows")
	}
	rows := [][]any{}
	d.cells = make([]any, 0, 8)
	for first := true; ; first = false {
		ok, err := d.element(first)
		if err != nil {
			return err
		}
		if !ok {
			*dst = rows
			return nil
		}
		var row []any
		start := d.i
		switch d.next() {
		case 'n':
			err = d.literal("null")
		case '[':
			row, err = d.row()
		default:
			err = d.mismatch("rows")
		}
		if err != nil {
			return err
		}
		rows = append(rows, row)
		if len(rows) == 1 {
			// Size the rest from the first row: a result's rows share a shape.
			n := (len(d.s) - d.i) / (d.i - start + 1)
			rows = slices.Grow(rows, n)
			d.cells = slices.Grow(d.cells, n*len(row))
		}
	}
}

func (d *decoder) row() ([]any, error) {
	start := len(d.cells)
	for first := true; ; first = false {
		ok, err := d.element(first)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		v, err := d.value(true)
		if err != nil {
			return nil, err
		}
		d.cells = append(d.cells, v)
	}
	if len(d.cells) == start {
		return []any{}, nil
	}
	return d.cells[start:len(d.cells):len(d.cells)], nil
}

// errorMember decodes into the *Error already there, allocating one only
// if there is none.
func (d *decoder) errorMember(dst **Error) error {
	switch d.next() {
	case 'n':
		*dst = nil
		return d.literal("null")
	case '{':
	default:
		return d.mismatch("error")
	}
	if *dst == nil {
		*dst = new(Error)
	}
	e := *dst
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if !ok || err != nil {
			return err
		}
		switch f := field(key, errorFields); f {
		case "code":
			err = d.stringMember(f, (*string)(&e.Code))
		case "retryable":
			err = d.boolMember(f, &e.Retryable)
		case "message":
			err = d.stringMember(f, &e.Message)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

// statsMember hands the stats payload to encoding/json.
func (d *decoder) statsMember(dst **StatsPayload) error {
	start := d.i
	if err := d.skip(); err != nil {
		return err
	}
	return json.Unmarshal([]byte(d.s[start:d.i]), dst)
}

var (
	requestFields  = []string{"id", "op", "sql", "timeout_ms"}
	responseFields = []string{"id", "ok", "error", "columns", "rows", "rows_affected",
		"explain", "co_text", "retries", "elapsed_us", "stats"}
	errorFields = []string{"code", "retryable", "message"}
)

// frameStart begins a frame: true at an object; false at null, which
// leaves the target as it was.
func (d *decoder) frameStart() (bool, error) {
	switch d.next() {
	case '{':
		return true, nil
	case 'n':
		return false, d.literal("null")
	default:
		return false, errors.New("wire: frame is not a JSON object")
	}
}

// frameEnd ends a frame: nothing may follow its value but whitespace.
func (d *decoder) frameEnd(err error) error {
	if d.next(); err == nil && d.i < len(d.s) {
		err = d.syntax()
	}
	return err
}

// decodeRequest decodes a request frame into r.
func decodeRequest(p []byte, r *Request) error {
	d := decoder{s: string(p)}
	obj, err := d.frameStart()
	if obj {
		err = d.request(r)
	}
	return d.frameEnd(err)
}

// decodeResponse decodes a response frame into r.
func decodeResponse(p []byte, r *Response) error {
	d := decoder{s: string(p)}
	obj, err := d.frameStart()
	if obj {
		err = d.response(r)
	}
	return d.frameEnd(err)
}

func (d *decoder) request(r *Request) error {
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if !ok || err != nil {
			return err
		}
		switch f := field(key, requestFields); f {
		case "id":
			err = d.uintMember(f, &r.ID)
		case "op":
			err = d.stringMember(f, &r.Op)
		case "sql":
			err = d.stringMember(f, &r.SQL)
		case "timeout_ms":
			err = d.intMember(f, &r.TimeoutMS)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

func (d *decoder) response(r *Response) error {
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if !ok || err != nil {
			return err
		}
		switch f := field(key, responseFields); f {
		case "id":
			err = d.uintMember(f, &r.ID)
		case "ok":
			err = d.boolMember(f, &r.OK)
		case "error":
			err = d.errorMember(&r.Err)
		case "columns":
			err = d.stringsMember(f, &r.Columns)
		case "rows":
			err = d.rowsMember(&r.Rows)
		case "rows_affected":
			err = d.intMember(f, &r.RowsAffected)
		case "explain":
			err = d.stringMember(f, &r.Explain)
		case "co_text":
			err = d.stringMember(f, &r.COText)
		case "retries":
			n := int64(r.Retries)
			err = d.intMember(f, &n)
			r.Retries = int(n)
		case "elapsed_us":
			err = d.intMember(f, &r.ElapsedUS)
		case "stats":
			err = d.statsMember(&r.Stats)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}
