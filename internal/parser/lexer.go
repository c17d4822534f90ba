// Package parser implements the lexer, AST, and recursive-descent parser
// for the engine's SQL subset and all SQL/XNF extensions: the composite
// object constructor (OUT OF ... TAKE), RELATE clauses with WITH ATTRIBUTES
// and USING, node and edge restrictions (WHERE ... SUCH THAT), structural
// projection, CO-level DELETE, and path expressions with qualified steps.
package parser

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// TokKind classifies tokens.
type TokKind uint8

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokOp
)

// Token is one lexical unit with its byte offset into the source (used to
// slice statement and view-body text, and to place errors).
type Token struct {
	Kind   TokKind
	Quoted bool   // an identifier written in double quotes
	Text   string // keywords are upper-cased; identifiers keep original text
	Off    int
}

// errorAt reports a syntax error at byte offset off of src, placed by its
// 1-based line and byte column.
func errorAt(src string, off int, format string, args ...any) error {
	line := 1 + strings.Count(src[:off], "\n")
	col := off - strings.LastIndexByte(src[:off], '\n')
	return fmt.Errorf("parser: line %d col %d: %s", line, col, fmt.Sprintf(format, args...))
}

// String renders a token for error messages.
func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	case TokString:
		return fmt.Sprintf("'%s'", t.Text)
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}

// AppendKey appends the token's spelling in a cache key to dst: an
// identifier upper-cased in ASCII only (a non-ASCII letter keeps its case,
// so no identifier folds into a keyword) and inside its quotes when it was
// quoted; any other token as its Text. Literals are the caller's to render.
func (t Token) AppendKey(dst []byte) []byte {
	if t.Kind != TokIdent {
		return append(dst, t.Text...)
	}
	if t.Quoted {
		dst = append(dst, '"')
	}
	for i := 0; i < len(t.Text); i++ {
		c := t.Text[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		dst = append(dst, c)
	}
	if t.Quoted {
		dst = append(dst, '"')
	}
	return dst
}

// keywords recognized by the grammar (SQL subset plus XNF extensions),
// bucketed by length and first letter: a lookup compares against at most a
// few candidates, and a lexed keyword's Text is the bucket's string.
var keywords = func() (by [11][26][]string) {
	for _, kw := range strings.Fields(`
		SELECT FROM WHERE GROUP BY HAVING ORDER ASC DESC LIMIT
		DISTINCT ALL AS AND OR NOT NULL TRUE FALSE IS IN EXISTS BETWEEN LIKE
		CREATE TABLE INDEX UNIQUE VIEW DROP INSERT INTO VALUES
		UPDATE SET DELETE PRIMARY KEY JOIN INNER ON CLUSTER FAMILY
		BEGIN COMMIT ROLLBACK EXPLAIN ANALYZE CHECKPOINT
		UNION COUNT SUM AVG MIN MAX
		OUT OF TAKE RELATE SUCH THAT WITH ATTRIBUTES USING
		CONNECT DISCONNECT TO`) {
		by[len(kw)][kw[0]-'A'] = append(by[len(kw)][kw[0]-'A'], kw)
	}
	return by
}()

// keyword returns the keyword word spells, folding ASCII case only: a
// non-ASCII letter (even one whose upper case is ASCII, like 'ſ') keeps
// the word an identifier. The fold runs in a stack buffer, so no lookup
// allocates.
func keyword(word string) (string, bool) {
	var buf [len(keywords) - 1]byte // as long as the longest keyword
	if len(word) > len(buf) {
		return "", false
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= utf8.RuneSelf {
			return "", false
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	if buf[0] < 'A' || buf[0] > 'Z' {
		return "", false
	}
	for _, kw := range keywords[len(word)][buf[0]-'A'] {
		if kw == string(buf[:len(word)]) {
			return kw, true
		}
	}
	return "", false
}

// Lexer tokenizes one statement string. Token texts are slices of the
// source (keywords: the shared upper-case spelling), so lexing allocates
// only for a string literal holding a doubled quote.
type Lexer struct {
	src string
	pos int
}

// NewLexer creates a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src}
}

func (l *Lexer) byteAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		switch b := l.src[l.pos]; {
		case b == ' ' || b == '\t' || b == '\r' || b == '\n':
			l.pos++
		case b == '-' && l.byteAt(1) == '-':
			end := strings.IndexByte(l.src[l.pos:], '\n')
			if end < 0 {
				end = len(l.src) - l.pos
			}
			l.pos += end // the newline itself is whitespace
		case b == '/' && l.byteAt(1) == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
			} else {
				l.pos += 2 + end + 2
			}
		default:
			return
		}
	}
}

// identLen returns the byte length of the identifier s starts with (0 when
// none does): a letter or '_', then letters, digits and '_'. Non-ASCII
// bytes decode as UTF-8 runes; an invalid sequence is no letter.
func identLen(s string) int {
	i := 0
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || i > 0 && '0' <= c && c <= '9' {
				i++
				continue
			}
			return i
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		if !unicode.IsLetter(r) && !(i > 0 && unicode.IsDigit(r)) {
			return i
		}
		i += n
	}
	return i
}

// numberLen returns the byte length of the number s starts with: digits,
// at most one '.' followed by a digit, and an exponent when digits follow
// the 'e'.
func numberLen(s string) int {
	i := 0
	digits := func() {
		for i < len(s) && '0' <= s[i] && s[i] <= '9' {
			i++
		}
	}
	digits()
	if i+1 < len(s) && s[i] == '.' && '0' <= s[i+1] && s[i+1] <= '9' {
		i++
		digits()
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		j := i + 1
		if j < len(s) && (s[j] == '+' || s[j] == '-') {
			j++
		}
		if j < len(s) && '0' <= s[j] && s[j] <= '9' {
			i = j
			digits()
		}
	}
	return i
}

// Next returns the next token. Errors (unterminated strings, stray bytes)
// surface as error returns with position info.
func (l *Lexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	tok := Token{Off: l.pos}
	if l.pos >= len(l.src) {
		tok.Kind = TokEOF
		return tok, nil
	}
	start := l.pos
	switch b := l.src[start]; {
	case b == '"': // quoted identifier, allows hyphens etc.
		end := strings.IndexByte(l.src[start+1:], '"')
		if end < 0 {
			return tok, errorAt(l.src, start, "unterminated quoted identifier")
		}
		tok.Kind, tok.Quoted, tok.Text = TokIdent, true, l.src[start+1:start+1+end]
		l.pos = start + end + 2
	case b >= '0' && b <= '9':
		l.pos += numberLen(l.src[start:])
		tok.Kind, tok.Text = TokNumber, l.src[start:l.pos]
	case b == '\'':
		// A doubled quote escapes a quote; only text holding one is copied.
		end, escaped := start+1, false
		for {
			q := strings.IndexByte(l.src[end:], '\'')
			if q < 0 {
				return tok, errorAt(l.src, start, "unterminated string literal")
			}
			end += q + 1
			if end == len(l.src) || l.src[end] != '\'' {
				break
			}
			end++
			escaped = true
		}
		tok.Kind, tok.Text = TokString, l.src[start+1:end-1]
		if escaped {
			tok.Text = strings.ReplaceAll(tok.Text, "''", "'")
		}
		l.pos = end
	default:
		if n := identLen(l.src[start:]); n > 0 {
			l.pos += n
			tok.Kind, tok.Text = TokIdent, l.src[start:l.pos]
			if kw, ok := keyword(tok.Text); ok {
				tok.Kind, tok.Text = TokKeyword, kw
			}
			return tok, nil
		}
		n := 0
		if start+1 < len(l.src) {
			switch l.src[start : start+2] {
			case "->", "<=", ">=", "<>", "!=", "||":
				n = 2
			}
		}
		if n == 0 {
			switch b {
			case '+', '-', '*', '/', '%', '(', ')', ',', '.', ';', '=', '<', '>':
				n = 1
			default:
				r, _ := utf8.DecodeRuneInString(l.src[start:])
				return tok, errorAt(l.src, start, "unexpected character %q", r)
			}
		}
		l.pos += n
		tok.Kind, tok.Text = TokOp, l.src[start:l.pos]
	}
	return tok, nil
}

// Tokenize returns all tokens including the trailing EOF.
func Tokenize(src string) ([]Token, error) {
	l := NewLexer(src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}
