package engine

import (
	"strings"

	"sqlxnf/internal/parser"
	"sqlxnf/internal/qgm"
	"sqlxnf/internal/types"
)

// Cache keys. Every plan- and CO-cache key comes from parser.Lexer or from
// the statement's own text; the engine scans no SQL bytes itself.
//
// extractLiterals lexes a SELECT into a parameter-shaped key — the token
// stream single-spaced, keywords bare, unquoted identifiers upper-cased
// (ASCII only), quoted ones in quotes, every number/string literal replaced
// by `?` — plus the literals in source order. Two statements that differ
// only in constants map to one key, so the plan cache holds one entry per
// statement *shape* and the engine binds the extracted vector into the
// cached plan at execute.
//
// The numbering must agree exactly with the parser, which stamps each
// number/string literal with its source-order ordinal (Literal.Param): both
// count the lexer's literal tokens, and both skip the LIMIT count (the
// parser folds it into the plan structure, so `LIMIT 5` and `LIMIT 50` are
// genuinely different shapes). FuzzStmtKey holds the two together.
//
// Extraction is conservative: statements using GROUP BY, HAVING, ORDER BY,
// or aggregates resolve select items against group keys and order keys
// positionally/textually, so their literals are structural: ok=false, as
// for text the lexer rejects, and planKey keys them by their exact text.
func extractLiterals(src string) (key string, binds []types.Value, ok bool) {
	buf := make([]byte, 0, 256)
	l := parser.NewLexer(src)
	prevLimit := false
	for {
		tok, err := l.Next()
		if err != nil {
			return "", nil, false
		}
		if tok.Kind == parser.TokEOF {
			break
		}
		if len(buf) > 0 {
			buf = append(buf, ' ')
		}
		switch {
		case tok.Kind == parser.TokKeyword:
			switch tok.Text {
			case "GROUP", "HAVING", "ORDER", "COUNT", "SUM", "AVG", "MIN", "MAX":
				return "", nil, false
			}
			buf = tok.AppendKey(buf)
		case tok.Kind == parser.TokString:
			binds = append(binds, types.NewString(tok.Text))
			buf = append(buf, '?')
		case tok.Kind == parser.TokNumber && !prevLimit:
			v, err := parser.NumberValue(tok.Text)
			if err != nil {
				return "", nil, false // the parser rejects it too
			}
			binds = append(binds, v)
			buf = append(buf, '?')
		default:
			buf = tok.AppendKey(buf)
		}
		prevLimit = tok.Kind == parser.TokKeyword && tok.Text == "LIMIT"
	}
	// Trailing semicolons separate nothing: dropping them makes the
	// whole-script key of a "SELECT ...;" script equal the per-statement
	// key the compile path stored.
	return strings.TrimRight(string(buf), "; "), binds, true
}

// planKey is a SELECT's plan-cache key: the parameter-shaped key and its
// bindings when the literals can become parameters, else the exact text.
func planKey(text string) (key string, binds []types.Value, param bool) {
	if key, binds, ok := extractLiterals(text); ok {
		return key, binds, true
	}
	return stmtText(text), nil, false
}

// stmtText trims what separates statements — surrounding whitespace and
// trailing ';' — from statement text. A single-statement script and its
// ParseScript text trim to the same string (bar a leading comment), and
// identical text parses identically, so an exact-text key cannot collide.
func stmtText(sql string) string {
	return strings.TrimRight(strings.TrimLeft(sql, " \t\r\n"), " \t\r\n;")
}

// paramSlotsCovered verifies the builder marked exactly the parameter slots
// the extractor produced: every Const.Param ordinal in the box tree falls in
// [1, n] and every slot of the binding vector is referenced at least once. A
// disagreement means a literal landed somewhere the builder treats
// structurally, in which case the statement must compile unparameterized.
func paramSlotsCovered(box *qgm.Box, n int) bool {
	seen := make([]bool, n)
	covered := true
	walkBoxes(box, func(b *qgm.Box) bool {
		walkBoxExprs(b, func(e qgm.Expr) {
			if c, isConst := e.(*qgm.Const); isConst && c.Param > 0 {
				if c.Param > n {
					covered = false
				} else {
					seen[c.Param-1] = true
				}
			}
		})
		return covered
	})
	if !covered {
		return false
	}
	for _, s := range seen {
		if !s {
			return false
		}
	}
	return true
}
