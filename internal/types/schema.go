package types

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a table or derived result.
type Column struct {
	Name    string
	Kind    Kind
	NotNull bool
	// Hidden columns are positional only: Index never resolves their name
	// and Names (EXPLAIN, shells) does not list them.
	Hidden bool
}

// Schema is an ordered list of columns. Column names are matched
// case-insensitively, following SQL identifier rules.
type Schema []Column

// RIDColumn is the hidden trailing column through which a tuple's storage
// location travels as data: a base-table box may expose it (qgm.Box.RID) and
// the scans fill it (exec.SeqScan.WithRID) with the packed storage.RID. It is
// hidden, and no client-visible schema contains it.
var RIDColumn = Column{Name: "__rid", Kind: KindInt, Hidden: true}

// Index returns the position of the named (non-hidden) column, or -1.
func (s Schema) Index(name string) int {
	for i, c := range s {
		if !c.Hidden && strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Has reports whether the schema contains the named column.
func (s Schema) Has(name string) bool { return s.Index(name) >= 0 }

// Names returns the (non-hidden) column names in order.
func (s Schema) Names() []string {
	out := make([]string, 0, len(s))
	for _, c := range s {
		if !c.Hidden {
			out = append(out, c.Name)
		}
	}
	return out
}

// Clone returns a copy of the schema.
func (s Schema) Clone() Schema {
	out := make(Schema, len(s))
	copy(out, s)
	return out
}

// Concat returns the concatenation of two schemas (used by joins).
func (s Schema) Concat(o Schema) Schema {
	out := make(Schema, 0, len(s)+len(o))
	out = append(out, s...)
	out = append(out, o...)
	return out
}

// Validate checks a row against the schema: arity, kind compatibility, and
// NOT NULL constraints. NULLs are accepted in nullable columns regardless of
// declared kind; numeric widening (INT into FLOAT column) is accepted.
func (s Schema) Validate(r Row) error {
	if len(r) != len(s) {
		return fmt.Errorf("types: row arity %d does not match schema arity %d", len(r), len(s))
	}
	for i, v := range r {
		c := s[i]
		if v.IsNull() {
			if c.NotNull {
				return fmt.Errorf("types: NULL in NOT NULL column %q", c.Name)
			}
			continue
		}
		if v.Kind() == c.Kind {
			continue
		}
		if v.Kind() == KindInt && c.Kind == KindFloat {
			continue
		}
		return fmt.Errorf("types: column %q expects %s, got %s", c.Name, c.Kind, v.Kind())
	}
	return nil
}

// CoerceRow returns a copy of r with numeric widening applied so values match
// the schema's declared kinds. Validation errors pass through.
func (s Schema) CoerceRow(r Row) (Row, error) {
	out := r.Clone()
	if err := s.CoerceInPlace(out); err != nil {
		return nil, err
	}
	return out, nil
}

// CoerceInPlace is CoerceRow writing into r itself, for a caller that owns
// r and needs no copy.
func (s Schema) CoerceInPlace(r Row) error {
	if err := s.Validate(r); err != nil {
		return err
	}
	for i := range r {
		if r[i].Kind() == KindInt && s[i].Kind == KindFloat {
			r[i] = NewFloat(float64(r[i].Int()))
		}
	}
	return nil
}

// String renders the schema as "(name kind, ...)".
func (s Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Kind.String())
		if c.NotNull {
			b.WriteString(" NOT NULL")
		}
	}
	b.WriteByte(')')
	return b.String()
}
