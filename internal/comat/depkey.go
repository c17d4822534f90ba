package comat

import (
	"sort"
	"strconv"
	"strings"
)

// The dependency key renders a CO's dependency snapshot for \costats: the
// component tables it read with their DML versions at materialization time.
//
// Format: entries sorted by table name, joined with ';', each
// `<table>@<version>`. Table names escape '\', ';' and '@' with a leading
// backslash, so arbitrary (e.g. quoted) identifiers cannot collide with the
// structure.

// sortDeps puts a dependency snapshot in canonical order: by table name,
// ties broken by version. The cache sorts every snapshot once, when its
// flight ends.
func sortDeps(deps []TableDep) {
	sort.Slice(deps, func(i, j int) bool {
		if deps[i].Table != deps[j].Table {
			return deps[i].Table < deps[j].Table
		}
		return deps[i].Version < deps[j].Version
	})
}

// EncodeDepKey renders a dependency snapshot that sortDeps has put in
// canonical order, as every stored entry's is.
func EncodeDepKey(deps []TableDep) string {
	var b strings.Builder
	for i, d := range deps {
		if i > 0 {
			b.WriteByte(';')
		}
		for j := 0; j < len(d.Table); j++ {
			ch := d.Table[j]
			if ch == '\\' || ch == ';' || ch == '@' {
				b.WriteByte('\\')
			}
			b.WriteByte(ch)
		}
		b.WriteByte('@')
		b.WriteString(strconv.FormatUint(d.Version, 10))
	}
	return b.String()
}
