// Package r2rml implements the mapping layer of the OBDA architecture:
// R2RML-style triples maps with logical tables (base tables or SQL views),
// IRI templates, and predicate–object maps; a compact textual mapping
// syntax; and a materializer that exposes the virtual RDF graph of a
// relational database.
package r2rml

import (
	"fmt"
	"strings"
	"sync"

	"npdbench/internal/sqldb"
)

// Template is an IRI or literal template with {column} placeholders, e.g.
// "http://npd#wellbore/{id}". A template with no placeholders is a
// constant.
//
// A template may be typed (see Typed): each placeholder then carries the
// value kind of its source column, which fixes the lexical alphabet its
// expansions can contain. Typing sharpens DisjointWith and Match; it never
// changes String, Skeleton or Expand. Templates are immutable once built
// and safe for concurrent use.
type Template struct {
	// Parts alternates literal segments and placeholders: even indexes are
	// literal text, odd indexes are column names.
	parts []string
	// Columns caches the placeholder names in order.
	Columns []string
	// kinds[i] is the value kind of placeholder i; nil (or KindNull at an
	// index) means unknown, i.e. any string.
	kinds []sqldb.Kind
	// toks is the template's language as a token sequence (see tokens).
	toks []token
	// disjoint memoizes DisjointWith per partner template (*Template ->
	// bool): the product walk runs once per pair, not per caller.
	disjoint sync.Map
}

// ParseTemplate parses "{col}" placeholder syntax. Braces cannot be nested
// or escaped (the R2RML subset the benchmark needs).
func ParseTemplate(s string) (*Template, error) {
	var t Template
	var lit strings.Builder
	i := 0
	for i < len(s) {
		c := s[i]
		switch c {
		case '{':
			j := strings.IndexByte(s[i:], '}')
			if j < 0 {
				return nil, fmt.Errorf("r2rml: unterminated placeholder in %q", s)
			}
			col := s[i+1 : i+j]
			if col == "" {
				return nil, fmt.Errorf("r2rml: empty placeholder in %q", s)
			}
			t.parts = append(t.parts, lit.String(), col)
			t.Columns = append(t.Columns, col)
			lit.Reset()
			i += j + 1
		case '}':
			return nil, fmt.Errorf("r2rml: unbalanced '}' in %q", s)
		default:
			lit.WriteByte(c)
			i++
		}
	}
	t.parts = append(t.parts, lit.String())
	t.toks = t.tokens()
	return &t, nil
}

// MustParseTemplate parses or panics (static mapping definitions).
func MustParseTemplate(s string) *Template {
	t, err := ParseTemplate(s)
	if err != nil {
		panic(err)
	}
	return t
}

// IsConstant reports whether the template has no placeholders.
func (t *Template) IsConstant() bool { return len(t.Columns) == 0 }

// Skeleton exposes the template structure: the literal segments (always
// len(cols)+1, possibly empty strings) and the placeholder columns in
// order. The unfolder uses it to compile template expansion into SQL
// concatenation and to align join columns between identical skeletons.
func (t *Template) Skeleton() (literals []string, cols []string) {
	for i, p := range t.parts {
		if i%2 == 0 {
			literals = append(literals, p)
		} else {
			cols = append(cols, p)
		}
	}
	return literals, cols
}

// String reconstructs the template source.
func (t *Template) String() string {
	var sb strings.Builder
	for i, p := range t.parts {
		if i%2 == 1 {
			sb.WriteString("{" + p + "}")
		} else {
			sb.WriteString(p)
		}
	}
	return sb.String()
}

// Expand instantiates the template with column values. It returns ok=false
// when any referenced value is NULL or missing (R2RML: no term generated).
func (t *Template) Expand(get func(col string) (sqldb.Value, bool)) (string, bool) {
	var sb strings.Builder
	for i, p := range t.parts {
		if i%2 == 0 {
			sb.WriteString(p)
			continue
		}
		v, ok := get(p)
		if !ok || v.IsNull() {
			return "", false
		}
		sb.WriteString(iriSafe(v.String()))
	}
	return sb.String(), true
}

// iriSafe percent-encodes the characters R2RML requires to be escaped in
// IRI template expansion.
func iriSafe(s string) string {
	if !strings.ContainsAny(s, " \"<>{}|\\^`%") {
		return s
	}
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if strings.IndexByte(" \"<>{}|\\^`%", c) >= 0 {
			fmt.Fprintf(&sb, "%%%02X", c)
		} else {
			sb.WriteByte(c)
		}
	}
	return sb.String()
}

func iriUnsafe(s string) string {
	if !strings.Contains(s, "%") {
		return s
	}
	var sb strings.Builder
	for i := 0; i < len(s); {
		if s[i] == '%' && i+2 < len(s) {
			var b byte
			if n, err := fmt.Sscanf(s[i+1:i+3], "%02X", &b); err == nil && n == 1 {
				sb.WriteByte(b)
				i += 3
				continue
			}
		}
		sb.WriteByte(s[i])
		i++
	}
	return sb.String()
}

// Match attempts the inverse of Expand: given a concrete string, recover
// the placeholder values. It returns ok=false when the string cannot have
// been produced by this template: a literal segment is missing, or a typed
// placeholder would have to take a value its column cannot render (outside
// its alphabet, or a non-canonical INT/DATE/FLOAT/BOOL form such as "01"
// or "+1"). Placeholders split at the leftmost occurrence of the next
// literal segment that yields valid values; templates whose adjacent
// placeholders have no separator are rejected as ambiguous.
func (t *Template) Match(s string) (map[string]string, bool) {
	vals := make(map[string]string, len(t.Columns))
	if !t.matchFrom(1, s, vals) {
		return nil, false
	}
	return vals, true
}

// matchFrom matches rest against parts[i-1:]: the literal parts[i-1], then
// placeholder parts[i] and everything after it.
func (t *Template) matchFrom(i int, rest string, vals map[string]string) bool {
	lit := t.parts[i-1]
	if !strings.HasPrefix(rest, lit) {
		return false
	}
	rest = rest[len(lit):]
	if i >= len(t.parts) {
		return rest == ""
	}
	col := t.parts[i]
	kind := t.Kind(i / 2)
	sep := t.parts[i+1]
	if i+2 >= len(t.parts) {
		// last placeholder: it takes the rest up to the trailing literal
		if !strings.HasSuffix(rest, sep) {
			return false
		}
		raw := rest[:len(rest)-len(sep)]
		if !lexicalOK(kind, raw) {
			return false
		}
		vals[col] = iriUnsafe(raw)
		return true
	}
	if sep == "" {
		return false // adjacent placeholders: ambiguous
	}
	for off := 0; ; {
		j := strings.Index(rest[off:], sep)
		if j < 0 {
			return false
		}
		raw := rest[:off+j]
		if lexicalOK(kind, raw) {
			vals[col] = iriUnsafe(raw)
			if t.matchFrom(i+2, rest[off+j:], vals) {
				return true
			}
		}
		off += j + 1
	}
}

// CompatiblePrefix reports whether a string could possibly be produced by
// the template (used by the unfolder to prune mapping branches cheaply
// before full unification).
func (t *Template) CompatiblePrefix(s string) bool {
	if len(t.parts) == 0 {
		return s == ""
	}
	return strings.HasPrefix(s, t.parts[0])
}

// SameStructure reports whether two templates can ever produce the same
// string; the unfolder uses it to prune join branches between incompatible
// templates (a key semantic-query-optimization step of the paper).
// It is the negation of DisjointWith.
func (t *Template) SameStructure(u *Template) bool {
	return !t.DisjointWith(u)
}

// DisjointWith proves that no string can be produced by both templates.
// It is the shared disjointness test behind the unfolder's branch pruning
// and the static analyzer's unjoinable-template diagnostics.
//
// Each template denotes a regular language: its literal bytes in order,
// with every placeholder replaced by the closure of its lexical alphabet
// (see Typed; an untyped placeholder matches any string). The test is an
// exact emptiness check on the intersection of the two languages, so it
// is sound for every value the columns can hold, and as strong as the
// alphabets allow: "licence/{INT}" is disjoint from
// "licence/{INT}/task/{TEXT}" because an INT never renders a '/', while
// "p/{TEXT}-{TEXT}" and "p/{TEXT}_{TEXT}" both produce "p/1_2-3".
//
// The result is memoized per template pair.
func (t *Template) DisjointWith(u *Template) bool {
	if t == u {
		return false // a template's language is never empty
	}
	if d, ok := t.disjoint.Load(u); ok {
		return d.(bool)
	}
	d := !intersects(t.toks, u.toks)
	t.disjoint.Store(u, d)
	return d
}
