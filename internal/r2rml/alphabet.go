package r2rml

import (
	"strconv"
	"strings"

	"npdbench/internal/sqldb"
)

// Typed placeholders. A placeholder bound to a column of known type can
// only expand to the lexical forms sqldb.Value.String renders for that
// type, so its expansions draw from a small alphabet:
//
//	INT, DATE  [0-9-]          (DATE renders as YYYY-MM-DD)
//	BOOL       TRUE | FALSE
//	FLOAT      digits . e + - and the letters of NaN / Inf
//	TEXT, unknown, GEOMETRY    any byte
//
// and, except for the any-byte ones, never to the empty string. That is
// what lets DisjointWith prove "licence/{INT}" and
// "licence/{INT}/task/{TEXT}" disjoint, and what lets Match reject
// "wellbore/01" for an INT column.

// byteSet is a set of bytes.
type byteSet [4]uint64

func (s *byteSet) add(b byte)      { s[b>>6] |= 1 << (b & 63) }
func (s *byteSet) has(b byte) bool { return s[b>>6]&(1<<(b&63)) != 0 }
func (s *byteSet) addAll(chars string) {
	for i := 0; i < len(chars); i++ {
		s.add(chars[i])
	}
}

// Lexical alphabets, indexed by alphabetOf.
const (
	alphaAny = iota
	alphaInt
	alphaFloat
	alphaBool
	numAlphabets
)

var alphabets = func() [numAlphabets]byteSet {
	var a [numAlphabets]byteSet
	for b := 0; b < 256; b++ {
		a[alphaAny].add(byte(b))
	}
	a[alphaInt].addAll("0123456789-")
	a[alphaFloat].addAll("0123456789.e+-NaInf")
	a[alphaBool].addAll("TRUEFALS")
	return a
}()

// alphabetOf maps a placeholder's value kind to its lexical alphabet.
func alphabetOf(k sqldb.Kind) int {
	switch k {
	case sqldb.KindInt, sqldb.KindDate:
		return alphaInt
	case sqldb.KindFloat:
		return alphaFloat
	case sqldb.KindBool:
		return alphaBool
	}
	return alphaAny
}

// token is one position of a template's language: a literal byte
// (alpha < 0), or one byte of a placeholder alphabet, repeated zero or
// more times when star is set.
type token struct {
	lit   byte
	alpha int8
	star  bool
}

func (k token) matches(b byte) bool {
	if k.alpha < 0 {
		return k.lit == b
	}
	return alphabets[k.alpha].has(b)
}

// tokens compiles the template into its token sequence: literal bytes in
// order; a typed placeholder becomes one mandatory alphabet byte followed
// by a starred one (typed values never render empty); an untyped
// placeholder becomes a single starred any-byte token.
func (t *Template) tokens() []token {
	var out []token
	for i, p := range t.parts {
		if i%2 == 0 {
			for j := 0; j < len(p); j++ {
				out = append(out, token{lit: p[j], alpha: -1})
			}
			continue
		}
		a := int8(alphabetOf(t.Kind(i / 2)))
		if a != alphaAny {
			out = append(out, token{alpha: a})
		}
		out = append(out, token{alpha: a, star: true})
	}
	return out
}

// intersects reports whether the languages of two token sequences share a
// string. Literal bytes both sequences start (or end) with must agree and
// are consumed up front; the rest is a breadth-first walk of the product
// automaton, where state (i, j) means a common prefix has been consumed
// up to token i of a and token j of b. Only bytes that distinguish tokens
// need trying: each literal byte of either side, plus one stand-in per
// class of bytes the alphabets do not tell apart.
func intersects(a, b []token) bool {
	for len(a) > 0 && len(b) > 0 && a[0].alpha < 0 && b[0].alpha < 0 {
		if a[0].lit != b[0].lit {
			return false
		}
		a, b = a[1:], b[1:]
	}
	for len(a) > 0 && len(b) > 0 && a[len(a)-1].alpha < 0 && b[len(b)-1].alpha < 0 {
		if a[len(a)-1].lit != b[len(b)-1].lit {
			return false
		}
		a, b = a[:len(a)-1], b[:len(b)-1]
	}
	reps := representatives(a, b)
	nb := len(b) + 1
	seen := make([]bool, (len(a)+1)*nb)
	var queue []int
	var add func(i, j int)
	add = func(i, j int) {
		if seen[i*nb+j] {
			return
		}
		seen[i*nb+j] = true
		queue = append(queue, i*nb+j)
		// A starred token may match nothing: skip it (epsilon move).
		if i < len(a) && a[i].star {
			add(i+1, j)
		}
		if j < len(b) && b[j].star {
			add(i, j+1)
		}
	}
	add(0, 0)
	for len(queue) > 0 {
		s := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		i, j := s/nb, s%nb
		if i == len(a) && j == len(b) {
			return true
		}
		if i == len(a) || j == len(b) {
			continue
		}
		for _, c := range reps {
			if !a[i].matches(c) || !b[j].matches(c) {
				continue
			}
			ni, nj := i, j
			if !a[i].star {
				ni++
			}
			if !b[j].star {
				nj++
			}
			add(ni, nj)
		}
	}
	return false
}

// byteClasses partitions the bytes by alphabet membership: bytes in one
// class are interchangeable for every placeholder token.
var byteClasses = func() [][]byte {
	var bySig [1 << numAlphabets][]byte
	for c := 0; c < 256; c++ {
		sig := 0
		for al := range alphabets {
			if alphabets[al].has(byte(c)) {
				sig |= 1 << al
			}
		}
		bySig[sig] = append(bySig[sig], byte(c))
	}
	var out [][]byte
	for _, members := range bySig {
		if len(members) > 0 {
			out = append(out, members)
		}
	}
	return out
}()

// representatives returns one byte per class of bytes no token of a or b
// tells apart: every literal byte, and per alphabet class one member that
// is not a literal.
func representatives(a, b []token) []byte {
	var lits byteSet
	var reps []byte
	for _, toks := range [2][]token{a, b} {
		for _, k := range toks {
			if k.alpha < 0 && !lits.has(k.lit) {
				lits.add(k.lit)
				reps = append(reps, k.lit)
			}
		}
	}
	for _, members := range byteClasses {
		for _, c := range members {
			if !lits.has(c) {
				reps = append(reps, c)
				break
			}
		}
	}
	return reps
}

// Typed returns a copy of t whose placeholders carry the value kinds of
// their source columns; kind reports sqldb.KindNull for a column whose
// type is unknown. The receiver is not modified. When no placeholder has
// a known kind, t itself is returned.
func (t *Template) Typed(kind func(col string) sqldb.Kind) *Template {
	kinds := make([]sqldb.Kind, len(t.Columns))
	known := false
	for i, c := range t.Columns {
		kinds[i] = kind(c)
		known = known || kinds[i] != sqldb.KindNull
	}
	if !known {
		return t
	}
	u := &Template{parts: t.parts, Columns: t.Columns, kinds: kinds}
	u.toks = u.tokens()
	return u
}

// Kind returns the value kind bound to placeholder i (sqldb.KindNull when
// the template is untyped or the column type is unknown).
func (t *Template) Kind(i int) sqldb.Kind {
	if i < len(t.kinds) {
		return t.kinds[i]
	}
	return sqldb.KindNull
}

// typeKey renders the template with its placeholder kinds, e.g.
// "http://x/{id:INT}"; two templates with equal keys are interchangeable.
func (t *Template) typeKey() string {
	var sb strings.Builder
	for i, p := range t.parts {
		if i%2 == 0 {
			sb.WriteString(p)
			continue
		}
		sb.WriteString("{" + p)
		if k := t.Kind(i / 2); k != sqldb.KindNull {
			sb.WriteString(":" + k.String())
		}
		sb.WriteString("}")
	}
	return sb.String()
}

// Value converts a placeholder value recovered by Match into the SQL value
// its column holds. For a typed placeholder the column kind decides (a
// TEXT column gets a string even when the text looks numeric); an untyped
// one is guessed from the text (integers and floats are
// recognized, everything else stays a string).
func (t *Template) Value(col, lex string) sqldb.Value {
	for i, c := range t.Columns {
		if c != col {
			continue
		}
		k := t.Kind(i)
		if k == sqldb.KindString {
			return sqldb.NewString(lex)
		}
		if v, ok := parseLexical(k, lex); ok {
			return v
		}
		break
	}
	return guessValue(lex)
}

// lexicalOK reports whether raw (a matched, still percent-encoded
// fragment) is a lexical form a placeholder of kind k can expand to:
// anything for an untyped placeholder, otherwise exactly the canonical
// rendering of some value of that kind.
func lexicalOK(k sqldb.Kind, raw string) bool {
	if alphabetOf(k) == alphaAny {
		return true
	}
	_, ok := parseLexical(k, raw)
	return ok
}

// parseLexical parses the canonical lexical form of a typed value; ok is
// false for other kinds and for any non-canonical text ("01", "+1",
// "1.0" for an INT; "2001-1-1" for a DATE).
func parseLexical(k sqldb.Kind, s string) (sqldb.Value, bool) {
	var v sqldb.Value
	switch k {
	case sqldb.KindInt:
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return v, false
		}
		v = sqldb.NewInt(n)
	case sqldb.KindFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return v, false
		}
		v = sqldb.NewFloat(f)
	case sqldb.KindDate:
		d, err := sqldb.ParseDate(s)
		if err != nil {
			return v, false
		}
		v = d
	case sqldb.KindBool:
		v = sqldb.NewBool(s == "TRUE")
	default:
		return v, false
	}
	return v, v.String() == s
}

// guessValue types an untyped template-matched string fragment: integers
// and floats are recognized, everything else stays a string.
func guessValue(s string) sqldb.Value {
	if s == "" {
		return sqldb.NewString("")
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return sqldb.NewInt(n)
	}
	if strings.ContainsAny(s, ".eE") {
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return sqldb.NewFloat(f)
		}
	}
	return sqldb.NewString(s)
}
