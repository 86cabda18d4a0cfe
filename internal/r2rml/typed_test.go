package r2rml

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"npdbench/internal/sqldb"
)

// typedTemplate parses src and binds each placeholder to the kind given in
// kinds (columns absent from kinds stay untyped).
func typedTemplate(t testing.TB, src string, kinds map[string]sqldb.Kind) *Template {
	t.Helper()
	tm, err := ParseTemplate(src)
	if err != nil {
		t.Fatal(err)
	}
	return tm.Typed(func(col string) sqldb.Kind { return kinds[col] })
}

var (
	kInt  = sqldb.KindInt
	kDate = sqldb.KindDate
	kText = sqldb.KindString
	kFlt  = sqldb.KindFloat
	kBool = sqldb.KindBool
)

func TestDisjointWithTyped(t *testing.T) {
	cases := []struct {
		name     string
		a, b     string
		kinds    map[string]sqldb.Kind
		disjoint bool
	}{
		{"int-led vs longer int-led", "licence/{id}", "licence/{id}/task/{name}",
			map[string]sqldb.Kind{"id": kInt, "name": kText}, true},
		{"text-led vs longer text-led", "block/{name}", "block/{name}/x/{n}",
			map[string]sqldb.Kind{"name": kText, "n": kInt}, false},
		{"untyped vs longer int-led", "licence/{u}", "licence/{id}/task/{name}",
			map[string]sqldb.Kind{"id": kInt, "name": kText}, false},
		{"date vs longer date", "p/{d}", "p/{d}/q/{e}",
			map[string]sqldb.Kind{"d": kDate, "e": kInt}, true},
		{"date vs int: both render digits and dashes", "p/{d}", "p/{i}",
			map[string]sqldb.Kind{"d": kDate, "i": kInt}, false},
		{"negative ints share the dash", "p/{a}-{b}", "p/{c}",
			map[string]sqldb.Kind{"a": kInt, "b": kInt, "c": kInt}, false},
		{"int vs text separator", "p/{a}", "p/{x}/y",
			map[string]sqldb.Kind{"a": kInt, "x": kText}, true},
		{"int never renders empty", "p/{a}", "p/",
			map[string]sqldb.Kind{"a": kInt}, true},
		{"text may render empty", "p/{x}", "p/",
			map[string]sqldb.Kind{"x": kText}, false},
		{"suffix-only difference", "p/{a}.html", "p/{b}.xml",
			map[string]sqldb.Kind{"a": kText, "b": kText}, true},
		{"suffix overlap", "p/{a}.html", "p/{b}ml",
			map[string]sqldb.Kind{"a": kText, "b": kText}, false},
		{"interior separators, text", "p/{a}-{b}", "p/{c}_{d}",
			map[string]sqldb.Kind{"a": kText, "b": kText, "c": kText, "d": kText}, false},
		{"interior separators, int", "p/{a}-{b}", "p/{c}_{d}",
			map[string]sqldb.Kind{"a": kInt, "b": kInt, "c": kInt, "d": kInt}, true},
		{"investment vs production after int", "f/{id}/investment/{y}", "f/{id}/production/{y}",
			map[string]sqldb.Kind{"id": kInt, "y": kInt}, true},
		{"production year vs year/month", "f/{id}/production/{y}", "f/{id}/production/{y}/{m}",
			map[string]sqldb.Kind{"id": kInt, "y": kInt, "m": kInt}, true},
		{"bool vs int", "p/{b}", "p/{i}",
			map[string]sqldb.Kind{"b": kBool, "i": kInt}, true},
		{"bool vs text", "p/{b}", "p/{x}",
			map[string]sqldb.Kind{"b": kBool, "x": kText}, false},
		{"float vs int", "p/{f}", "p/{i}",
			map[string]sqldb.Kind{"f": kFlt, "i": kInt}, false},
		{"float exponent sign", "p/{f}", "p/1e+{i}",
			map[string]sqldb.Kind{"f": kFlt, "i": kInt}, false},
		{"float infinity", "p/{f}", "p/+Inf",
			map[string]sqldb.Kind{"f": kFlt}, false},
		{"float exponent vs int slash", "p/{f}", "p/{i}/x",
			map[string]sqldb.Kind{"f": kFlt, "i": kInt}, true},
		{"different prefixes", "emp/{id}", "prod/{id}",
			map[string]sqldb.Kind{"id": kText}, true},
		{"equal constants", "c", "c", nil, false},
		{"different constants", "c", "d", nil, true},
		{"constant in the int language", "p/12", "p/{i}",
			map[string]sqldb.Kind{"i": kInt}, false},
		{"constant outside the int language", "p/x", "p/{i}",
			map[string]sqldb.Kind{"i": kInt}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := typedTemplate(t, c.a, c.kinds)
			b := typedTemplate(t, c.b, c.kinds)
			if got := a.DisjointWith(b); got != c.disjoint {
				t.Errorf("%s DisjointWith %s = %v, want %v", a.typeKey(), b.typeKey(), got, c.disjoint)
			}
			if got := b.DisjointWith(a); got != c.disjoint {
				t.Errorf("not symmetric: %s DisjointWith %s = %v", b.typeKey(), a.typeKey(), got)
			}
			if a.SameStructure(b) == c.disjoint {
				t.Errorf("SameStructure must negate DisjointWith")
			}
		})
	}
}

func TestMatchTypedRejectsNonCanonical(t *testing.T) {
	w := typedTemplate(t, "w/{id}", map[string]sqldb.Kind{"id": kInt})
	for _, s := range []string{"w/01", "w/1.0", "w/+1", "w/", "w/1x", "w/-0", "w/1/core/2"} {
		if _, ok := w.Match(s); ok {
			t.Errorf("INT template matched %q", s)
		}
	}
	for _, s := range []string{"w/1", "w/-7", "w/0"} {
		if _, ok := w.Match(s); !ok {
			t.Errorf("INT template rejected %q", s)
		}
	}
	d := typedTemplate(t, "d/{day}", map[string]sqldb.Kind{"day": kDate})
	for s, want := range map[string]bool{"d/2001-02-03": true, "d/2001-2-3": false, "d/-001-01-01": true, "d/2001-13-01": false} {
		if _, ok := d.Match(s); ok != want {
			t.Errorf("DATE template Match(%q) = %v, want %v", s, ok, want)
		}
	}
	// An untyped placeholder still matches any text.
	u := MustParseTemplate("w/{id}")
	if _, ok := u.Match("w/01"); !ok {
		t.Error("untyped template must match w/01")
	}
	// The last placeholder of a template with a trailing literal takes
	// everything up to that literal.
	x := typedTemplate(t, "p/{a}.html", map[string]sqldb.Kind{"a": kText})
	if vals, ok := x.Match("p/x.html.html"); !ok || vals["a"] != "x.html" {
		t.Errorf("Match = %v %v", vals, ok)
	}
	// Typed splitting skips a separator occurrence the value cannot hold.
	y := typedTemplate(t, "p/{a}-{b}", map[string]sqldb.Kind{"a": kInt, "b": kText})
	if vals, ok := y.Match("p/-3-x"); !ok || vals["a"] != "-3" || vals["b"] != "x" {
		t.Errorf("Match = %v %v", vals, ok)
	}
}

func TestTemplateValueUsesColumnKind(t *testing.T) {
	tm := typedTemplate(t, "p/{i}/{s}/{d}", map[string]sqldb.Kind{"i": kInt, "s": kText, "d": kDate})
	if v := tm.Value("i", "42"); v.Kind != sqldb.KindInt || v.I != 42 {
		t.Errorf("INT value = %v", v)
	}
	if v := tm.Value("s", "42"); v.Kind != sqldb.KindString || v.S != "42" {
		t.Errorf("TEXT value = %v (a numeric-looking text stays a string)", v)
	}
	if v := tm.Value("d", "2001-02-03"); v.Kind != sqldb.KindDate || v.String() != "2001-02-03" {
		t.Errorf("DATE value = %v", v)
	}
	if v := MustParseTemplate("p/{x}").Value("x", "7"); v.Kind != sqldb.KindInt {
		t.Errorf("untyped value = %v (guessed as before)", v)
	}
}

// randomValue draws a value of kind k, biased toward edge cases.
func randomValue(rng *rand.Rand, k sqldb.Kind) sqldb.Value {
	switch k {
	case sqldb.KindInt:
		switch rng.Intn(4) {
		case 0:
			return sqldb.NewInt(int64(rng.Intn(21) - 10))
		case 1:
			return sqldb.NewInt(math.MinInt64 + int64(rng.Intn(3)))
		}
		return sqldb.NewInt(rng.Int63() - rng.Int63())
	case sqldb.KindDate:
		return sqldb.NewDate(int64(rng.Intn(2000000) - 1000000))
	case sqldb.KindFloat:
		switch rng.Intn(5) {
		case 0:
			return sqldb.NewFloat(math.Inf(1 - 2*rng.Intn(2)))
		case 1:
			return sqldb.NewFloat(math.NaN())
		}
		return sqldb.NewFloat(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30)))
	case sqldb.KindBool:
		return sqldb.NewBool(rng.Intn(2) == 0)
	}
	const alpha = "ab/-_.x0123 %"
	n := rng.Intn(5)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(alpha[rng.Intn(len(alpha))])
	}
	return sqldb.NewString(sb.String())
}

// TestDisjointWithTypedSound is the soundness property of the typed proof:
// whenever it calls two templates disjoint, no pair of random values of
// the placeholders' kinds expands them to the same string, and no
// expansion of one is matched by the other.
func TestDisjointWithTypedSound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kinds := []sqldb.Kind{kInt, kDate, kText, kFlt, kBool, sqldb.KindNull}
	// Few distinct literals, so that most pairs share a prefix and the
	// proof has to reason about the placeholders.
	prefixes := []string{"", "p/", "p/-"}
	lits := []string{"", "/", "-", "/x", "1", "e", "+", "Inf", "TRUE", ".", "_", "/task/"}
	gen := func() (string, map[string]sqldb.Kind) {
		var sb strings.Builder
		k := map[string]sqldb.Kind{}
		n := rng.Intn(3)
		sb.WriteString(prefixes[rng.Intn(len(prefixes))])
		for i := 0; i < n; i++ {
			col := string(rune('a' + i))
			k[col] = kinds[rng.Intn(len(kinds))]
			sb.WriteString("{" + col + "}")
			sep := lits[rng.Intn(len(lits))]
			if sep == "" && i < n-1 {
				sep = "/"
			}
			sb.WriteString(sep)
		}
		return sb.String(), k
	}
	proved := 0
	for iter := 0; iter < 3000; iter++ {
		sa, ka := gen()
		sb, kb := gen()
		a, b := typedTemplate(t, sa, ka), typedTemplate(t, sb, kb)
		if !a.DisjointWith(b) {
			continue
		}
		proved++
		expand := func(tm *Template, k map[string]sqldb.Kind) string {
			vals := map[string]sqldb.Value{}
			for col, kind := range k {
				vals[col] = randomValue(rng, kind)
			}
			s, ok := tm.Expand(func(c string) (sqldb.Value, bool) { v, o := vals[c]; return v, o })
			if !ok {
				t.Fatalf("expand %s failed", tm.typeKey())
			}
			return s
		}
		// Match is an independent membership test: it checks the lexical
		// forms directly, not through the alphabets.
		seen := map[string]bool{}
		for i := 0; i < 40; i++ {
			s := expand(a, ka)
			seen[s] = true
			if _, ok := b.Match(s); ok {
				t.Fatalf("%s and %s proved disjoint, but %s matches %q", a.typeKey(), b.typeKey(), b.typeKey(), s)
			}
		}
		for i := 0; i < 40; i++ {
			if s := expand(b, kb); seen[s] {
				t.Fatalf("%s and %s proved disjoint, but both expand to %q", a.typeKey(), b.typeKey(), s)
			}
		}
		// Every expansion must also match its own template.
		if _, ok := a.Match(expand(a, ka)); !ok && !strings.Contains(sa, "}{") {
			t.Fatalf("%s does not match its own expansion", a.typeKey())
		}
	}
	t.Logf("%d pairs proved disjoint", proved)
	if proved < 100 {
		t.Fatalf("only %d disjoint pairs generated; the property is vacuous", proved)
	}
}

// TestDisjointWithTypedMonotone checks that typing only narrows the
// languages: templates proved disjoint untyped stay disjoint when typed.
func TestDisjointWithTypedMonotone(t *testing.T) {
	pairs := [][2]string{
		{"emp/{id}", "prod/{id}"},
		{"p/{a}.html", "p/{b}.xml"},
		{"c", "d"},
	}
	for _, p := range pairs {
		a, b := MustParseTemplate(p[0]), MustParseTemplate(p[1])
		if !a.DisjointWith(b) {
			t.Fatalf("%s / %s: untyped proof failed", p[0], p[1])
		}
		k := map[string]sqldb.Kind{"id": kInt, "a": kText, "b": kDate}
		if !typedTemplate(t, p[0], k).DisjointWith(typedTemplate(t, p[1], k)) {
			t.Fatalf("%s / %s: typing weakened the proof", p[0], p[1])
		}
	}
}

func TestSourceKindsResolvesColumns(t *testing.T) {
	db := sqldb.NewDatabase("t")
	mk := func(name string, cols ...sqldb.Column) {
		if _, err := db.CreateTable(&sqldb.TableDef{Name: name, Columns: cols}); err != nil {
			t.Fatal(err)
		}
	}
	mk("licence", sqldb.Column{Name: "id", Type: sqldb.TInt}, sqldb.Column{Name: "name", Type: sqldb.TText},
		sqldb.Column{Name: "granted", Type: sqldb.TDate})
	mk("company", sqldb.Column{Name: "id", Type: sqldb.TText}, sqldb.Column{Name: "licence", Type: sqldb.TInt})
	cases := []struct {
		name string
		m    *TriplesMap
		want map[string]sqldb.Kind
	}{
		{"base table", &TriplesMap{Table: "licence"},
			map[string]sqldb.Kind{"id": kInt, "name": kText, "granted": kDate}},
		{"view with alias", &TriplesMap{SQL: "SELECT id AS lid, name FROM licence WHERE id > 3"},
			map[string]sqldb.Kind{"lid": kInt, "name": kText}},
		{"qualified star", &TriplesMap{SQL: "SELECT l.* FROM licence l"},
			map[string]sqldb.Kind{"id": kInt, "name": kText, "granted": kDate}},
		{"join view with qualified aliases",
			&TriplesMap{SQL: "SELECT l.id AS lid, c.id AS cid FROM licence l JOIN company c ON l.id = c.licence"},
			map[string]sqldb.Kind{"lid": kInt, "cid": kText}},
		{"ambiguous unqualified column", &TriplesMap{SQL: "SELECT id FROM licence l JOIN company c ON l.id = c.licence"},
			map[string]sqldb.Kind{}},
		{"star over a join with a type clash",
			&TriplesMap{SQL: "SELECT * FROM licence l JOIN company c ON l.id = c.licence"},
			map[string]sqldb.Kind{"name": kText, "granted": kDate, "licence": kInt}},
		{"expression column", &TriplesMap{SQL: "SELECT id || 'x' AS id, name FROM licence"},
			map[string]sqldb.Kind{"name": kText}},
		{"union view", &TriplesMap{SQL: "SELECT id FROM licence UNION SELECT licence FROM company"}, nil},
		{"derived table", &TriplesMap{SQL: "SELECT id FROM (SELECT id FROM licence) s"}, nil},
		{"unknown table", &TriplesMap{Table: "nope"}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := sourceKinds(c.m, db)
			if len(got) != len(c.want) {
				t.Fatalf("kinds = %v, want %v", got, c.want)
			}
			for col, k := range c.want {
				if g, ok := got[col]; !ok || g != k {
					t.Fatalf("kinds = %v, want %v", got, c.want)
				}
			}
		})
	}
}

func TestMappingTypedLeavesReceiverUntouched(t *testing.T) {
	db := sqldb.NewDatabase("t")
	if _, err := db.CreateTable(&sqldb.TableDef{Name: "w", Columns: []sqldb.Column{
		{Name: "id", Type: sqldb.TInt}, {Name: "doc", Type: sqldb.TText}}}); err != nil {
		t.Fatal(err)
	}
	mp := NewMapping()
	mp.Add(&TriplesMap{Name: "a", Table: "w", Subject: IRIMap("w/{id}")})
	mp.Add(&TriplesMap{Name: "b", SQL: "SELECT id AS wid, doc FROM w", Subject: IRIMap("w/{wid}/doc/{doc}")})
	mp.Add(&TriplesMap{Name: "c", SQL: "SELECT id || '' AS id FROM w", Subject: IRIMap("w/{id}")})
	mp.Add(&TriplesMap{Name: "d", SQL: "SELECT id, doc FROM w", Subject: IRIMap("w/{id}/doc/{doc}"),
		POs: []PredicateObject{{Predicate: "p", Object: IRIMap("w/{id}")}}})
	orig := []*Template{mp.Maps[0].Subject.Template, mp.Maps[1].Subject.Template}
	typed := mp.Typed(db)
	if mp.Maps[0].Subject.Template != orig[0] || mp.Maps[1].Subject.Template != orig[1] {
		t.Fatal("Typed modified the receiver's templates")
	}
	if orig[0].DisjointWith(orig[1]) {
		t.Fatal("untyped w/{id} and w/{id}/doc/{doc} may collide")
	}
	a, b := typed.Maps[0].Subject.Template, typed.Maps[1].Subject.Template
	if !a.DisjointWith(b) {
		t.Fatalf("typed %s and %s must be disjoint", a.typeKey(), b.typeKey())
	}
	if typed.Maps[3].POs[0].Object.Template != a {
		t.Fatal("equal typed templates must be interned to one pointer")
	}
	if typed.Maps[2] != mp.Maps[2] {
		t.Fatal("a map with no resolvable column kind is shared, not copied")
	}
	if typed.Maps[2].Subject.Template.DisjointWith(b) {
		t.Fatal("a computed id column must stay untyped")
	}
	if _, err := typed.Maps[1].LogicalSQL(); err != nil {
		t.Fatal(err)
	}
}

// TestDisjointWithConcurrent shares typed templates between goroutines,
// as concurrent queries share one engine's mapping: the memoized proof
// must give every caller the same answer (run under -race).
func TestDisjointWithConcurrent(t *testing.T) {
	k := map[string]sqldb.Kind{"id": kInt, "name": kText}
	tmpls := []*Template{
		typedTemplate(t, "licence/{id}", k),
		typedTemplate(t, "licence/{id}/task/{name}", k),
		typedTemplate(t, "licence/{name}", k),
		typedTemplate(t, "block/{name}", k),
	}
	want := make([][]bool, len(tmpls))
	for i, a := range tmpls {
		want[i] = make([]bool, len(tmpls))
		for j, b := range tmpls {
			want[i][j] = !intersects(a.toks, b.toks) && a != b
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, a := range tmpls {
				for j, b := range tmpls {
					if got := a.DisjointWith(b); got != want[i][j] {
						t.Errorf("%s DisjointWith %s = %v, want %v", a.typeKey(), b.typeKey(), got, want[i][j])
					}
				}
			}
		}()
	}
	wg.Wait()
}
