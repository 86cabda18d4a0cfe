package analyze

import (
	"encoding/json"
	"strings"
	"testing"

	"npdbench/internal/owl"
	"npdbench/internal/r2rml"
	"npdbench/internal/sqldb"
)

const ex = "http://ex#"

func fixtureDB(t *testing.T) *sqldb.Database {
	t.Helper()
	db := sqldb.NewDatabase("fixture")
	for _, def := range []*sqldb.TableDef{
		{
			Name: "person",
			Columns: []sqldb.Column{
				{Name: "id", Type: sqldb.TInt, NotNull: true},
				{Name: "name", Type: sqldb.TText},
				{Name: "dept_id", Type: sqldb.TInt},
			},
			PrimaryKey: []int{0},
			ForeignKeys: []sqldb.ForeignKey{
				{Columns: []int{2}, RefTable: "dept", RefColumns: []int{0}},
			},
		},
		{
			Name: "dept",
			Columns: []sqldb.Column{
				{Name: "id", Type: sqldb.TInt, NotNull: true},
				{Name: "title", Type: sqldb.TText},
			},
			PrimaryKey: []int{0},
			Uniques:    [][]int{{1}},
		},
	} {
		if _, err := db.CreateTable(def); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func fixtureOnto() *owl.Ontology {
	o := owl.New(ex)
	o.DeclareClass(ex + "Person")
	o.DeclareClass(ex + "Employee")
	o.DeclareClass(ex + "Ghost") // never mapped
	o.DeclareDataProperty(ex + "name")
	o.DeclareObjectProperty(ex + "inDept")
	o.DeclareObjectProperty(ex + "badRef")
	o.AddSubClass(owl.NamedConcept(ex+"Employee"), owl.NamedConcept(ex+"Person"))
	return o
}

// fixtureMapping deliberately contains one instance of every artifact
// problem the analyzer detects.
func fixtureMapping() *r2rml.Mapping {
	mp := r2rml.NewMapping()
	// Healthy assertions — plus a redundant one: Person over the same rows
	// as Employee, which T-mapping saturation re-derives from Employee.
	mp.Add(&r2rml.TriplesMap{
		Name:    "m-good",
		Table:   "person",
		Subject: r2rml.IRIMap("http://ex/person/{id}"),
		Classes: []string{ex + "Person", ex + "Employee"},
		POs: []r2rml.PredicateObject{
			{Predicate: ex + "name", Object: r2rml.ColumnMap("name")},
			{Predicate: ex + "inDept", Object: r2rml.IRIMap("http://ex/dept/{dept_id}")},
		},
	})
	mp.Add(&r2rml.TriplesMap{
		Name:    "m-dept",
		Table:   "dept",
		Subject: r2rml.IRIMap("http://ex/dept/{id}"),
		Classes: []string{ex + "Dept"}, // not declared: dead mapping
	})
	mp.Add(&r2rml.TriplesMap{
		Name:    "m-badsql",
		SQL:     "SELEC id FRM person", // does not parse
		Subject: r2rml.IRIMap("http://ex/person/{id}"),
		Classes: []string{ex + "Person"},
	})
	mp.Add(&r2rml.TriplesMap{
		Name:    "m-notable",
		SQL:     "SELECT id FROM nosuch",
		Subject: r2rml.IRIMap("http://ex/person/{id}"),
		Classes: []string{ex + "Person"},
	})
	mp.Add(&r2rml.TriplesMap{
		Name:    "m-nocol",
		SQL:     "SELECT wrongcol FROM person",
		Subject: r2rml.IRIMap("http://ex/person/{wrongcol}"),
		Classes: []string{ex + "Person"},
	})
	mp.Add(&r2rml.TriplesMap{
		Name:    "m-termcol",
		Table:   "person",
		Subject: r2rml.IRIMap("http://ex/person/{id}"),
		POs: []r2rml.PredicateObject{
			{Predicate: ex + "name", Object: r2rml.ColumnMap("nickname")}, // absent
		},
	})
	mp.Add(&r2rml.TriplesMap{
		Name:    "m-unjoinable",
		Table:   "person",
		Subject: r2rml.IRIMap("http://ex/person/{id}"),
		POs: []r2rml.PredicateObject{
			{Predicate: ex + "badRef", Object: r2rml.IRIMap("http://nowhere/x/{dept_id}")},
		},
	})
	mp.Add(&r2rml.TriplesMap{
		Name: "m-badjoin",
		SQL: "SELECT p.id FROM person p, person q, dept d " +
			"WHERE p.name = q.name AND p.dept_id = d.id",
		Subject: r2rml.IRIMap("http://ex/person/{id}"),
		Classes: []string{ex + "Person"},
	})
	return mp
}

func TestRunDetectsAllCategories(t *testing.T) {
	res := Run(Input{Mapping: fixtureMapping(), Ontology: fixtureOnto(), DB: fixtureDB(t)})
	rep := res.Report
	counts := rep.ByCode()
	for _, want := range []struct {
		code string
		min  int
	}{
		{CodeInvalidSource, 1},
		{CodeMissingTable, 1},
		{CodeMissingColumn, 2}, // SQL column + term-map column
		{CodeUnmappedTerm, 1},  // Ghost
		{CodeDeadMapping, 1},   // ex#Dept
		{CodeUnjoinableObject, 1},
		{CodeUnsupportedJoin, 1}, // p.name = q.name: neither side heads a key
		{CodeRedundantAssertion, 1},
	} {
		if counts[want.code] < want.min {
			t.Errorf("code %s: got %d diagnostics, want >= %d\n%s",
				want.code, counts[want.code], want.min, rep)
		}
	}
	if !rep.HasErrors() {
		t.Error("fixture should produce errors")
	}
	if got := len(counts); got < 5 {
		t.Errorf("only %d distinct diagnostic categories, want >= 5", got)
	}
	// The FK-backed join must NOT be flagged.
	for _, d := range rep.Diagnostics {
		if d.Code == CodeUnsupportedJoin && strings.Contains(d.Detail, "dept_id") {
			t.Errorf("FK-supported join flagged: %s", d)
		}
	}
	// JSON output round-trips.
	if _, err := rep.JSON(); err != nil {
		t.Fatal(err)
	}
}

func TestUnsupportedJoinDetection(t *testing.T) {
	// title joined against a non-key column of person: no support on
	// either side.
	mp := r2rml.NewMapping()
	mp.Add(&r2rml.TriplesMap{
		Name:    "m-join",
		SQL:     "SELECT p.id FROM person p, dept d WHERE p.name = d.title",
		Subject: r2rml.IRIMap("http://ex/person/{id}"),
		Classes: []string{ex + "Person"},
	})
	res := Run(Input{Mapping: mp, Ontology: fixtureOnto(), DB: fixtureDB(t)})
	n := res.Report.ByCode()[CodeUnsupportedJoin]
	// d.title heads a UNIQUE key, so this join IS supported.
	if n != 0 {
		t.Errorf("unique-head join flagged %d times:\n%s", n, res.Report)
	}

	mp2 := r2rml.NewMapping()
	mp2.Add(&r2rml.TriplesMap{
		Name:    "m-join2",
		SQL:     "SELECT p.id FROM person p, person q WHERE p.name = q.name",
		Subject: r2rml.IRIMap("http://ex/person/{id}"),
		Classes: []string{ex + "Person"},
	})
	res = Run(Input{Mapping: mp2, Ontology: fixtureOnto(), DB: fixtureDB(t)})
	if res.Report.ByCode()[CodeUnsupportedJoin] != 1 {
		t.Errorf("unsupported self-join not flagged:\n%s", res.Report)
	}
}

func TestConstraints(t *testing.T) {
	db := fixtureDB(t)
	cons := DeriveConstraints(fixtureMapping(), fixtureOnto(), db)

	if !cons.KeyCoveredBy("person", []string{"id", "name"}) {
		t.Error("PK {id} should be covered by {id,name}")
	}
	if !cons.KeyCoveredBy("PERSON", []string{"ID"}) {
		t.Error("key coverage must be case-insensitive")
	}
	if cons.KeyCoveredBy("person", []string{"name"}) {
		t.Error("{name} covers no key of person")
	}
	if !cons.KeyCoveredBy("dept", []string{"title"}) {
		t.Error("UNIQUE {title} should count as a key")
	}
	if !cons.IsNotNull("person", "id") {
		t.Error("PK column id must be NOT NULL")
	}
	if cons.IsNotNull("person", "name") {
		t.Error("name is nullable")
	}

	// Person's direct assertion covers Employee's (same shape), so Person
	// is exact; Ghost has no mapping at all.
	if !cons.IsExact(ex + "Person") {
		t.Errorf("Person should be exact; exact terms: %v", cons.ExactTerms())
	}
	if cons.IsExact(ex + "Ghost") {
		t.Error("Ghost has no direct mapping, cannot be exact")
	}

	st := cons.Stats()
	if st.Tables != 2 || st.Keys != 3 || st.NotNullColumns == 0 {
		t.Errorf("unexpected stats: %+v", st)
	}

	// nil constraints constrain nothing.
	var nilCons *Constraints
	if nilCons.KeyCoveredBy("person", []string{"id"}) || nilCons.IsNotNull("person", "id") || nilCons.IsExact(ex+"Person") {
		t.Error("nil Constraints must be inert")
	}
}

func TestReportOrderingAndSummary(t *testing.T) {
	rep := &Report{}
	rep.add(Diagnostic{Code: "b-code", Severity: SevInfo, Detail: "x"})
	rep.add(Diagnostic{Code: "a-code", Severity: SevError, Detail: "y"})
	rep.add(Diagnostic{Code: "c-code", Severity: SevWarning, Detail: "z"})
	rep.sortDiagnostics()
	if rep.Diagnostics[0].Severity != SevError || rep.Diagnostics[2].Severity != SevInfo {
		t.Errorf("diagnostics not ordered by severity: %v", rep.Diagnostics)
	}
	if got := rep.Summary(); got != "1 errors, 1 warnings, 1 infos" {
		t.Errorf("summary = %q", got)
	}
}

func TestReportJSONPayload(t *testing.T) {
	rep := &Report{}
	rep.add(Diagnostic{Code: "missing-table", Severity: SevError, Detail: "x"})
	rep.add(Diagnostic{Code: "missing-table", Severity: SevError, Detail: "y"})
	rep.add(Diagnostic{Code: "dead-mapping", Severity: SevWarning, Detail: "z"})
	p := rep.Payload()
	if p.Summary != rep.Summary() {
		t.Errorf("payload summary = %q", p.Summary)
	}
	if p.Counts["error"] != 2 || p.Counts["warning"] != 1 || p.Counts["info"] != 0 {
		t.Errorf("payload counts = %v", p.Counts)
	}
	if p.ByCode["missing-table"] != 2 || p.ByCode["dead-mapping"] != 1 {
		t.Errorf("payload by_code = %v", p.ByCode)
	}
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var round map[string]any
	if err := json.Unmarshal(b, &round); err != nil {
		t.Fatalf("report JSON invalid: %v", err)
	}
	for _, key := range []string{"summary", "diagnostics", "counts", "by_code"} {
		if _, ok := round[key]; !ok {
			t.Errorf("report JSON missing %q", key)
		}
	}
}

// TestJoinabilityUsesTypedProof pins the typed template proof in the
// unjoinable-object diagnostic: an object "person/{dept_id}" (INT) can
// never equal a subject "person/{id}/dept/{title}" (INT-led), though an
// untyped placeholder could swallow the "/dept/…" suffix.
func TestJoinabilityUsesTypedProof(t *testing.T) {
	mp := r2rml.NewMapping()
	mp.Add(&r2rml.TriplesMap{
		Name:    "m-sub",
		SQL:     "SELECT p.id AS id, d.title AS title FROM person p JOIN dept d ON p.dept_id = d.id",
		Subject: r2rml.IRIMap("http://ex/person/{id}/dept/{title}"),
	})
	mp.Add(&r2rml.TriplesMap{
		Name:    "m-obj",
		Table:   "person",
		Subject: r2rml.IRIMap("http://ex/person/{id}/dept/{name}"),
		POs: []r2rml.PredicateObject{
			{Predicate: ex + "inDept", Object: r2rml.IRIMap("http://ex/person/{dept_id}")},
		},
	})
	unjoinable := func(in Input) int {
		return Run(in).Report.ByCode()[CodeUnjoinableObject]
	}
	// Against a catalog without the tables, no placeholder is typed.
	if n := unjoinable(Input{Mapping: mp, DB: sqldb.NewDatabase("empty")}); n != 0 {
		t.Fatalf("untyped: %d unjoinable-object diagnostics, want 0", n)
	}
	if n := unjoinable(Input{Mapping: mp, DB: fixtureDB(t)}); n != 1 {
		t.Fatalf("typed: %d unjoinable-object diagnostics, want 1", n)
	}
}
