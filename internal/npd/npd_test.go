package npd

import (
	"sort"
	"strings"
	"testing"

	"npdbench/internal/core"
	"npdbench/internal/owl"
	"npdbench/internal/rdf"
	"npdbench/internal/sqldb"
	"npdbench/internal/vig"
)

func seedDB(t *testing.T) *sqldb.Database {
	t.Helper()
	db, err := NewSeededDatabase(SeedConfig{Scale: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestSchemaShape(t *testing.T) {
	db, err := NewDatabase()
	if err != nil {
		t.Fatal(err)
	}
	if TableCount() < 70 {
		t.Fatalf("schema has %d tables, want >= 70 (paper)", TableCount())
	}
	nfk := 0
	wide := 0
	for _, tab := range db.Tables() {
		nfk += len(tab.Def.ForeignKeys)
		if len(tab.Def.Columns) >= 25 {
			wide++
		}
	}
	if nfk < 80 {
		t.Fatalf("schema has %d FKs, want approximately the paper's 94", nfk)
	}
	if wide < 2 {
		t.Fatalf("expected at least two wide wellbore tables, got %d", wide)
	}
}

func TestSeedIntegrityAndDeterminism(t *testing.T) {
	db1, err := NewSeededDatabase(SeedConfig{Scale: 0.25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if errs := db1.CheckIntegrity(); len(errs) != 0 {
		t.Fatalf("integrity violations: %v", errs[0])
	}
	db2, err := NewSeededDatabase(SeedConfig{Scale: 0.25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if db1.TotalRows() != db2.TotalRows() {
		t.Fatalf("seeding not deterministic: %d vs %d rows", db1.TotalRows(), db2.TotalRows())
	}
	// different seed should give a different instance (values, if not counts)
	db3, err := NewSeededDatabase(SeedConfig{Scale: 0.25, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if SortedTableSizes(db1) == "" || db3.TotalRows() == 0 {
		t.Fatal("empty instance")
	}
}

func TestOntologyShape(t *testing.T) {
	o := NewOntology()
	s := o.Stats()
	if s.Classes < 150 {
		t.Fatalf("ontology has %d classes, want a rich hierarchy (paper: 343)", s.Classes)
	}
	if s.ObjectProps < 60 {
		t.Fatalf("ontology has %d object properties (paper: 142)", s.ObjectProps)
	}
	if s.DataProps < 200 {
		t.Fatalf("ontology has %d data properties (paper: 238)", s.DataProps)
	}
	if s.MaxDepth < 8 {
		t.Fatalf("hierarchy depth %d, want >= 8 (paper: 10)", s.MaxDepth)
	}
	if len(o.Existentials) < 15 {
		t.Fatalf("only %d existential axioms; tree witnesses need more", len(o.Existentials))
	}
	if unsat := o.UnsatisfiableClasses(); len(unsat) != 0 {
		t.Fatalf("ontology has unsatisfiable classes: %v", unsat)
	}
	// hierarchy sanity: WildcatWellbore ⊑* Wellbore
	if !o.Subsumes(owl.NamedConcept(V("Wellbore")), owl.NamedConcept(V("WildcatWellbore"))) {
		t.Fatal("WildcatWellbore must be subsumed by Wellbore")
	}
	if !o.Subsumes(owl.NamedConcept(V("LithostratigraphicUnit")), owl.NamedConcept(V("JurassicFormation"))) {
		t.Fatal("JurassicFormation must be a LithostratigraphicUnit")
	}
}

func TestMappingShape(t *testing.T) {
	mp := NewMapping()
	st := mp.Stats()
	if st.Assertions < 300 {
		t.Fatalf("mapping has %d assertions, too sparse (paper: 1190)", st.Assertions)
	}
	if st.MappedTerms < 250 {
		t.Fatalf("mapping covers %d terms", st.MappedTerms)
	}
	// every mapping's SQL must parse and reference existing tables
	db, err := NewDatabase()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mp.Maps {
		stmt, err := m.LogicalSQL()
		if err != nil {
			t.Fatalf("mapping %s: %v", m.Name, err)
		}
		if _, err := db.ExecSelect(stmt); err != nil {
			t.Fatalf("mapping %s source does not run: %v", m.Name, err)
		}
	}
}

func TestAll21QueriesRun(t *testing.T) {
	db := seedDB(t)
	eng, err := core.NewEngine(core.Spec{
		Onto: NewOntology(), Mapping: NewMapping(), DB: db, Prefixes: Prefixes(),
	}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	queries := Queries()
	if len(queries) != 21 {
		t.Fatalf("expected 21 queries, got %d", len(queries))
	}
	empty := 0
	for _, q := range queries {
		ans, err := eng.Query(q.SPARQL)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		if ans.Len() == 0 {
			empty++
			t.Logf("%s returned no rows", q.ID)
		}
	}
	if empty > 3 {
		t.Fatalf("%d of 21 queries returned empty results on the seed", empty)
	}
}

func TestQ6TreeWitnesses(t *testing.T) {
	db := seedDB(t)
	eng, err := core.NewEngine(core.Spec{
		Onto: NewOntology(), Mapping: NewMapping(), DB: db, Prefixes: Prefixes(),
	}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	q := QueryByID("q6")
	ans, err := eng.Query(q.SPARQL)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Stats.TreeWitnesses != 2 {
		t.Fatalf("q6 tree witnesses = %d, want 2 (paper)", ans.Stats.TreeWitnesses)
	}
	if ans.Len() == 0 {
		t.Fatal("q6 returned no rows")
	}
	// Existential reasoning must matter: belongsToWell has no mapping, so
	// with reasoning off the query is empty.
	engOff, err := core.NewEngine(core.Spec{
		Onto: NewOntology(), Mapping: NewMapping(), DB: db, Prefixes: Prefixes(),
	}, core.Options{TMappings: true, Existential: false})
	if err != nil {
		t.Fatal(err)
	}
	ansOff, err := engOff.Query(q.SPARQL)
	if err != nil {
		t.Fatal(err)
	}
	if ansOff.Len() != 0 {
		t.Fatalf("q6 without existential reasoning returned %d rows, want 0", ansOff.Len())
	}
}

func TestOBDAMatchesTripleStoreOnNPD(t *testing.T) {
	db, err := NewSeededDatabase(SeedConfig{Scale: 0.15, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	spec := core.Spec{Onto: NewOntology(), Mapping: NewMapping(), DB: db, Prefixes: Prefixes()}
	eng, err := core.NewEngine(spec, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	store, err := core.NewStoreEngine(spec, core.StoreOptions{Reasoning: true})
	if err != nil {
		t.Fatal(err)
	}
	// Non-aggregate queries must agree between the OBDA engine and the
	// reasoning triple store (certain-answer semantics).
	for _, id := range []string{"q1", "q2", "q3", "q4", "q5", "q7", "q8", "q10", "q11", "q12", "q13"} {
		q := QueryByID(id)
		a1, err := eng.Query(q.SPARQL)
		if err != nil {
			t.Fatalf("obda %s: %v", id, err)
		}
		a2, err := store.Query(q.SPARQL)
		if err != nil {
			t.Fatalf("store %s: %v", id, err)
		}
		if a1.Len() != a2.Len() {
			t.Fatalf("%s: OBDA %d rows vs store %d rows", id, a1.Len(), a2.Len())
		}
	}
}

func TestAggregateQueriesPushdown(t *testing.T) {
	db, err := NewSeededDatabase(SeedConfig{Scale: 0.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(core.Spec{
		Onto: NewOntology(), Mapping: NewMapping(), DB: db, Prefixes: Prefixes(),
	}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// q15/q16/q18/q19/q20 are in the pushable fragment (single filtered
	// BGP, plain grouping, simple aggregates); q17/q21 carry HAVING and
	// fall back. All must produce correct, non-erroneous answers.
	pushable := map[string]bool{"q15": true, "q16": true, "q18": true, "q19": true, "q20": true}
	for _, q := range Queries() {
		if !q.Aggregate {
			continue
		}
		ans, err := eng.Query(q.SPARQL)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		gotPush := strings.Contains(ans.Stats.UnfoldedSQL, "GROUP BY") ||
			strings.Contains(ans.Stats.UnfoldedSQL, "COUNT") ||
			strings.Contains(ans.Stats.UnfoldedSQL, "MIN(")
		if gotPush != pushable[q.ID] {
			t.Errorf("%s: pushdown = %v, want %v", q.ID, gotPush, pushable[q.ID])
		}
	}
}

func TestScaledInstanceStaysConsistent(t *testing.T) {
	db, err := NewSeededDatabase(SeedConfig{Scale: 0.15, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	spec := core.Spec{Onto: NewOntology(), Mapping: NewMapping(), DB: db, Prefixes: Prefixes()}
	eng, err := core.NewEngine(spec, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	before, err := eng.Query(`SELECT ?w WHERE { ?w a npdv:Wellbore }`)
	if err != nil {
		t.Fatal(err)
	}
	// pump with VIG, then the same engine must see more wellbores and the
	// instance must still satisfy every disjointness axiom.
	a, err := vig.Analyze(db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vig.New(a, 21).Generate(db, 1.5); err != nil {
		t.Fatal(err)
	}
	after, err := eng.Query(`SELECT ?w WHERE { ?w a npdv:Wellbore }`)
	if err != nil {
		t.Fatal(err)
	}
	if after.Len() <= before.Len() {
		t.Fatalf("wellbores did not grow: %d -> %d", before.Len(), after.Len())
	}
	// VIG preserves column-level statistics but not cross-table semantic
	// partitions: a generated overview row can claim a development
	// wellbore's id as EXPLORATION, putting one IRI in two disjoint
	// classes. This is precisely the approximation the paper's "Virtually
	// Sound" requirement admits — and the consistency checker must be
	// able to *detect* it (requirement O2). We only require that the
	// check completes and that any violation it finds names the
	// exploration/development partition.
	rep, err := eng.CheckConsistency(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		// wellbore and facility classes are partitioned by table in the
		// schema; those are the partitions VIG's duplicates can cross
		if !strings.Contains(v.A+v.B, "Wellbore") && !strings.Contains(v.A+v.B, "Facility") {
			t.Fatalf("unexpected violation outside the table partitions: %v", v)
		}
	}
}

func TestSeedInstanceIsConsistent(t *testing.T) {
	db, err := NewSeededDatabase(SeedConfig{Scale: 0.2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(core.Spec{
		Onto: NewOntology(), Mapping: NewMapping(), DB: db, Prefixes: Prefixes(),
	}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.CheckConsistency(1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consistent {
		t.Fatalf("seed instance inconsistent: %v", rep.Violations[0])
	}
	if rep.ChecksRun < 10 {
		t.Fatalf("only %d disjointness axioms checked", rep.ChecksRun)
	}
}

// TestTypedConstantMatchesStore pins IRI constants against typed template
// placeholders: wellbore ids are INT columns, so "wellbore/01",
// "wellbore/1.0" and "wellbore/+1" name no wellbore (no row renders them),
// while the canonical "wellbore/1" names one. The engine must agree with
// the reasoning triple store on full multisets for each form.
func TestTypedConstantMatchesStore(t *testing.T) {
	db, err := NewSeededDatabase(SeedConfig{Scale: 0.15, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT wlbNpdidWellbore FROM wellbore_exploration_all")
	if err != nil || len(res.Rows) == 0 {
		t.Fatalf("no wellbore to probe: %v", err)
	}
	id := res.Rows[0][0].String()
	spec := core.Spec{Onto: NewOntology(), Mapping: NewMapping(), DB: db, Prefixes: Prefixes()}
	eng, err := core.NewEngine(spec, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	store, err := core.NewStoreEngine(spec, core.StoreOptions{Reasoning: true})
	if err != nil {
		t.Fatal(err)
	}
	render := func(rows [][]rdf.Term) []string {
		out := make([]string, len(rows))
		for i, row := range rows {
			parts := make([]string, len(row))
			for j, term := range row {
				parts[j] = term.String()
			}
			out[i] = strings.Join(parts, "\t")
		}
		sort.Strings(out)
		return out
	}
	for _, form := range []string{id, "0" + id, id + ".0", "+" + id} {
		q := "PREFIX npdv: <" + NPDV + ">\nSELECT ?n WHERE { <" + Data + "wellbore/" + form + "> npdv:name ?n }"
		a1, err := eng.Query(q)
		if err != nil {
			t.Fatalf("engine %s: %v", form, err)
		}
		a2, err := store.Query(q)
		if err != nil {
			t.Fatalf("store %s: %v", form, err)
		}
		r1, r2 := render(a1.Rows), render(a2.Rows)
		if strings.Join(r1, "\n") != strings.Join(r2, "\n") {
			t.Errorf("wellbore/%s: engine %v, store %v", form, r1, r2)
		}
		if (form == id) != (len(r2) > 0) {
			t.Errorf("wellbore/%s: store returned %d rows", form, len(r2))
		}
	}
}
