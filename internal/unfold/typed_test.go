package unfold

import (
	"testing"

	"npdbench/internal/npd"
	"npdbench/internal/r2rml"
	"npdbench/internal/sqldb"
)

// npdFallbackPairs are the IRI-template pairs the NPD query mix unified by
// comparing generated strings (a nested loop over string concatenations)
// while placeholders were untyped. Each has an INT-typed leading
// placeholder, so the typed proof separates them.
var npdFallbackPairs = [][2]string{
	{"field/{fldNpdidField}/investment/{prfYear}", "field/{fldNpdidField}/production/{prfYear}"},
	{"field/{fldNpdidField}/investment/{prfYear}", "field/{fldNpdidField}/production/{prfYear}/{prfMonth}"},
	{"field/{fldNpdidField}/production/{prfYear}/{prfMonth}", "field/{fldNpdidField}/investment/{prfYear}"},
	{"field/{fldNpdidField}/production/{prfYear}/{prfMonth}", "field/{fldNpdidField}/production/{prfYear}"},
	{"licence/{prlNpdidLicence}", "licence/{prlNpdidLicence}/task/{prlTaskName}"},
	{"wellbore/{wlbNpdidWellbore}", "wellbore/{wlbNpdidWellbore}/document/{wlbDocumentName}"},
	{"wellbore/{wlbNpdidWellbore}", "wellbore/{wlbNpdidWellbore}/formation-top/{lsuNpdidLithoStrat}/{wlbTopDepth}"},
	{"wellbore/{wlbNpdidWellbore}/core/{wlbCoreNumber}", "wellbore/{wlbNpdidWellbore}/core/{wlbCoreNumber}/photo/{wlbCorePhotoTitle}"},
}

// iriMapsByTemplate indexes every IRI term map of the mapping by template
// source text.
func iriMapsByTemplate(mp *r2rml.Mapping) map[string][]r2rml.TermMap {
	out := map[string][]r2rml.TermMap{}
	add := func(tm r2rml.TermMap) {
		if tm.Kind == r2rml.IRITemplate {
			out[tm.Template.String()] = append(out[tm.Template.String()], tm)
		}
	}
	for _, m := range mp.Maps {
		add(m.Subject)
		for _, po := range m.POs {
			add(po.Object)
		}
	}
	return out
}

// isConcatJoin reports whether conds is the string-comparison fallback.
func isConcatJoin(conds []sqldb.Expr) bool {
	if len(conds) != 1 {
		return false
	}
	b, ok := conds[0].(*sqldb.BinOp)
	if !ok || b.Op != sqldb.OpEq {
		return false
	}
	_, lcol := b.L.(*sqldb.ColRef)
	_, rcol := b.R.(*sqldb.ColRef)
	return !lcol || !rcol
}

// TestNPDFallbackPairsPruned checks every NPD template pair that used to
// reach the string-comparison fallback: untyped, some occurrence pair of
// the two templates still unifies through it; typed by the NPD catalog,
// every occurrence pair is pruned.
func TestNPDFallbackPairsPruned(t *testing.T) {
	db, err := npd.NewDatabase()
	if err != nil {
		t.Fatal(err)
	}
	untyped := npd.NewMapping()
	plain, typed := iriMapsByTemplate(untyped), iriMapsByTemplate(untyped.Typed(db))
	for _, p := range npdFallbackPairs {
		a, b := npd.Data+p[0], npd.Data+p[1]
		if len(typed[a]) == 0 || len(typed[b]) == 0 {
			t.Fatalf("pair %s / %s: template not in the NPD mapping", p[0], p[1])
		}
		fellBack := false
		for _, ta := range plain[a] {
			for _, tb := range plain[b] {
				conds, ok := unifyOccurrences(occurrence{"t1", ta}, occurrence{"t2", tb})
				fellBack = fellBack || (ok && isConcatJoin(conds))
			}
		}
		if !fellBack {
			t.Errorf("pair %s / %s: untyped occurrences no longer reach the fallback", p[0], p[1])
		}
		for _, ta := range typed[a] {
			for _, tb := range typed[b] {
				if conds, ok := unifyOccurrences(occurrence{"t1", ta}, occurrence{"t2", tb}); ok {
					t.Errorf("typed %s / %s not pruned: %v", ta.Template, tb.Template, conds)
				}
				if mapsCompatible(ta, tb) {
					t.Errorf("typed %s / %s still compatible in the candidate walk", ta.Template, tb.Template)
				}
			}
		}
	}
}

// TestEqualSkeletonsWithClashingKinds checks that equal-skeleton templates
// over columns of different known kinds unify by comparing generated
// strings: an INT 7 and a TEXT "7" both render "p/7", but are not equal
// SQL values, so a column equality would lose the join.
func TestEqualSkeletonsWithClashingKinds(t *testing.T) {
	kinds := map[string]sqldb.Kind{"a": sqldb.KindInt, "b": sqldb.KindString, "c": sqldb.KindInt}
	typed := func(src string) r2rml.TermMap {
		tm := r2rml.IRIMap(src)
		tm.Template = tm.Template.Typed(func(col string) sqldb.Kind { return kinds[col] })
		return tm
	}
	conds, ok := unifyOccurrences(occurrence{"t1", typed("p/{a}")}, occurrence{"t2", typed("p/{b}")})
	if !ok || !isConcatJoin(conds) {
		t.Fatalf("INT vs TEXT: got %v %v, want a string comparison", conds, ok)
	}
	conds, ok = unifyOccurrences(occurrence{"t1", typed("p/{a}")}, occurrence{"t2", typed("p/{c}")})
	if !ok || isConcatJoin(conds) {
		t.Fatalf("INT vs INT: got %v %v, want a column equality", conds, ok)
	}
}
