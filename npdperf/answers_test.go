package main

import (
	"strings"
	"testing"

	"npdbench/internal/rdf"
	"npdbench/internal/sparql"
)

func TestRowDiff(t *testing.T) {
	want := []string{"a\t1", "b\t2", "b\t2", "c\t3"}
	cases := []struct {
		name  string
		got   []string
		equal bool
	}{
		{"same order", []string{"a\t1", "b\t2", "b\t2", "c\t3"}, true},
		{"other order", []string{"c\t3", "b\t2", "a\t1", "b\t2"}, true},
		{"changed row", []string{"a\t1", "b\t2", "b\t2", "c\t4"}, false},
		{"missing row", []string{"a\t1", "b\t2", "c\t3"}, false},
		{"duplicated row", []string{"a\t1", "a\t1", "b\t2", "b\t2", "c\t3"}, false},
		// Same length and same distinct rows, different multiplicities.
		{"duplicate swapped", []string{"a\t1", "a\t1", "b\t2", "c\t3"}, false},
	}
	for _, tc := range cases {
		if d := rowDiff(want, tc.got); (d == "") != tc.equal {
			t.Errorf("%s: rowDiff = %q, want equal=%t", tc.name, d, tc.equal)
		}
	}
}

func TestCanonicalRowsAgreeAcrossEncodings(t *testing.T) {
	rs := &sparql.ResultSet{
		Vars: []string{"s", "n", "l", "x"},
		Rows: [][]rdf.Term{
			{rdf.NewIRI("http://ex/a"), rdf.NewTypedLiteral("3", rdf.XSDInteger), rdf.NewLangLiteral("Nordsjø", "NO"), {}},
			{rdf.NewIRI("http://ex/b"), rdf.NewTypedLiteral("0.30000000000000004", rdf.XSDDouble), rdf.NewTypedLiteral("tab\there", rdf.XSDString), rdf.NewLiteral("x")},
		},
	}
	body := `{"head":{"vars":["s","n","l","x"]},"results":{"bindings":[
	  {"s":{"type":"uri","value":"http://ex/a"},"n":{"type":"literal","value":"3","datatype":"http://www.w3.org/2001/XMLSchema#integer"},"l":{"type":"literal","value":"Nordsjø","xml:lang":"no"}},
	  {"s":{"type":"uri","value":"http://ex/b"},"n":{"type":"literal","value":"0.3","datatype":"http://www.w3.org/2001/XMLSchema#double"},"l":{"type":"literal","value":"tab\there"},"x":{"type":"literal","value":"x"}}]}}`
	vars, rows, err := canonJSONRows([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(vars, ",") != "s,n,l,x" {
		t.Fatalf("vars %v", vars)
	}
	if d := rowDiff(canonRows(rs), rows); d != "" {
		t.Fatalf("engine and JSON rows differ: %s", d)
	}
	// A double differing beyond the compared precision is equal; one
	// differing within it is not.
	a := canonTerm(rdf.Literal, "100.8386873710486", rdf.XSDDouble, "")
	if b := canonTerm(rdf.Literal, "100.83868737104861", rdf.XSDDouble, ""); a != b {
		t.Errorf("summation-order rounding not absorbed: %s vs %s", a, b)
	}
	if b := canonTerm(rdf.Literal, "100.8386874", rdf.XSDDouble, ""); a == b {
		t.Errorf("a real difference was absorbed: %s", b)
	}
	if canonTerm(rdf.Literal, "3", rdf.XSDInteger, "") == canonTerm(rdf.Literal, "3", rdf.XSDDouble, "") {
		t.Error("datatypes must stay distinct")
	}
}

func TestReferenceCheck(t *testing.T) {
	ref := &reference{Answers: []refAnswer{{Query: "q1", Source: "triple store", Vars: []string{"a"}, Rows: []string{"1", "2"}}}}
	if err := ref.check("q1", []string{"a"}, []string{"2", "1"}); err != nil {
		t.Fatalf("reordered answer rejected: %v", err)
	}
	if err := ref.check("q1", []string{"b"}, []string{"1", "2"}); err == nil {
		t.Fatal("other projection accepted")
	}
	if err := ref.check("q1", []string{"a"}, []string{"1", "1"}); err == nil {
		t.Fatal("wrong multiset accepted")
	}
	if err := ref.check("q2", nil, nil); err == nil {
		t.Fatal("query without reference accepted")
	}
}
