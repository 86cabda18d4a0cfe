package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json at the repository
// root and the program in step: the metric names and units it declares are
// exactly the ones the JSON line carries, and its workloads exist.
// BENCHMARK.json may list a subset of the workloads: serve-open runs by hand.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var bench struct {
		Workloads []decl `json:"workloads"`
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, decls []decl, want []string) {
		var names []string
		for _, d := range decls {
			names = append(names, d.Name)
			if u := unitOf(d.Name); u != d.Unit {
				t.Errorf("%s %s: BENCHMARK.json unit %q, program unit %q", kind, d.Name, d.Unit, u)
			}
		}
		if !slices.Equal(names, want) {
			t.Errorf("%s metrics:\n BENCHMARK.json %v\n program        %v", kind, names, want)
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
	for _, w := range bench.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
}
