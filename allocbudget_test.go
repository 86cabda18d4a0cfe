package npdbench

import (
	"testing"

	"npdbench/internal/core"
	"npdbench/internal/npd"
	"npdbench/internal/sparql"
)

// npdMixAllocBudget caps the heap allocations of one warm, sequential
// execution of the 21-query NPD mix on the parallelSpec instance (seed
// scale 0.15, seed 7). Measured at 367,776 ±2 allocations over 4 repeats
// (Go 1.24, linux/amd64) and about 408,000 under -race. Restoring the
// per-call strings.NewReplacer in rdf.escapeLiteral raises the count to
// about 558,000, which this budget rejects.
const npdMixAllocBudget = 460_000

// TestNPDMixAllocBudget is the measured allocation gate: it counts what
// the mix allocates instead of ranking allocation sites statically. A
// regression shows here as a count over budget; find the culprit with
// `go test -run '^$' -bench BenchmarkBatchExecutor -memprofile mem.out`
// and `go tool pprof -top -sample_index=alloc_objects mem.out`.
func TestNPDMixAllocBudget(t *testing.T) {
	opts := sequentialOptions()
	opts.VerifyPlans = core.VerifyOff
	eng, err := core.NewEngine(parallelSpec(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	queries := npd.Queries()
	parsed := make([]*sparql.Query, len(queries))
	for i, q := range queries {
		if parsed[i], err = eng.ParseQuery(q.SPARQL); err != nil {
			t.Fatal(err)
		}
	}
	mix := func() {
		for i, p := range parsed {
			if _, err := eng.Answer(p); err != nil {
				t.Fatalf("%s: %v", queries[i].ID, err)
			}
		}
	}
	// Warm pass: plans compile and segments build once, so the count is
	// steady-state execution.
	mix()
	got := testing.AllocsPerRun(3, mix)
	t.Logf("NPD mix: %.0f allocations (budget %d)", got, npdMixAllocBudget)
	if got > npdMixAllocBudget {
		t.Errorf("NPD mix allocated %.0f times, over the budget of %d", got, npdMixAllocBudget)
	}
}
