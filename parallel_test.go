package npdbench

import (
	"sync"
	"testing"

	"npdbench/internal/core"
	"npdbench/internal/npd"
)

func parallelSpec(t testing.TB) core.Spec {
	t.Helper()
	db, err := npd.NewSeededDatabase(npd.SeedConfig{Scale: 0.15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return core.Spec{
		Onto: npd.NewOntology(), Mapping: npd.NewMapping(),
		DB: db, Prefixes: npd.Prefixes(),
	}
}

// sequentialOptions is the single-worker reference engine. Parallelism 0
// would resolve to runtime.NumCPU(), so it has to be set explicitly.
func sequentialOptions() core.Options {
	opts := core.DefaultOptions()
	opts.Parallelism = 1
	return opts
}

// TestParallelSequentialIdentical runs all 21 NPD queries on two engines
// that differ only in Options.Parallelism (1 versus 4) and asserts the
// answers are identical row-for-row (the ResultSet rendering is
// order-sensitive), so parallel execution — union-arm fan-out,
// partitioned joins, morsel scans — is provably answer- and
// order-preserving, including the ORDER BY/LIMIT and UNION-dedup queries.
// ci.sh also runs this test under GOMAXPROCS=1, where parallel scheduling
// interleaves maximally differently from the multi-core case.
func TestParallelSequentialIdentical(t *testing.T) {
	spec := parallelSpec(t)
	seqEng, err := core.NewEngine(spec, sequentialOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Parallelism = 4
	parEng, err := core.NewEngine(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	parWorkDone := false
	for _, q := range npd.Queries() {
		parsed, err := seqEng.ParseQuery(q.SPARQL)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := seqEng.Answer(parsed)
		if err != nil {
			t.Fatalf("%s (sequential): %v", q.ID, err)
		}
		par, err := parEng.Answer(parsed.Clone())
		if err != nil {
			t.Fatalf("%s (parallel): %v", q.ID, err)
		}
		if got, want := par.String(), seq.String(); got != want {
			t.Errorf("%s: parallel answer differs from sequential\nparallel:\n%s\nsequential:\n%s",
				q.ID, got, want)
		}
		if par.Stats.Parallel.Tasks > 0 {
			parWorkDone = true
		}
	}
	if !parWorkDone {
		t.Error("no query reported parallel execution work; the parallel path never ran")
	}
}

// TestParallelConcurrentStress is the clients × workers race test: every
// NPD query runs concurrently against one engine with intra-query
// parallelism on, so inter-query pool sharing, the plan cache, and the
// statement caches are all exercised under -race. Each client checks its
// answers against the precomputed sequential reference.
func TestParallelConcurrentStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	spec := parallelSpec(t)
	opts := core.DefaultOptions()
	opts.Parallelism = 4
	eng, err := core.NewEngine(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	seqEng, err := core.NewEngine(spec, sequentialOptions())
	if err != nil {
		t.Fatal(err)
	}
	queries := npd.Queries()
	want := make(map[string]string, len(queries))
	for _, q := range queries {
		parsed, err := seqEng.ParseQuery(q.SPARQL)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := seqEng.Answer(parsed)
		if err != nil {
			t.Fatalf("%s (reference): %v", q.ID, err)
		}
		want[q.ID] = ans.String()
	}
	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for _, q := range queries {
				parsed, err := eng.ParseQuery(q.SPARQL)
				if err != nil {
					errs <- err
					return
				}
				ans, err := eng.Answer(parsed)
				if err != nil {
					errs <- err
					return
				}
				if ans.String() != want[q.ID] {
					t.Errorf("client %d %s: concurrent parallel answer differs from sequential", client, q.ID)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
