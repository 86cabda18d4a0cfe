package npdbench

import (
	"runtime"
	"testing"

	"npdbench/internal/core"
	"npdbench/internal/npd"
)

// TestBatchRowIdentical runs all 21 NPD queries on engines that differ only
// in Options.BatchSize — 1 (the row-at-a-time executor) versus vectorized
// batches — and asserts the answers are identical row-for-row (the
// ResultSet rendering is order-sensitive). At sequential parallelism it
// covers the batch sizes 256, the default and 4096; at NumCPU
// parallelism the default batch size, so the batched morsel/partition
// paths are covered too. ci.sh runs the package under -race, which makes
// the parallel variant a real race detector for shared segments and
// scratch buffers.
func TestBatchRowIdentical(t *testing.T) {
	for _, lvl := range []struct{ par, batch int }{
		{1, 256}, {1, 0}, {1, 4096}, {runtime.NumCPU(), 0},
	} {
		par := lvl.par
		spec := parallelSpec(t)
		rowOpts := core.DefaultOptions()
		rowOpts.Parallelism = par
		rowOpts.BatchSize = 1
		rowEng, err := core.NewEngine(spec, rowOpts)
		if err != nil {
			t.Fatal(err)
		}
		batchOpts := core.DefaultOptions()
		batchOpts.Parallelism = par
		batchOpts.BatchSize = lvl.batch
		batchEng, err := core.NewEngine(spec, batchOpts)
		if err != nil {
			t.Fatal(err)
		}
		batchWorkDone := false
		for _, q := range npd.Queries() {
			parsed, err := rowEng.ParseQuery(q.SPARQL)
			if err != nil {
				t.Fatal(err)
			}
			row, err := rowEng.Answer(parsed)
			if err != nil {
				t.Fatalf("par=%d %s (row path): %v", par, q.ID, err)
			}
			batch, err := batchEng.Answer(parsed.Clone())
			if err != nil {
				t.Fatalf("par=%d batch=%d %s (batched): %v", par, lvl.batch, q.ID, err)
			}
			if got, want := batch.String(), row.String(); got != want {
				t.Errorf("par=%d batch=%d %s: batched answer differs from row path\nbatched:\n%s\nrow path:\n%s",
					par, lvl.batch, q.ID, got, want)
			}
			if batch.Stats.Parallel.Batches > 0 {
				batchWorkDone = true
			}
			if row.Stats.Parallel.Batches > 0 {
				t.Errorf("par=%d %s: row-at-a-time engine reported %d batches",
					par, q.ID, row.Stats.Parallel.Batches)
			}
		}
		if !batchWorkDone {
			t.Errorf("par=%d batch=%d: no query reported batch execution work; the vectorized path never ran", par, lvl.batch)
		}
	}
}
