package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"slices"
	"sort"
	"time"

	"npdbench/internal/core"
	"npdbench/internal/npd"
)

// notIndependent lists the queries the reasoning triple store cannot
// answer: its rewriting of q6 exhausts memory even at seed scale 0.03.
// Their reference is a committed expected answer per instance, computed
// once by this engine in its most conservative configuration (see
// computeExpected). It pins the answer against any later change, but it
// is not an independent check of the shared rewriting and unfolding.
var notIndependent = []string{"q6"}

//go:embed expected/*.json
var expectedFiles embed.FS

func expectedPath(w workload) string { return "expected/" + w.key() + ".json" }

// referenceHeapLimit aborts the reference process before a runaway store
// evaluation can take the machine's memory.
const referenceHeapLimit = 3 << 30

// computeReference answers all 21 queries on the workload instance with
// the reasoning triple store, and takes the not-independent ones from the
// committed expected answers. It runs in its own process, never in the
// measured one.
func computeReference(w workload) (*reference, error) {
	stop := guardHeap(referenceHeapLimit)
	defer close(stop)
	b, err := expectedFiles.ReadFile(expectedPath(w))
	if err != nil {
		return nil, fmt.Errorf("reading the committed expected answers: %w", err)
	}
	var expected []refAnswer
	if err := json.Unmarshal(b, &expected); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", expectedPath(w), err)
	}
	db, _, err := w.buildInstance()
	if err != nil {
		return nil, err
	}
	store, err := core.NewStoreEngine(spec(db), core.StoreOptions{Reasoning: true})
	if err != nil {
		return nil, fmt.Errorf("materializing the triple store: %w", err)
	}
	ref := &reference{Instance: w.key(), Answers: expected}
	for _, q := range npd.Queries() {
		if slices.Contains(notIndependent, q.ID) {
			if ref.answer(q.ID) == nil {
				return nil, fmt.Errorf("%s has no expected answer for %s", expectedPath(w), q.ID)
			}
			continue
		}
		ans, err := store.Query(q.SPARQL)
		if err != nil {
			return nil, fmt.Errorf("triple store %s: %w", q.ID, err)
		}
		ref.Answers = append(ref.Answers, refAnswer{
			Query: q.ID, Source: "triple store", Independent: true,
			Vars: ans.Vars, Rows: canonRows(ans.ResultSet),
		})
	}
	return ref, nil
}

// computeExpected answers the not-independent queries on the workload
// instance with every optional optimization off (no SQO, no static
// pruning, no plan cache, row-at-a-time, sequential). Its output is the
// committed expected/<instance key>.json; regenerate it only when the
// instance itself changes:
//
//	cd npdperf && go run . --role expected --workload mix-npd5 --ref expected/npd5-scale0.1.json
func computeExpected(w workload) ([]refAnswer, error) {
	db, _, err := w.buildInstance()
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(spec(db), core.Options{TMappings: true, Existential: true, Parallelism: 1, BatchSize: 1})
	if err != nil {
		return nil, err
	}
	var out []refAnswer
	for _, id := range notIndependent {
		ans, err := eng.Query(npd.QueryByID(id).SPARQL)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		rows := canonRows(ans.ResultSet)
		sort.Strings(rows)
		out = append(out, refAnswer{
			Query: id, Source: "committed expected answer (not independent)",
			Vars: ans.Vars, Rows: rows,
		})
	}
	return out, nil
}

// guardHeap exits the process when the live heap passes limit; closing
// the returned channel stops the watcher.
func guardHeap(limit uint64) chan struct{} {
	stop := make(chan struct{})
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			metrics.Read(s)
			if s[0].Value.Uint64() > limit {
				fmt.Fprintf(os.Stderr, "npdperf: reference heap passed %d MiB, giving up\n", limit>>20)
				os.Exit(2)
			}
		}
	}()
	return stop
}
