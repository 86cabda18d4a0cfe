package npdbench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"npdbench/internal/core"
	"npdbench/internal/npd"
)

var updatePrune = flag.Bool("update", false, "rewrite the static-pruning golden file")

// renderRows flattens a result set into sorted row strings so that answer
// sets can be compared independently of arm ordering in the generated SQL.
func renderRows(a *core.Answer) []string {
	out := make([]string, 0, a.Len())
	for _, row := range a.Rows {
		parts := make([]string, len(row))
		for i, t := range row {
			if t.IsZero() {
				parts[i] = "_"
			} else {
				parts[i] = t.String()
			}
		}
		out = append(out, strings.Join(parts, "\t"))
	}
	sort.Strings(out)
	return out
}

func pruneEngines(t testing.TB) (on, off *core.Engine) {
	t.Helper()
	db, err := npd.NewSeededDatabase(npd.SeedConfig{Scale: 0.15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	spec := core.Spec{
		Onto: npd.NewOntology(), Mapping: npd.NewMapping(),
		DB: db, Prefixes: npd.Prefixes(),
	}
	base := core.Options{
		TMappings: true, Existential: true, Constraints: true,
		VerifyPlans: core.VerifyOn,
	}
	withPrune := base
	withPrune.StaticPrune = true
	on, err = core.NewEngine(spec, withPrune)
	if err != nil {
		t.Fatal(err)
	}
	off, err = core.NewEngine(spec, base)
	if err != nil {
		t.Fatal(err)
	}
	return on, off
}

// TestStaticPruneSoundNPD runs every NPD query through two engines that
// differ only in Options.StaticPrune, both with the planck verifier forced
// on. Static pruning must (a) verify cleanly at every pipeline stage,
// (b) produce identical answer sets, and (c) statically delete work on at
// least one query.
func TestStaticPruneSoundNPD(t *testing.T) {
	engOn, engOff := pruneEngines(t)
	totalPruned := 0
	for _, q := range npd.Queries() {
		parsed, err := engOn.ParseQuery(q.SPARQL)
		if err != nil {
			t.Fatal(err)
		}
		aOn, err := engOn.Answer(parsed)
		if err != nil {
			t.Fatalf("%s (static pruning on): %v", q.ID, err)
		}
		aOff, err := engOff.Answer(parsed)
		if err != nil {
			t.Fatalf("%s (static pruning off): %v", q.ID, err)
		}
		rOn, rOff := renderRows(aOn), renderRows(aOff)
		if len(rOn) != len(rOff) {
			t.Errorf("%s: answers diverge — %d rows pruned, %d unpruned", q.ID, len(rOn), len(rOff))
			continue
		}
		for i := range rOn {
			if rOn[i] != rOff[i] {
				t.Errorf("%s: row %d diverges:\npruned:   %s\nunpruned: %s", q.ID, i, rOn[i], rOff[i])
				break
			}
		}
		st := aOn.Stats
		pruned := st.StaticPrunedCQs + st.StaticPrunedArms + st.StaticUnsatFilters
		totalPruned += pruned
		if pruned > 0 {
			t.Logf("%s: statically pruned %d CQs, %d candidates/arms, %d filter sets (arms %d)",
				q.ID, st.StaticPrunedCQs, st.StaticPrunedArms, st.StaticUnsatFilters, st.UnionArms)
		}
	}
	if totalPruned == 0 {
		t.Error("no NPD query had any statically pruned work; the ablation is vacuous")
	}
}

// TestStaticPruneGoldenNPD pins the per-query static-pruning counts for the
// 21 NPD queries. Regenerate with: go test . -run StaticPruneGolden -update
func TestStaticPruneGoldenNPD(t *testing.T) {
	engOn, _ := pruneEngines(t)
	var sb strings.Builder
	sb.WriteString("query\tstatic_cqs\tstatic_arms\tstatic_filters\tunion_arms\n")
	for _, q := range npd.Queries() {
		ans, err := engOn.Query(q.SPARQL)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		st := ans.Stats
		fmt.Fprintf(&sb, "%s\t%d\t%d\t%d\t%d\n",
			q.ID, st.StaticPrunedCQs, st.StaticPrunedArms, st.StaticUnsatFilters, st.UnionArms)
	}
	got := sb.String()
	path := filepath.Join("testdata", "static_prune.golden")
	if *updatePrune {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (generate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("static-pruning counts drifted from golden; review and regenerate with -update\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestNPDMixRunsNoNestedLoops runs the 21 NPD queries and requires that
// no SQL join examined a nested-loop row pair: typed template
// unification prunes or aligns every template pair the mix joins, and
// computed-key hash joins take any expression equality left over.
func TestNPDMixRunsNoNestedLoops(t *testing.T) {
	engOn, _ := pruneEngines(t)
	for _, q := range npd.Queries() {
		ans, err := engOn.Query(q.SPARQL)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		if n := ans.Stats.NestedLoopPairs; n != 0 {
			t.Errorf("%s: %d nested-loop row pairs", q.ID, n)
		}
	}
}
