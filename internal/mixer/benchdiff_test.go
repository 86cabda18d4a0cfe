package mixer

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The committed fixture pair seeds one genuine regression (q1: p50 and
// p95 both +110%) among flat, improved, below-floor, few-runs, removed
// and added queries — the same pair ci.sh diffs expecting exit 1.
const (
	fixtureOld = "testdata/benchdiff_old.jsonl"
	fixtureNew = "testdata/benchdiff_new.jsonl"
)

func verdicts(rep *DiffReport) map[string]string {
	out := make(map[string]string, len(rep.Entries))
	for _, e := range rep.Entries {
		out[e.Key] = e.Verdict
	}
	return out
}

func TestBenchDiffSeededRegression(t *testing.T) {
	rep, err := BenchDiffFiles(fixtureOld, fixtureNew, DefaultDiffOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"q1": "regressed",
		"q2": "ok",
		"q3": "improved",
		"q4": "below-floor",
		"q5": "few-runs",
		"q6": "removed",
		"q7": "added",
	}
	got := verdicts(rep)
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: verdict = %q, want %q", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("entries = %v", got)
	}
	if rep.Regressions != 1 || rep.Improved != 1 || rep.Skipped != 2 {
		t.Errorf("summary: regressions=%d improved=%d skipped=%d", rep.Regressions, rep.Improved, rep.Skipped)
	}
	out := rep.String()
	if !strings.Contains(out, "1 regressed") {
		t.Errorf("report text missing summary:\n%s", out)
	}
}

func TestBenchDiffSelfIsClean(t *testing.T) {
	for _, f := range []string{fixtureOld, fixtureNew} {
		rep, err := BenchDiffFiles(f, f, DefaultDiffOptions())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Regressions != 0 || rep.Improved != 0 {
			t.Fatalf("self-diff of %s not clean: %+v", f, verdicts(rep))
		}
	}
}

func TestBenchDiffThresholdGuards(t *testing.T) {
	// A +110% regression disappears under a 200% threshold…
	rep, err := BenchDiffFiles(fixtureOld, fixtureNew, DiffOptions{Threshold: 2.0, MinRuns: 3, Floor: 500 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions != 0 {
		t.Fatalf("regressions under 200%% threshold: %+v", verdicts(rep))
	}
	// …and q5 is judged once MinRuns admits two-run series (it tripled).
	rep, err = BenchDiffFiles(fixtureOld, fixtureNew, DiffOptions{Threshold: 0.30, MinRuns: 2, Floor: 500 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if verdicts(rep)["q5"] != "regressed" {
		t.Fatalf("q5 = %q with MinRuns=2", verdicts(rep)["q5"])
	}
	// Raising the floor past q1's +11ms absolute move suppresses it too.
	rep, err = BenchDiffFiles(fixtureOld, fixtureNew, DiffOptions{Threshold: 0.30, MinRuns: 3, Floor: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if verdicts(rep)["q1"] != "below-floor" {
		t.Fatalf("q1 = %q with 20ms floor", verdicts(rep)["q1"])
	}
}

func TestBenchDiffZeroBaseline(t *testing.T) {
	// A baseline whose percentiles collapsed to zero (sub-microsecond
	// runs) must never be judged by percent delta: no Inf/NaN, no
	// spurious "ok" masking a real slowdown — the query is skipped as
	// below-floor.
	mk := func(totalUS int) []byte {
		var sb strings.Builder
		for i := 0; i < 5; i++ {
			fmt.Fprintf(&sb, `{"trace_id":"t%d","query":"q6","total_us":%d}`+"\n", i, totalUS)
		}
		return []byte(sb.String())
	}
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.jsonl")
	newPath := filepath.Join(dir, "new.jsonl")
	if err := os.WriteFile(oldPath, mk(0), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath, mk(50000), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := BenchDiffFiles(oldPath, newPath, DefaultDiffOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := verdicts(rep)["q6"]; got != "below-floor" {
		t.Fatalf("zero-baseline verdict = %q, want below-floor", got)
	}
	if rep.Regressions != 0 || rep.Skipped != 1 {
		t.Fatalf("summary: regressions=%d skipped=%d", rep.Regressions, rep.Skipped)
	}
	for _, e := range rep.Entries {
		for _, d := range []float64{e.DeltaP50, e.DeltaP95} {
			if math.IsInf(d, 0) || math.IsNaN(d) {
				t.Fatalf("%s: non-finite delta %v", e.Key, d)
			}
		}
	}
	if out := rep.String(); strings.Contains(out, "Inf") || strings.Contains(out, "NaN") {
		t.Fatalf("report text carries non-finite values:\n%s", out)
	}
}

func TestBenchDiffRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"empty":        "",
		"blank lines":  "\n\n",
		"not json":     "hello world\n",
		"not a record": `{"runs": 3}`,
		"all errors":   `{"trace_id":"t","query":"q1","total_us":5,"error":"x"}` + "\n",
		"no query":     `{"trace_id":"t","total_us":5}` + "\n",
	}
	for name, content := range cases {
		p := filepath.Join(dir, strings.ReplaceAll(name, " ", "_"))
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := BenchDiffFiles(p, fixtureNew, DefaultDiffOptions()); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if _, err := BenchDiffFiles(filepath.Join(dir, "missing"), fixtureNew, DefaultDiffOptions()); err == nil {
		t.Error("missing file: expected error")
	}
}
