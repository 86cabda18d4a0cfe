package mixer

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"npdbench/internal/obs"
)

// Bench-regression differ: compares two JSONL run logs (`mixer -jsonl`)
// per query, on the p50/p95 of total latency. It is noise-aware: a query
// only counts as regressed when BOTH percentiles move past the relative
// threshold, the absolute move clears a floor (sub-floor timings are
// dominated by scheduler jitter), and both sides have enough runs for
// the percentiles to mean anything. `mixer -benchdiff old new` exits
// nonzero on any regression — the ci perf-trajectory gate.

// DiffOptions tunes the regression judgement.
type DiffOptions struct {
	// Threshold is the relative slowdown that counts as a regression
	// (0.30 = +30%). Both p50 and p95 must exceed it.
	Threshold float64
	// MinRuns is the minimum sample count on both sides; below it the
	// query is reported but never judged (percentiles of one or two
	// runs are noise).
	MinRuns int
	// Floor is the absolute p50 delta a regression must also clear;
	// queries this fast are judged only on absolute movement past it.
	Floor time.Duration
}

// DefaultDiffOptions returns the ci defaults: +30% on both percentiles,
// at least 3 runs per side, 500µs absolute floor.
func DefaultDiffOptions() DiffOptions {
	return DiffOptions{Threshold: 0.30, MinRuns: 3, Floor: 500 * time.Microsecond}
}

// benchSeries is one query's latency summary extracted from a result file.
type benchSeries struct {
	key      string
	p50, p95 float64 // microseconds
	runs     int
}

// DiffEntry is the judgement for one query key.
type DiffEntry struct {
	Key      string
	OldP50US float64
	NewP50US float64
	OldP95US float64
	NewP95US float64
	// DeltaP50/DeltaP95 are fractional changes (0.25 = +25%); zero when
	// the old side is zero.
	DeltaP50 float64
	DeltaP95 float64
	Runs     int // min(old runs, new runs)
	// Verdict is one of "ok", "improved", "regressed", "few-runs",
	// "below-floor", "added", "removed".
	Verdict string
}

// DiffReport is the full comparison.
type DiffReport struct {
	Entries     []DiffEntry
	Regressions int
	Improved    int
	Skipped     int // few-runs + below-floor
}

// BenchDiffFiles loads and diffs two JSONL run logs, matching records on
// their query id.
func BenchDiffFiles(oldPath, newPath string, opt DiffOptions) (*DiffReport, error) {
	oldData, err := os.ReadFile(oldPath)
	if err != nil {
		return nil, fmt.Errorf("benchdiff: %w", err)
	}
	newData, err := os.ReadFile(newPath)
	if err != nil {
		return nil, fmt.Errorf("benchdiff: %w", err)
	}
	oldSeries, oldOrder, err := extractSeries(oldData)
	if err != nil {
		return nil, fmt.Errorf("benchdiff: %s: %w", oldPath, err)
	}
	newSeries, newOrder, err := extractSeries(newData)
	if err != nil {
		return nil, fmt.Errorf("benchdiff: %s: %w", newPath, err)
	}
	return diffSeries(oldSeries, oldOrder, newSeries, newOrder, opt), nil
}

// extractSeries parses a JSONL run log into per-query latency summaries.
func extractSeries(data []byte) (map[string]benchSeries, []string, error) {
	trimmed := strings.TrimSpace(string(data))
	if trimmed == "" {
		return nil, nil, fmt.Errorf("empty benchmark file")
	}
	samples := make(map[string][]float64)
	var order []string
	n := 0
	for _, line := range strings.Split(trimmed, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		n++
		var rec obs.RunRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, nil, fmt.Errorf("line %d: malformed JSON: %w", n, err)
		}
		if rec.Query == "" {
			return nil, nil, fmt.Errorf("line %d: missing query", n)
		}
		if rec.Error != "" {
			continue // failed runs carry partial timings
		}
		if _, seen := samples[rec.Query]; !seen {
			order = append(order, rec.Query)
		}
		samples[rec.Query] = append(samples[rec.Query], float64(rec.TotalUS))
	}
	if len(samples) == 0 {
		return nil, nil, fmt.Errorf("no successful records")
	}
	out := make(map[string]benchSeries, len(samples))
	for q, s := range samples {
		out[q] = benchSeries{
			key:  q,
			p50:  obs.Percentile(s, 50),
			p95:  obs.Percentile(s, 95),
			runs: len(s),
		}
	}
	return out, order, nil
}

func diffSeries(oldS map[string]benchSeries, oldOrder []string, newS map[string]benchSeries, newOrder []string, opt DiffOptions) *DiffReport {
	if opt.Threshold <= 0 {
		opt.Threshold = DefaultDiffOptions().Threshold
	}
	if opt.MinRuns <= 0 {
		opt.MinRuns = DefaultDiffOptions().MinRuns
	}
	if opt.Floor <= 0 {
		opt.Floor = DefaultDiffOptions().Floor
	}
	rep := &DiffReport{}
	seen := make(map[string]bool)
	for _, key := range oldOrder {
		if seen[key] {
			continue
		}
		seen[key] = true
		o := oldS[key]
		n, ok := newS[key]
		if !ok {
			rep.Entries = append(rep.Entries, DiffEntry{Key: key, OldP50US: o.p50, OldP95US: o.p95, Verdict: "removed"})
			continue
		}
		rep.Entries = append(rep.Entries, judge(o, n, opt, rep))
	}
	added := make([]string, 0)
	for _, key := range newOrder {
		if !seen[key] {
			seen[key] = true
			added = append(added, key)
		}
	}
	sort.Strings(added)
	for _, key := range added {
		n := newS[key]
		rep.Entries = append(rep.Entries, DiffEntry{Key: key, NewP50US: n.p50, NewP95US: n.p95, Runs: n.runs, Verdict: "added"})
	}
	return rep
}

// judge applies the noise guards and classifies one shared query key.
func judge(o, n benchSeries, opt DiffOptions, rep *DiffReport) DiffEntry {
	e := DiffEntry{
		Key:      o.key,
		OldP50US: o.p50, NewP50US: n.p50,
		OldP95US: o.p95, NewP95US: n.p95,
		Runs: o.runs,
	}
	if n.runs < e.Runs {
		e.Runs = n.runs
	}
	if o.p50 > 0 {
		e.DeltaP50 = (n.p50 - o.p50) / o.p50
	}
	if o.p95 > 0 {
		e.DeltaP95 = (n.p95 - o.p95) / o.p95
	}
	floorUS := float64(opt.Floor.Microseconds())
	switch {
	case e.Runs < opt.MinRuns:
		e.Verdict = "few-runs"
		rep.Skipped++
	case o.p50 == 0 || o.p95 == 0:
		// A zero baseline percentile has no meaningful percent delta —
		// dividing by it would judge the query on Inf/NaN (or, with the
		// deltas silently left at zero, mask a real regression as "ok").
		e.Verdict = "below-floor"
		rep.Skipped++
	case e.DeltaP50 > opt.Threshold && e.DeltaP95 > opt.Threshold:
		if n.p50-o.p50 < floorUS {
			// Past the relative threshold, but the absolute move is
			// inside the noise floor — tiny queries swing wildly in
			// percent without meaning anything.
			e.Verdict = "below-floor"
			rep.Skipped++
			break
		}
		e.Verdict = "regressed"
		rep.Regressions++
	case e.DeltaP50 < -opt.Threshold && e.DeltaP95 < -opt.Threshold:
		e.Verdict = "improved"
		rep.Improved++
	default:
		e.Verdict = "ok"
	}
	return e
}

// String renders the report as an aligned table plus a summary line.
func (r *DiffReport) String() string {
	tab := newTextTable("query", "old p50", "new p50", "d-p50", "old p95", "new p95", "d-p95", "runs", "verdict")
	for _, e := range r.Entries {
		tab.add(
			e.Key,
			fmtUS(e.OldP50US), fmtUS(e.NewP50US), fmtDelta(e.DeltaP50),
			fmtUS(e.OldP95US), fmtUS(e.NewP95US), fmtDelta(e.DeltaP95),
			fmt.Sprintf("%d", e.Runs),
			e.Verdict,
		)
	}
	var sb strings.Builder
	sb.WriteString(tab.String())
	fmt.Fprintf(&sb, "\nbenchdiff: %d queries, %d regressed, %d improved, %d skipped\n",
		len(r.Entries), r.Regressions, r.Improved, r.Skipped)
	return sb.String()
}

func fmtUS(us float64) string {
	switch {
	case us <= 0:
		return "-"
	case us >= 1e6:
		return fmt.Sprintf("%.2fs", us/1e6)
	case us >= 1e3:
		return fmt.Sprintf("%.2fms", us/1e3)
	default:
		return fmt.Sprintf("%.0fµs", us)
	}
}

func fmtDelta(d float64) string {
	if d == 0 {
		return "±0%"
	}
	return fmt.Sprintf("%+.1f%%", d*100)
}
