// Package lint is the repository's typed static-analysis engine: it loads
// the whole module through go/parser + go/types + go/importer (stdlib only,
// no external tooling), runs an ordered catalog of type-aware passes over
// every package, and emits severity-ranked diagnostics. The engine exists
// because PRs 4–5 fixed by hand exactly the bug classes a typed analyzer
// catches mechanically — shared-storage aliasing, unguarded field access,
// mixed atomic/plain access, stray goroutines — and ROADMAP item 1 (a
// long-running server under sustained concurrent load) raises the cost of
// every such latent bug. cmd/repolint is the CLI driver; ci.sh gates on it
// in -strict mode against a golden repo report, mirroring obdalint's
// contract for the benchmark artifacts.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"time"
)

// Severity ranks diagnostics. Errors are bug-class findings (aliasing, lock
// discipline, atomics, goroutine hygiene); warnings are discipline findings
// (iterator close, discarded errors, timing funnel). -strict mode fails on
// both.
type Severity int

const (
	SevInfo Severity = iota
	SevWarning
	SevError
)

func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarning:
		return "warning"
	default:
		return "info"
	}
}

// Diagnostic is one finding of one pass.
type Diagnostic struct {
	Pass string
	Sev  Severity
	Pos  token.Position
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s: %s", d.Pos.Filename, d.Pos.Line, d.Pass, d.Sev, d.Msg)
}

// Suppression is one //lint:ignore directive encountered in the tree,
// whether or not it matched a diagnostic. -strict mode cross-checks the
// list against an explicit allowlist so suppressions stay documented.
type Suppression struct {
	Pass   string
	Reason string
	Pos    token.Position
	Used   bool
}

func (s Suppression) String() string {
	state := "unused"
	if s.Used {
		state = "used"
	}
	return fmt.Sprintf("%s:%d: [%s] suppressed (%s): %s", s.Pos.Filename, s.Pos.Line, s.Pass, state, s.Reason)
}

// Report is the outcome of one engine run: surviving diagnostics, the
// diagnostics silenced by directives, every directive seen, and the
// per-phase wall times (the ci timing budget gates on their sum).
type Report struct {
	Diags        []Diagnostic
	Suppressed   []Diagnostic
	Suppressions []Suppression

	Packages      int
	Files         int
	LoadTime      time.Duration
	CallgraphTime time.Duration
	SummaryTime   time.Duration
	PassTime      time.Duration
}

// sortDiags orders diagnostics for stable output: file, line, pass, message.
func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		return a.Msg < b.Msg
	})
}

// Count returns the number of surviving diagnostics at the given severity.
func (r *Report) Count(sev Severity) int {
	n := 0
	for _, d := range r.Diags {
		if d.Sev == sev {
			n++
		}
	}
	return n
}

// Summary is the one-line human digest (also the JSON summary field).
func (r *Report) Summary() string {
	return fmt.Sprintf("repolint: %d package(s), %d file(s): %d error(s), %d warning(s), %d info, %d suppressed",
		r.Packages, r.Files, r.Count(SevError), r.Count(SevWarning), r.Count(SevInfo), len(r.Suppressed))
}

// String renders the full text report: diagnostics, suppression inventory,
// summary line. The rendering is canonical (sorted, no timings), so it can
// be diffed against a committed golden file.
func (r *Report) String() string {
	out := ""
	for _, d := range r.Diags {
		out += d.String() + "\n"
	}
	for _, s := range r.Suppressions {
		out += s.String() + "\n"
	}
	return out + r.Summary() + "\n"
}

// DiagnosticJSON mirrors analyze.DiagnosticJSON so obdalint and repolint
// reports are consumed the same way.
type DiagnosticJSON struct {
	Pass     string `json:"pass"`
	Severity string `json:"severity"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Message  string `json:"message"`
}

// SuppressionJSON is one suppression directive in the JSON report.
type SuppressionJSON struct {
	Pass   string `json:"pass"`
	File   string `json:"file"`
	Line   int    `json:"line"`
	Reason string `json:"reason"`
	Used   bool   `json:"used"`
}

// TimingJSON carries the per-phase wall times the ci budget gates on, so a
// budget overrun is attributable to loading, call-graph construction,
// summary computation, or the passes themselves.
type TimingJSON struct {
	LoadMS      int64 `json:"load_ms"`
	CallgraphMS int64 `json:"callgraph_ms"`
	SummaryMS   int64 `json:"summary_ms"`
	PassMS      int64 `json:"pass_ms"`
}

// ReportJSON is the machine-readable report: summary line, per-severity
// counts, and per-pass counts — the same summary/counts/by_* shape as
// obdalint -json — plus the diagnostics, suppressions, and timings.
type ReportJSON struct {
	Summary      string            `json:"summary"`
	Counts       map[string]int    `json:"counts"`
	ByPass       map[string]int    `json:"by_pass"`
	Diagnostics  []DiagnosticJSON  `json:"diagnostics"`
	Suppressions []SuppressionJSON `json:"suppressions"`
	Packages     int               `json:"packages"`
	Files        int               `json:"files"`
	Timing       TimingJSON        `json:"timing"`
}

// Payload builds the JSON shape of the report.
func (r *Report) Payload() ReportJSON {
	p := ReportJSON{
		Summary:      r.Summary(),
		Counts:       map[string]int{},
		ByPass:       map[string]int{},
		Diagnostics:  []DiagnosticJSON{},
		Suppressions: []SuppressionJSON{},
		Packages:     r.Packages,
		Files:        r.Files,
		Timing: TimingJSON{
			LoadMS:      r.LoadTime.Milliseconds(),
			CallgraphMS: r.CallgraphTime.Milliseconds(),
			SummaryMS:   r.SummaryTime.Milliseconds(),
			PassMS:      r.PassTime.Milliseconds(),
		},
	}
	for _, d := range r.Diags {
		p.Counts[d.Sev.String()]++
		p.ByPass[d.Pass]++
		p.Diagnostics = append(p.Diagnostics, DiagnosticJSON{
			Pass: d.Pass, Severity: d.Sev.String(),
			File: d.Pos.Filename, Line: d.Pos.Line, Message: d.Msg,
		})
	}
	for _, s := range r.Suppressions {
		p.Suppressions = append(p.Suppressions, SuppressionJSON{
			Pass: s.Pass, File: s.Pos.Filename, Line: s.Pos.Line,
			Reason: s.Reason, Used: s.Used,
		})
	}
	return p
}
