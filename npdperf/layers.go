package main

import (
	"strconv"

	"npdbench/internal/core"
	"npdbench/internal/obs"
	"npdbench/internal/sqldb"
)

// layers holds the per-layer quantities of one unit of work (one query
// execution, or one mix when summed), keyed by metric name. Ratios are
// derived by finishLayers from summed parts, which use internal keys.
type layers map[string]float64

func (l layers) add(o layers) {
	for k, v := range o {
		l[k] += v
	}
}

// stageMetric maps the engine's stage span names to per-layer metrics. The
// root span's self time is the evaluation outside any stage, chiefly
// sparql.Finalize; aggregate-pushdown's self time is its bookkeeping
// around the nested stages.
var stageMetric = map[string]string{
	"query":              "finalize.ms",
	"parse":              "parse.ms",
	"rewrite":            "rewrite.ms",
	"static-prune":       "static_prune.ms",
	"unfold":             "unfold.ms",
	"plan":               "plan.ms",
	"execute":            "execute.ms",
	"assemble":           "assemble.ms",
	"aggregate-pushdown": "aggregate_pushdown.ms",
}

// countMetrics are the quantities executionLayers sums; each is reported
// even when an execution adds nothing to it.
var countMetrics = []string{
	"rewrite.cqs", "rewrite.tree_witnesses", "unfold.union_arms", "unfold.pruned_arms",
	"plan.sql_bytes", "assemble.bindings_in", "assemble.bindings_out",
	"aggregate_pushdown.abandoned_ms", "static_prune.arms_dropped",
	"sqldb.nested_loop.pairs", "sqldb.hash_join.probes", "sqldb.hash_join.build_rows",
	"sqldb.rows_scanned", "sqldb.bytes_materialized", "sqldb.parallel_tasks",
}

// Internal parts of derived ratios; finishLayers removes them.
const (
	partOpsBatched = "_ops_batched"
	partOps        = "_ops"
	partPlans      = "_plans"
	partPlanHits   = "_plan_hits"
)

// executionLayers extracts one execution's per-layer quantities from the
// span tree (the benchmark's spans with the engine's stage spans inside),
// the operator profiles, the usage snapshot and the static-prune count of
// its PhaseStats.
func executionLayers(root *span, profiles []*sqldb.OpProfile, usage *obs.UsageSnapshot, staticDropped int) layers {
	l := layers{}
	for _, m := range stageMetric {
		l[m] = 0
	}
	for _, m := range countMetrics {
		l[m] = 0
	}
	root.walk(func(s *span) {
		if m, ok := stageMetric[s.Name]; ok {
			l[m] += ms(s.selfTime())
		}
		switch s.Name {
		case "bench.parse":
			l["parse.ms"] += ms(s.selfTime())
		case "rewrite":
			l["rewrite.cqs"] += attrNum(s, "cqs")
			l["rewrite.tree_witnesses"] += attrNum(s, "tree_witnesses")
		case "unfold":
			l["unfold.union_arms"] += attrNum(s, "union_arms")
			l["unfold.pruned_arms"] += attrNum(s, "pruned_arms")
		case "plan":
			l["plan.sql_bytes"] += attrNum(s, "sql_len")
			l[partPlans]++
			if s.Attrs["cached"] == "true" {
				l[partPlanHits]++
			}
		case "assemble":
			l["assemble.bindings_in"] += attrNum(s, "bindings_in")
			l["assemble.bindings_out"] += attrNum(s, "bindings_out")
		case "aggregate-pushdown":
			if s.Attrs["abandoned"] == "true" {
				l["aggregate_pushdown.abandoned_ms"] += ms(s.Dur)
			}
		}
	})
	l["static_prune.arms_dropped"] = float64(staticDropped)
	for _, p := range profiles {
		walkOps(p, func(op *sqldb.OpProfile) {
			l[partOps]++
			if op.Batches > 0 {
				l[partOpsBatched]++
			}
			switch op.Op {
			case "nested loop":
				l["sqldb.nested_loop.pairs"] += float64(op.Probes)
			case "hash join":
				l["sqldb.hash_join.probes"] += float64(op.Probes)
				l["sqldb.hash_join.build_rows"] += float64(op.BuildRows)
			}
		})
	}
	if usage != nil {
		l["sqldb.rows_scanned"] += float64(usage.RowsScanned)
		l["sqldb.bytes_materialized"] += float64(usage.BytesMaterialized)
		l["sqldb.parallel_tasks"] += float64(usage.ParallelTasks)
	}
	return l
}

// staticDropped is the work static pruning removed from one execution.
func staticDropped(st core.PhaseStats) int { return st.StaticPrunedCQs + st.StaticPrunedArms }

// finishLayers turns summed parts into the derived ratios.
func finishLayers(l layers) layers {
	l["sqldb.batched_op_share"] = ratio(l[partOpsBatched], l[partOps])
	l["plan_cache.hit_ratio"] = ratio(l[partPlanHits], l[partPlans])
	l["assemble.useful_ratio"] = ratio(l["assemble.bindings_out"], l["assemble.bindings_in"])
	for _, k := range []string{partOpsBatched, partOps, partPlans, partPlanHits} {
		delete(l, k)
	}
	return l
}

// ratio is num/den, and 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func walkOps(p *sqldb.OpProfile, fn func(*sqldb.OpProfile)) {
	if p == nil {
		return
	}
	fn(p)
	for _, c := range p.Children {
		walkOps(c, fn)
	}
}

func attrNum(s *span, key string) float64 {
	v, err := strconv.ParseFloat(s.Attrs[key], 64)
	if err != nil {
		return 0
	}
	return v
}
