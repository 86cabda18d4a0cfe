package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"

	"npdbench/internal/core"
	"npdbench/internal/npd"
)

// endToEnd and perLayer are the metrics of BENCHMARK.json: a --trace 0 run
// reports exactly endToEnd in its JSON line, a --trace 1 run exactly
// perLayer. The text lines above the JSON carry more, with sample counts:
// latency_p95_ms where 200 executions allow it, and peak_rss_mb, whose
// run-to-run spread (20-40% on mix-cold and serve-open: it follows when GC
// cycles fall against the largest transient) is too wide to bound.
var endToEnd = []string{"qmph", "latency_p50_ms", "setup_s"}

// Times that read 0 on every run of a listed workload are left out of
// perLayer and printed in the text only: aggregate_pushdown.abandoned_ms (no NPD query abandons its
// pushdown today), setup.vig_s (no VIG on mix-cold) and the serve.* client
// phases (serve-open is not listed).
var perLayer = func() []string {
	names := []string{
		"execute.ms", "sqldb.nested_loop.pairs", "sqldb.hash_join.probes", "sqldb.hash_join.build_rows",
		"sqldb.rows_scanned", "sqldb.bytes_materialized", "sqldb.batched_op_share", "sqldb.parallel_tasks",
		"parse.ms", "rewrite.ms", "static_prune.ms", "unfold.ms", "plan.ms",
		"rewrite.cqs", "rewrite.tree_witnesses", "static_prune.arms_dropped", "unfold.union_arms",
		"unfold.pruned_arms", "plan.sql_bytes",
		"assemble.ms", "assemble.bindings_in", "assemble.bindings_out", "assemble.useful_ratio",
		"finalize.ms", "aggregate_pushdown.ms", "plan_cache.hit_ratio",
		"go.allocs_per_mix", "go.alloc_mb_per_mix", "go.gc_cycles_per_mix",
		"setup.seed_s", "setup.engine_s",
		"trace_overhead.qmph", "trace_overhead.latency_p50_ms",
	}
	for _, q := range npd.Queries() {
		names = append(names, q.ID+".ms")
	}
	return names
}()

type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

// result collects one run's metrics, counts and notes.
type result struct {
	c         config
	w         workload
	metrics   map[string]metric
	attempted int
	failures  []error
	notes     []string
}

func newResult(c config, w workload) *result {
	return &result{c: c, w: w, metrics: map[string]metric{}}
}

// set records metric name measured over samples values.
func (r *result) set(name string, v float64, samples int) {
	r.metrics[name] = metric{Value: v, Unit: unitOf(name), samples: samples}
}

// unitOf gives every metric's unit from its name.
func unitOf(name string) string {
	switch {
	case name == "qmph":
		return "mixes/h"
	case name == "peak_rss_mb", name == "go.alloc_mb_per_mix":
		return "MiB"
	case strings.HasPrefix(name, "trace_overhead."), strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_share"):
		return "ratio"
	case strings.HasSuffix(name, "_ms"), strings.HasSuffix(name, ".ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_bytes"), strings.HasSuffix(name, "bytes_materialized"):
		return "bytes"
	}
	return "count"
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count records one checked execution.
func (r *result) count(err error) {
	r.attempted++
	if err != nil {
		r.failures = append(r.failures, err)
	}
}

func (r *result) setup(eng *core.Engine, times []setupTimes) {
	pick := func(f func(setupTimes) float64) float64 {
		xs := make([]float64, len(times))
		for i, t := range times {
			xs[i] = f(t)
		}
		return median(xs)
	}
	n := len(times)
	r.set("setup_s", pick(func(t setupTimes) float64 { return t.total.Seconds() }), n)
	r.set("setup.seed_s", pick(func(t setupTimes) float64 { return t.seed.Seconds() }), n)
	r.set("setup.vig_s", pick(func(t setupTimes) float64 { return t.vig.Seconds() }), n)
	r.set("setup.engine_s", pick(func(t setupTimes) float64 { return t.engine.Seconds() }), n)
	o := eng.Options()
	rows := 0
	for _, t := range eng.DB().Tables() {
		rows += t.Len()
	}
	r.note("workload: %s, %s, %d rows, seed %d", r.w.name, r.w.instance(), rows, r.c.seed)
	r.note("why: %s", r.w.why)
	r.note("engine: core.DefaultOptions() TMappings=%t Existential=%t Constraints=%t StaticPrune=%t PlanCache=%t PlanCacheSize=%d(default) Parallelism=%d(NumCPU) BatchSize=%d(default) VerifyPlans=auto(off outside go test) Obs=nil",
		o.TMappings, o.Existential, o.Constraints, o.StaticPrune, o.PlanCache, o.PlanCacheSize, o.Parallelism, o.BatchSize)
	r.note("machine: nproc=%d GOMAXPROCS=%d %s %s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// latencies reports p50 (and p95 where enough samples lie beyond it).
func (r *result) latencies(xs []float64) {
	r.set("latency_p50_ms", median(xs), len(xs))
	if p95, err := percentile(xs, 95); err != nil {
		r.note("latency_p95_ms: not reported: %v", err)
	} else {
		r.set("latency_p95_ms", p95, len(xs))
	}
}

// perQuery reports each query's median latency as qN.ms.
func (r *result) perQuery(lat map[string][]float64) {
	for _, q := range npd.Queries() {
		r.set(q.ID+".ms", median(lat[q.ID]), len(lat[q.ID]))
	}
}

// layerMedians reports the median over units (mixes or requests) of each
// per-layer quantity.
func (r *result) layerMedians(units []layers) {
	if len(units) == 0 {
		return
	}
	for name := range units[0] {
		xs := make([]float64, len(units))
		for i, u := range units {
			xs[i] = u[name]
		}
		r.set(name, median(xs), len(xs))
	}
}

// mixes reports the closed-loop workloads.
func (r *result) mixes(plain, traced []mixRun) {
	walls, lat, perQ, rts := mixFigures(plain)
	for _, m := range plain {
		for _, ex := range m.execs {
			r.count(ex.err)
		}
	}
	r.set("qmph", 3600/median(walls), len(walls))
	r.latencies(lat)
	r.perQuery(perQ)
	r.set("go.allocs_per_mix", median(rts[0]), len(plain))
	r.set("go.alloc_mb_per_mix", median(rts[1]), len(plain))
	r.set("go.gc_cycles_per_mix", median(rts[2]), len(plain))
	for _, name := range []string{"serve.wait_ms", "serve.ttfb_ms", "serve.body_ms", "serve.gen_late_ms"} {
		r.set(name, 0, 0) // no server on a mix workload
	}
	if len(traced) == 0 {
		return
	}
	tWalls, tLat, _, _ := mixFigures(traced)
	units := make([]layers, len(traced))
	for i, m := range traced {
		sum := layers{}
		for _, ex := range m.execs {
			r.count(ex.err)
			if ex.layers != nil {
				sum.add(ex.layers)
			}
		}
		units[i] = finishLayers(sum)
	}
	r.layerMedians(units)
	r.set("trace_overhead.qmph", median(walls)/median(tWalls), len(tWalls))
	r.set("trace_overhead.latency_p50_ms", median(tLat)/median(lat), len(tLat))
}

// mixFigures returns mix wall times (s), all latencies (ms), latencies per
// query (ms) and the runtime deltas per mix (allocs, MiB, GC cycles).
func mixFigures(mixes []mixRun) (walls, lat []float64, perQ map[string][]float64, rts [3][]float64) {
	perQ = map[string][]float64{}
	for _, m := range mixes {
		walls = append(walls, m.wall.Seconds())
		for _, ex := range m.execs {
			v := ms(ex.latency)
			if ex.err != nil {
				v = math.Inf(1)
			}
			lat = append(lat, v)
			perQ[ex.query] = append(perQ[ex.query], v)
		}
		rts[0] = append(rts[0], m.rt.allocs)
		rts[1] = append(rts[1], m.rt.allocBytes/(1<<20))
		rts[2] = append(rts[2], m.rt.gcCycles)
	}
	return walls, lat, perQ, rts
}

// serve reports the open-loop workload: end-to-end figures and the server
// layer from the untraced requests, engine layers from the traced ones.
func (r *result) serve(queries []npd.BenchQuery, plain, traced []outcome, tracedLayers []layers, rt runtimeDelta) {
	lat, perQ, _ := serveFigures(queries, plain)
	completed := 0
	for i := range plain {
		r.count(plain[i].err)
		if plain[i].ok() {
			completed++
		}
	}
	r.set("qmph", qmphFromQueries(queries, perQ), len(lat))
	r.latencies(lat)
	r.perQuery(perQ)
	r.serveParts(queries, plain)
	per := float64(len(queries)) / math.Max(1, float64(completed))
	r.set("go.allocs_per_mix", rt.allocs*per, completed)
	r.set("go.alloc_mb_per_mix", rt.allocBytes/(1<<20)*per, completed)
	r.set("go.gc_cycles_per_mix", rt.gcCycles*per, completed)
	if traced == nil {
		return
	}
	for i := range traced {
		r.count(traced[i].err)
	}
	units := make([]layers, len(tracedLayers))
	for i, l := range tracedLayers {
		units[i] = finishLayers(l)
	}
	r.layerMedians(units)
	tLat, tPerQ, _ := serveFigures(queries, traced)
	r.set("trace_overhead.qmph", qmphFromQueries(queries, tPerQ)/qmphFromQueries(queries, perQ), len(tLat))
	r.set("trace_overhead.latency_p50_ms", median(tLat)/median(lat), len(tLat))
}

// serveParts reports the client-side phases of the untraced requests of
// a served workload. A closed loop has no generator to fall behind, so
// serve.gen_late_ms stays 0 there.
func (r *result) serveParts(queries []npd.BenchQuery, outs []outcome) {
	_, _, parts := serveFigures(queries, outs)
	for _, name := range []string{"serve.wait_ms", "serve.ttfb_ms", "serve.body_ms", "serve.gen_late_ms"} {
		if xs := parts[name]; len(xs) > 0 {
			r.set(name, median(xs), len(xs))
		}
	}
	if late, err := percentile(parts["serve.gen_late_ms"], 99); err == nil {
		r.note("serve.gen_late_ms p99: %.3f ms", late)
	}
}

// qmphFromQueries is the open-loop QMpH: the mixes per hour one client
// would complete at the per-query median latencies seen under load.
func qmphFromQueries(queries []npd.BenchQuery, perQ map[string][]float64) float64 {
	sum := 0.0
	for _, q := range queries {
		sum += median(perQ[q.ID])
	}
	return 3600 / (sum / 1000)
}

func serveFigures(queries []npd.BenchQuery, outs []outcome) (lat []float64, perQ, parts map[string][]float64) {
	perQ, parts = map[string][]float64{}, map[string][]float64{}
	for i := range outs {
		o := &outs[i]
		v := o.latency()
		lat = append(lat, v)
		perQ[queries[o.query].ID] = append(perQ[queries[o.query].ID], v)
		if !o.ok() {
			continue
		}
		parts["serve.wait_ms"] = append(parts["serve.wait_ms"], ms(o.wrote-o.due))
		parts["serve.ttfb_ms"] = append(parts["serve.ttfb_ms"], ms(o.firstByte-o.wrote))
		parts["serve.body_ms"] = append(parts["serve.body_ms"], ms(o.done-o.firstByte))
		if o.genLate >= 0 {
			parts["serve.gen_late_ms"] = append(parts["serve.gen_late_ms"], ms(o.genLate))
		}
	}
	return lat, perQ, parts
}

// print writes the notes, every metric with unit and sample count, the
// stage shares of a traced run, the failures, and the JSON line.
func (r *result) print() error {
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.metrics[name]
		fmt.Printf("%-34s %16.4f %-8s n=%d\n", name, m.Value, m.Unit, m.samples)
	}
	if r.c.trace == 1 {
		fmt.Println("# stage shares of engine time:", r.stageShares())
	}
	failed := len(r.failures)
	fmt.Printf("failed_share %d/%d = %.4f\n", failed, r.attempted, float64(failed)/math.Max(1, float64(r.attempted)))
	for i, err := range r.failures {
		if i == 10 {
			fmt.Printf("... and %d more failures\n", failed-i)
			break
		}
		fmt.Println("FAILED:", err)
	}
	want := endToEnd
	if r.c.trace == 1 {
		want = perLayer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, r.attempted, failed, map[string]metric{}}
	for _, name := range want {
		m, ok := r.metrics[name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s not measured (value %v): too few executions, raise --seconds", name, m.Value)
		}
		out.Metrics[name] = m
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(os.Stdout, string(b)); err != nil {
		return err
	}
	if failed > 0 {
		return errIncorrect
	}
	return nil
}

// stageShares gives each engine stage's share of the summed stage time.
func (r *result) stageShares() string {
	stages := []string{"parse.ms", "rewrite.ms", "static_prune.ms", "unfold.ms", "plan.ms", "execute.ms", "assemble.ms", "finalize.ms", "aggregate_pushdown.ms"}
	total := 0.0
	for _, s := range stages {
		total += r.metrics[s].Value
	}
	var parts []string
	for _, s := range stages {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", strings.TrimSuffix(s, ".ms"), 100*ratio(r.metrics[s].Value, total)))
	}
	compile := 0.0
	for _, s := range stages[:5] {
		compile += r.metrics[s].Value
	}
	return fmt.Sprintf("%s (compile %.1f%%)", strings.Join(parts, ", "), 100*ratio(compile, total))
}
