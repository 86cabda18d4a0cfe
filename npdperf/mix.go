package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"npdbench/internal/core"
	"npdbench/internal/npd"
	"npdbench/internal/obs"
)

// execution is one query execution as a client sees it.
type execution struct {
	query   string
	latency time.Duration
	rt      runtimeDelta // Go runtime counters across ParseQuery and AnswerCtx
	err     error        // failure or answer mismatch
	layers  layers       // traced runs only
}

// mixRun is one pass of the 21 queries.
type mixRun struct {
	execs []execution
	wall  time.Duration // sum of the execution latencies
	rt    runtimeDelta  // summed over the executions
}

// runMix runs the 21 queries once, in the given order, on eng and checks
// every answer against ref. With cold set, the plan cache is dropped
// before each query. A latency covers ParseQuery plus AnswerCtx; the
// invalidation and the answer check are outside it. With rec set, each
// execution is traced and its per-layer quantities are extracted.
func runMix(eng *core.Engine, order []int, ref *reference, cold bool, rec *recorder) mixRun {
	var m mixRun
	queries := npd.Queries()
	for _, i := range order {
		bq := queries[i]
		if cold {
			eng.InvalidatePlans()
		}
		ex := execute(eng, bq, ref, rec)
		m.wall += ex.latency
		m.rt = m.rt.add(ex.rt)
		m.execs = append(m.execs, ex)
	}
	return m
}

func execute(eng *core.Engine, bq npd.BenchQuery, ref *reference, rec *recorder) execution {
	ex := execution{query: bq.ID}
	rt0 := readRuntime()
	t0 := obs.Now()
	q, err := eng.ParseQuery(bq.SPARQL)
	t1 := obs.Now()
	var ans *core.Answer
	if err == nil {
		ans, err = eng.AnswerCtx(context.Background(), q)
	}
	t2 := obs.Now()
	ex.rt = readRuntime().sub(rt0)
	ex.latency = t2.Sub(t0)
	if err != nil {
		ex.err = fmt.Errorf("%s: %w", bq.ID, err)
		return ex
	}
	ex.err = ref.check(bq.ID, ans.Vars, canonRows(ans.ResultSet))
	if rec != nil {
		root := rec.begin("bench.execute", t0)
		parse := rec.begin("bench.parse", t0)
		rec.finish(parse, t1)
		answer := rec.begin("bench.answer", t1)
		rec.finish(answer, t2)
		if ans.Trace != nil {
			answer.Children = append(answer.Children, rec.engineSpan(ans.Trace.Root))
		}
		root.Children = []*span{parse, answer}
		rec.finish(root, t2)
		rec.keep(root)
		ex.layers = executionLayers(root, ans.Profiles, ans.Stats.Usage, staticDropped(ans.Stats))
	}
	return ex
}

// mixOutcome holds the measured mixes of one run per engine.
type mixOutcome struct {
	plain, traced []mixRun
	warm          []execution
}

// mixLoop runs the closed loop of the mix workloads. One warm-up mix per
// engine, in paper order, fills the plan cache and the columnar segments
// (its answers are checked, its times dropped); then whole mixes, each in
// an order drawn from rng, run until the budget is spent. With traced set,
// mixes alternate between the untraced engine and the traced one, so both
// see the same machine conditions, and the loop also waits for one traced
// mix.
func mixLoop(plain, traced *core.Engine, ref *reference, cold bool, rng *rand.Rand, budget time.Duration, rec *recorder) mixOutcome {
	var out mixOutcome
	n := len(npd.Queries())
	paper := make([]int, n)
	for i := range paper {
		paper[i] = i
	}
	warm := func(eng *core.Engine) {
		out.warm = append(out.warm, runMix(eng, paper, ref, cold, nil).execs...)
	}
	warm(plain)
	if traced != nil {
		warm(traced)
	}
	deadline := obs.Now().Add(budget)
	for i := 0; ; i++ {
		if traced != nil && i%2 == 1 {
			out.traced = append(out.traced, runMix(traced, rng.Perm(n), ref, cold, rec))
		} else {
			out.plain = append(out.plain, runMix(plain, rng.Perm(n), ref, cold, nil))
		}
		if !obs.Now().Before(deadline) && (traced == nil || len(out.traced) > 0) {
			return out
		}
	}
}
