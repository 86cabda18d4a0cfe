package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"npdbench/internal/core"
	"npdbench/internal/npd"
	"npdbench/internal/obs"
	"npdbench/internal/server"
	"npdbench/internal/sqldb"
)

// setupReps is how many times a run sets up its instance and engine; the
// set-up metrics are medians over them and the last set-up is measured.
// One set-up takes 40-90 ms, so 21 cost under 2 s and keep the median
// steady against the machine's short stalls.
const setupReps = 21

type setupTimes struct {
	total, seed, vig, engine time.Duration
}

// setUp builds the workload's instance and a core.DefaultOptions() engine
// setupReps times, runs start (the server, for serve-open) on each, and
// keeps the last. Every earlier set-up is torn down and collected before
// the next one starts, so peak memory reflects one live instance.
func setUp(w workload, rec *recorder, start func(*core.Engine) (stop func() error, err error)) (*core.Engine, func() error, []setupTimes, error) {
	var (
		eng   *core.Engine
		stop  func() error
		times []setupTimes
	)
	for i := 0; i < setupReps; i++ {
		if stop != nil {
			if err := stop(); err != nil {
				return nil, nil, nil, fmt.Errorf("stopping a set-up server: %w", err)
			}
			stop = nil
		}
		eng = nil
		runtime.GC()
		t0 := obs.Now()
		db, it, err := w.buildInstance()
		if err != nil {
			return nil, nil, nil, err
		}
		t1 := obs.Now()
		eng, err = core.NewEngine(spec(db), core.DefaultOptions())
		if err != nil {
			return nil, nil, nil, err
		}
		t2 := obs.Now()
		if start != nil {
			if stop, err = start(eng); err != nil {
				return nil, nil, nil, err
			}
		}
		t3 := obs.Now()
		times = append(times, setupTimes{total: t3.Sub(t0), seed: it.seed, vig: it.vig, engine: t2.Sub(t1)})
		if rec != nil {
			root := rec.begin("bench.setup", t0)
			child := func(name string, from, to time.Time) {
				s := rec.begin(name, from)
				rec.finish(s, to)
				root.Children = append(root.Children, s)
			}
			child("npd.seed", t0, t0.Add(it.seed))
			if w.growth > 0 {
				child("vig.grow", t0.Add(it.seed), t1)
			}
			child("core.new_engine", t1, t2)
			if start != nil {
				child("server.start", t2, t3)
			}
			rec.finish(root, t3)
			rec.keep(root)
		}
	}
	runtime.GC()
	return eng, stop, times, nil
}

// tracedOptions is the engine users get with tracing and operator
// profiles on, for the traced run.
func tracedOptions(slow *obs.SlowLog) core.Options {
	o := core.DefaultOptions()
	o.Obs = &obs.Observer{Tracing: true, ExecProfile: true, SlowLog: slow}
	return o
}

// newTracedEngine builds the traced run's second engine on the same data.
func newTracedEngine(plain *core.Engine, slow *obs.SlowLog, rec *recorder) (*core.Engine, error) {
	t0 := obs.Now()
	eng, err := core.NewEngine(spec(plain.DB()), tracedOptions(slow))
	s := rec.begin("core.new_engine", t0)
	rec.finish(s, obs.Now())
	rec.keep(s)
	return eng, err
}

func measure(c config, w workload) error {
	ref, err := readReference(c.ref)
	if err != nil {
		return err
	}
	var rec *recorder
	if c.trace == 1 {
		rec = newRecorder()
	}
	res := newResult(c, w)
	nonEmpty := 0
	for _, a := range ref.Answers {
		if !a.Independent {
			res.note("reference for %s: %s, %d rows", a.Query, a.Source, len(a.Rows))
		}
		if len(a.Rows) > 0 {
			nonEmpty++
		}
	}
	res.note("reference: %d of %d answers non-empty", nonEmpty, len(ref.Answers))
	budget := time.Duration(c.seconds) * time.Second
	switch w.loop {
	case openServe:
		err = measureServe(w, c.seed, ref, budget, rec, res)
	case servedMix:
		err = measureServedMix(w, c.seed, ref, budget, rec, res)
	default:
		err = measureMix(w, c.seed, ref, budget, rec, res)
	}
	if err != nil {
		return err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	res.set("peak_rss_mb", rss, 1)
	if rec != nil {
		path := filepath.Join(c.cache, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, c.seed))
		if err := rec.writeJSONL(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		res.note("spans: %d traces written to %s", len(rec.kept), path)
	}
	return res.print()
}

func measureMix(w workload, seed int64, ref *reference, budget time.Duration, rec *recorder, res *result) error {
	eng, _, times, err := setUp(w, rec, nil)
	if err != nil {
		return err
	}
	res.setup(eng, times)
	var traced *core.Engine
	if rec != nil {
		if traced, err = newTracedEngine(eng, nil, rec); err != nil {
			return err
		}
	}
	out := mixLoop(eng, traced, ref, w.loop == coldMix, rand.New(rand.NewSource(seed)), budget, rec)
	for _, ex := range out.warm {
		res.count(ex.err)
	}
	res.mixes(out.plain, out.traced)
	return nil
}

func measureServe(w workload, seed int64, ref *reference, budget time.Duration, rec *recorder, res *result) error {
	conns := runtime.NumCPU()
	client := newClient(conns)
	defer client.CloseIdleConnections()
	var plainURL, tracedURL string
	plain, stopPlain, times, err := setUp(w, rec, func(e *core.Engine) (func() error, error) {
		u, stop, err := startServer(e)
		plainURL = u
		return stop, err
	})
	if err != nil {
		return err
	}
	defer stopPlain()
	res.setup(plain, times)
	res.note("load: open loop, Poisson %g q/s, %d connections (nproc), latency from due time", w.rate, conns)

	queries := npd.Queries()
	arrivals := schedule(seed, w.rate, budget, len(queries))
	first, second := arrivals, []arrival(nil)
	var slow *obs.SlowLog
	var staticByQuery map[string]int
	if rec != nil {
		// Traced run: the first half of the schedule goes to the plain
		// server, the second half to a traced one on the same data.
		half := budget / 2
		first, second = nil, nil
		for _, a := range arrivals {
			if a.due < half {
				first = append(first, a)
			} else {
				second = append(second, arrival{due: a.due - half, query: a.query})
			}
		}
		slow = obs.NewSlowLog(len(second) + 2*len(queries) + 8)
		traced, err := newTracedEngine(plain, slow, rec)
		if err != nil {
			return err
		}
		var stopTraced func() error
		tracedURL, stopTraced, err = startServer(traced)
		if err != nil {
			return err
		}
		defer stopTraced()
		if staticByQuery, err = staticCounts(traced); err != nil {
			return err
		}
	}

	for _, u := range []string{plainURL, tracedURL} {
		if u == "" {
			continue
		}
		warm := make([]arrival, len(queries))
		for i := range warm {
			warm[i].query = i
		}
		outs, _ := openLoop(client, warm, 1, protocolRequest(u, "w", queries))
		for i := range outs {
			checkOutcome(&outs[i], queries, ref)
			res.count(outs[i].err)
		}
	}

	before := readRuntime()
	plainOuts, _ := openLoop(client, first, conns, protocolRequest(plainURL, "r", queries))
	rt := readRuntime().sub(before)
	for i := range plainOuts {
		checkOutcome(&plainOuts[i], queries, ref)
	}
	var tracedOuts []outcome
	var tracedLayers []layers
	if rec != nil {
		var start time.Time
		tracedOuts, start = openLoop(client, second, conns, protocolRequest(tracedURL, "r", queries))
		entries := map[string]*obs.SlowEntry{}
		for _, e := range slow.Snapshot() {
			entries[e.Query] = e
		}
		for i := range tracedOuts {
			o := &tracedOuts[i]
			checkOutcome(o, queries, ref)
			if !o.ok() {
				continue
			}
			id := queries[o.query].ID
			e := entries["r"+strconv.Itoa(i)]
			if e == nil {
				return fmt.Errorf("no engine trace for traced request %d (%s)", i, id)
			}
			root := requestSpans(rec, start, o, e)
			rec.keep(root)
			profs, _ := e.Profiles.([]*sqldb.OpProfile)
			tracedLayers = append(tracedLayers, executionLayers(root, profs, e.Usage, staticByQuery[id]))
		}
	}
	res.serve(queries, plainOuts, tracedOuts, tracedLayers, rt)
	return nil
}

// staticCounts answers each query once on e directly. Static-prune counts
// live only in PhaseStats, which the protocol does not return, so the
// served workloads take them per query from this pass.
func staticCounts(e *core.Engine) (map[string]int, error) {
	out := map[string]int{}
	for _, q := range npd.Queries() {
		ans, err := e.Query(q.SPARQL)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.ID, err)
		}
		out[q.ID] = staticDropped(ans.Stats)
	}
	return out, nil
}

// startServer serves e through internal/server on a loopback port.
func startServer(e *core.Engine) (string, func() error, error) {
	hs := &http.Server{Addr: "127.0.0.1:0", Handler: server.New(e, server.Config{}).Handler(), ReadHeaderTimeout: 10 * time.Second}
	addr, stop, err := server.StartHTTP(hs)
	if err != nil {
		return "", nil, fmt.Errorf("starting the SPARQL endpoint: %w", err)
	}
	return "http://" + addr + "/sparql", func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return stop(ctx)
	}, nil
}

// protocolRequest builds SPARQL-protocol GET requests asking for JSON
// results; the label (prefix plus arrival index) names the request in the
// engine's slow log, which is how the traced run finds its spans.
func protocolRequest(endpoint, prefix string, queries []npd.BenchQuery) func(int, arrival) (*http.Request, error) {
	return func(i int, a arrival) (*http.Request, error) {
		v := url.Values{"query": {queries[a.query].SPARQL}, "label": {prefix + strconv.Itoa(i)}}
		req, err := http.NewRequest(http.MethodGet, endpoint+"?"+v.Encode(), nil)
		if err != nil {
			return nil, err
		}
		req.Header.Set("Accept", "application/sparql-results+json")
		return req, nil
	}
}

// checkOutcome turns a non-200 response or an answer that differs from
// the reference into the outcome's error, and drops the body.
func checkOutcome(o *outcome, queries []npd.BenchQuery, ref *reference) {
	id := queries[o.query].ID
	switch {
	case o.err != nil:
		o.err = fmt.Errorf("%s: %w", id, o.err)
	case o.status != http.StatusOK:
		o.err = fmt.Errorf("%s: HTTP %d: %.200s", id, o.status, o.body)
	default:
		vars, rows, err := canonJSONRows(o.body)
		if err != nil {
			o.err = fmt.Errorf("%s: %w", id, err)
		} else {
			o.err = ref.check(id, vars, rows)
		}
	}
	o.body = nil
}

// requestSpans records one traced request: the client's wait for a
// connection, the round trip to the first response byte (holding the
// engine's span tree from the slow log) and the body transfer.
func requestSpans(rec *recorder, start time.Time, o *outcome, e *obs.SlowEntry) *span {
	at := func(d time.Duration) time.Time { return start.Add(d) }
	part := func(name string, from, to time.Duration) *span {
		s := rec.begin(name, at(from))
		rec.finish(s, at(to))
		return s
	}
	root := part("bench.request", o.due, o.done)
	ttfb := part("http.ttfb", o.wrote, o.firstByte)
	if e.Trace != nil {
		ttfb.Children = append(ttfb.Children, rec.engineSpan(e.Trace))
	}
	root.Children = []*span{part("http.wait", o.due, o.wrote), ttfb, part("http.body", o.firstByte, o.done)}
	return root
}
