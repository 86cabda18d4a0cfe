package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"npdbench/internal/core"
	"npdbench/internal/npd"
	"npdbench/internal/obs"
	"npdbench/internal/sqldb"
)

// tracedSlowLogCapacity bounds the traced server's slow log on serve-mix.
// It must hold every traced request of a run, so that each one's engine
// spans can be read back by label; a run of 60 s sends about a thousand.
const tracedSlowLogCapacity = 1 << 14

// endpoint is one server of a served run. slow is its engine's slow log
// and static its per-query static-prune counts; both are set only for the
// traced server.
type endpoint struct {
	url    string
	slow   *obs.SlowLog
	static map[string]int
}

// measureServedMix runs serve-mix: nproc clients, each on a connection of
// its own, send whole mixes over loopback HTTP to one internal/server
// handler. The mixes run in rounds: every client sends one mix, each in an
// order drawn from the seed, and the round ends when all have finished.
// With rec set, rounds alternate between the untraced server and a traced
// one on the same data, as the mix workloads alternate engines.
func measureServedMix(w workload, seed int64, ref *reference, budget time.Duration, rec *recorder, res *result) error {
	clients := runtime.NumCPU()
	client := newClient(clients)
	defer client.CloseIdleConnections()
	var plain endpoint
	eng, stopPlain, times, err := setUp(w, rec, func(e *core.Engine) (func() error, error) {
		u, stop, err := startServer(e)
		plain.url = u
		return stop, err
	})
	if err != nil {
		return err
	}
	defer stopPlain()
	res.setup(eng, times)
	res.note("load: closed loop, %d clients (nproc), one connection each, whole mixes over loopback HTTP, warm plan cache", clients)

	var traced *endpoint
	if rec != nil {
		traced = &endpoint{slow: obs.NewSlowLog(tracedSlowLogCapacity)}
		e, err := newTracedEngine(eng, traced.slow, rec)
		if err != nil {
			return err
		}
		var stopTraced func() error
		if traced.url, stopTraced, err = startServer(e); err != nil {
			return err
		}
		defer stopTraced()
		if traced.static, err = staticCounts(e); err != nil {
			return err
		}
	}

	queries := npd.Queries()
	n := len(queries)
	paper := make([]int, n)
	for i := range paper {
		paper[i] = i
	}
	round := 0
	run := func(ep *endpoint, orders [][]int) ([]mixRun, []outcome, error) {
		round++
		return servedRound(client, ep, fmt.Sprintf("m%d.", round), orders, ref, rec)
	}
	// One warm-up mix per server, in paper order, fills the plan cache and
	// the columnar segments; its answers are checked, its times dropped.
	for _, ep := range []*endpoint{&plain, traced} {
		if ep == nil {
			continue
		}
		mixes, _, err := run(ep, [][]int{paper})
		if err != nil {
			return err
		}
		for _, ex := range mixes[0].execs {
			res.count(ex.err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var plainMixes, tracedMixes []mixRun
	var plainOuts []outcome
	deadline := obs.Now().Add(budget)
	for i := 0; ; i++ {
		orders := make([][]int, clients)
		for c := range orders {
			orders[c] = rng.Perm(n)
		}
		if traced != nil && i%2 == 1 {
			mixes, _, err := run(traced, orders)
			if err != nil {
				return err
			}
			tracedMixes = append(tracedMixes, mixes...)
		} else {
			mixes, outs, err := run(&plain, orders)
			if err != nil {
				return err
			}
			plainMixes = append(plainMixes, mixes...)
			plainOuts = append(plainOuts, outs...)
		}
		if !obs.Now().Before(deadline) && (traced == nil || len(tracedMixes) > 0) {
			break
		}
	}
	res.mixes(plainMixes, tracedMixes)
	res.serveParts(queries, plainOuts)
	return nil
}

// servedRound sends one mix per order, each from a client goroutine of its
// own, and waits for all of them. Request labels are prefix, client, "."
// and position, unique within a run. Answers are checked after the round,
// outside every latency. The round's Go runtime work, on the client and
// the server side alike, is shared evenly among its mixes. On the traced
// server, each request's engine spans are read back from the slow log by
// label and its per-layer quantities extracted.
func servedRound(client *http.Client, ep *endpoint, prefix string, orders [][]int, ref *reference, rec *recorder) ([]mixRun, []outcome, error) {
	queries := npd.Queries()
	outs := make([][]outcome, len(orders))
	starts := make([]time.Time, len(orders))
	before := readRuntime()
	var wg sync.WaitGroup
	for c, order := range orders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			newReq := protocolRequest(ep.url, fmt.Sprintf("%s%d.", prefix, c), queries)
			start := obs.Now()
			starts[c] = start
			for i, q := range order {
				a := arrival{due: obs.Since(start), query: q}
				o := send(client, start, i, a, newReq)
				o.arrival, o.genLate = a, -1 // no generator in a closed loop
				outs[c] = append(outs[c], o)
			}
		}()
	}
	wg.Wait()
	rt := readRuntime().sub(before)
	share := runtimeDelta{rt.allocs / float64(len(orders)), rt.allocBytes / float64(len(orders)), rt.gcCycles / float64(len(orders))}

	var entries map[string]*obs.SlowEntry
	if ep.slow != nil {
		entries = map[string]*obs.SlowEntry{}
		for _, e := range ep.slow.Snapshot() {
			entries[e.Query] = e
		}
	}
	mixes := make([]mixRun, len(orders))
	var all []outcome
	for c := range orders {
		m := &mixes[c]
		m.rt = share
		for i := range outs[c] {
			o := &outs[c][i]
			checkOutcome(o, queries, ref)
			id := queries[o.query].ID
			ex := execution{query: id, latency: o.done - o.due, err: o.err}
			if ep.slow != nil && o.ok() {
				e := entries[fmt.Sprintf("%s%d.%d", prefix, c, i)]
				if e == nil {
					return nil, nil, fmt.Errorf("no engine trace for traced request %s%d.%d (%s)", prefix, c, i, id)
				}
				root := requestSpans(rec, starts[c], o, e)
				rec.keep(root)
				profs, _ := e.Profiles.([]*sqldb.OpProfile)
				ex.layers = executionLayers(root, profs, e.Usage, ep.static[id])
			}
			m.wall += ex.latency
			m.execs = append(m.execs, ex)
		}
		all = append(all, outs[c]...)
	}
	return mixes, all, nil
}
