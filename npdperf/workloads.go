package main

import (
	"fmt"
	"time"

	"npdbench/internal/core"
	"npdbench/internal/npd"
	"npdbench/internal/obs"
	"npdbench/internal/sqldb"
	"npdbench/internal/vig"
)

type loop int

const (
	warmMix   loop = iota // closed loop, whole mixes, warm plan cache
	coldMix               // closed loop, plan cache dropped before each query
	servedMix             // closed loop over the SPARQL protocol, nproc clients, warm plan cache
	openServe             // open-loop Poisson arrivals over the SPARQL protocol
)

// instanceSeed seeds the NPD and VIG generators. Each workload runs on one
// fixed instance: the metrics then move with the code and with machine
// noise, not with the data drawn (at NPD5 the median latency and the peak
// memory differ by 10-20% between data seeds), and the not-independent
// expected answers can be committed per instance. --seed varies what is
// offered on that instance: the query order of each mix, and the arrival
// times and query draws of the open loop.
const instanceSeed = 42

// workload is one benchmark input. The instance is the synthetic NPD seed
// at seedScale, grown by VIG with the given growth factor (NPDk with
// k = 1 + growth).
type workload struct {
	name      string
	loop      loop
	seedScale float64
	growth    float64
	rate      float64 // openServe arrivals per second
	// why is the reason the workload exists, printed with its results
	// (WORKLOADS.md has the measured stage shares behind it).
	why string
}

var workloads = []workload{
	{
		name: "mix-npd5", loop: warmMix, seedScale: 0.1, growth: 4,
		why: "execute (sqldb) is nearly the whole mix at NPD5 while compile is ~0 (all plan-cache hits); only workload whose set-up includes VIG growth",
	},
	{
		name: "mix-cold", loop: coldMix, seedScale: 0.02,
		why: "plans are dropped before every query, so parse/rewrite/static-prune/unfold/plan are a large share: the cost after a reload or for a new filter constant",
	},
	{
		name: "serve-mix", loop: servedMix, seedScale: 0.15,
		why: "whole mixes from nproc concurrent clients over loopback HTTP: the steady workload through internal/server (protocol, JSON serialization, admission, a shared engine)",
	},
	{
		name: "serve-open", loop: openServe, seedScale: 0.15, rate: 10,
		why: "open-loop 10 q/s over loopback HTTP: requests queue behind busy connections, so latency rises before throughput stops",
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// key names the workload's instance in file names: the committed expected
// answers and the cached reference belong to the instance, which several
// workloads may share.
func (w workload) key() string {
	return fmt.Sprintf("npd%g-scale%g", 1+w.growth, w.seedScale)
}

func (w workload) instance() string {
	return fmt.Sprintf("NPD%g (seed scale %g, VIG growth %g, instance seed %d)", 1+w.growth, w.seedScale, w.growth, instanceSeed)
}

// instanceTimes splits one instance build into its layers.
type instanceTimes struct {
	seed, vig time.Duration
}

// buildInstance builds the workload's database.
func (w workload) buildInstance() (*sqldb.Database, instanceTimes, error) {
	var t instanceTimes
	start := obs.Now()
	db, err := npd.NewSeededDatabase(npd.SeedConfig{Scale: w.seedScale, Seed: instanceSeed})
	if err != nil {
		return nil, t, fmt.Errorf("seeding %s: %w", w.instance(), err)
	}
	t.seed = obs.Since(start)
	if w.growth > 0 {
		start = obs.Now()
		a, err := vig.Analyze(db)
		if err != nil {
			return nil, t, fmt.Errorf("analyzing seed for VIG: %w", err)
		}
		if _, err := vig.New(a, instanceSeed).Generate(db, w.growth); err != nil {
			return nil, t, fmt.Errorf("growing %s: %w", w.instance(), err)
		}
		t.vig = obs.Since(start)
	}
	return db, t, nil
}

// spec wraps a database in a fresh NPD specification. The ontology is
// built anew so that every engine pays its own classification.
func spec(db *sqldb.Database) core.Spec {
	return core.Spec{Onto: npd.NewOntology(), Mapping: npd.NewMapping(), DB: db, Prefixes: npd.Prefixes()}
}
