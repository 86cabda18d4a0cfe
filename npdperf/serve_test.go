package main

import (
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"npdbench/internal/npd"
)

func TestScheduleDeterministicWithRequestedRate(t *testing.T) {
	const rate, n = 10.0, 21
	window := 2000 * time.Second
	a := schedule(7, rate, window, n)
	if !reflect.DeepEqual(a, schedule(7, rate, window, n)) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, rate, window, n)) {
		t.Fatal("different seeds gave the same schedule")
	}
	// 20000 expected arrivals: the Poisson count's standard deviation is
	// about 141, so 2% (400) is a wide margin.
	got := float64(len(a)) / window.Seconds()
	if math.Abs(got-rate)/rate > 0.02 {
		t.Fatalf("mean rate %.3f/s, want %.1f/s", got, rate)
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due {
			t.Fatal("due times not increasing")
		}
	}
	if a[len(a)-1].due >= window {
		t.Fatal("arrival past the window")
	}
	// Queries come in rounds, each a permutation of all n.
	for r := 0; r+n <= len(a); r += n {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = a[r+i].query
		}
		sort.Ints(ids)
		for i, id := range ids {
			if id != i {
				t.Fatalf("round at %d is not a permutation: %v", r, ids)
			}
		}
	}
}

func TestLatencyIncludesConnectionWait(t *testing.T) {
	const service = 100 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	client := newClient(1)
	defer client.CloseIdleConnections()
	// Arrivals 10ms apart on one connection: the second waits ~90ms for
	// the first to finish, and that wait is part of its latency.
	arrivals := []arrival{{due: 0}, {due: 10 * time.Millisecond}, {due: 20 * time.Millisecond}}
	outs, _ := openLoop(client, arrivals, 1, func(int, arrival) (*http.Request, error) {
		return http.NewRequest(http.MethodGet, srv.URL, nil)
	})
	for i := range outs {
		if !outs[i].ok() {
			t.Fatalf("request %d failed: %v (status %d)", i, outs[i].err, outs[i].status)
		}
	}
	second := outs[1]
	if wait := second.wrote - second.due; wait < service-20*time.Millisecond {
		t.Errorf("second request waited %v for the connection, want about %v", wait, service-10*time.Millisecond)
	}
	if lat := second.latency(); lat < ms(2*service-20*time.Millisecond) {
		t.Errorf("second latency %.1fms does not include its queueing (service %v)", lat, service)
	}
	// The generator released the second request on time and then waited
	// for the connection: that wait is not generator lateness. It was
	// still handing the second over when the third fell due, so the
	// third's lateness is not attributable to the generator at all.
	if second.genLate < 0 || second.genLate > 50*time.Millisecond {
		t.Errorf("second request: generator lateness %v, want measured and small", second.genLate)
	}
	if outs[2].genLate != -1 {
		t.Errorf("third request: generator lateness %v measured while the generator was held up", outs[2].genLate)
	}
}

func TestFailedRequestMissesLatency(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "busy", http.StatusTooManyRequests)
	}))
	defer srv.Close()
	client := newClient(1)
	defer client.CloseIdleConnections()
	outs, _ := openLoop(client, []arrival{{}}, 1, func(int, arrival) (*http.Request, error) {
		return http.NewRequest(http.MethodGet, srv.URL, nil)
	})
	if outs[0].ok() || !math.IsInf(outs[0].latency(), 1) {
		t.Fatalf("a 429 must count as failed with infinite latency, got ok=%t latency=%v", outs[0].ok(), outs[0].latency())
	}
}

func TestServedRoundRunsWholeMixesAndChecksAnswers(t *testing.T) {
	queries := npd.Queries()
	ref := &reference{}
	for _, q := range queries {
		ref.Answers = append(ref.Answers, refAnswer{Query: q.ID, Vars: []string{"x"}})
	}
	var mu sync.Mutex
	labels := map[string]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		labels[r.URL.Query().Get("label")]++
		mu.Unlock()
		body := `{"head":{"vars":["x"]},"results":{"bindings":[]}}`
		if r.URL.Query().Get("query") == npd.QueryByID("q3").SPARQL {
			body = `{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"literal","value":"extra"}}]}}`
		}
		w.Write([]byte(body))
	}))
	defer srv.Close()
	client := newClient(2)
	defer client.CloseIdleConnections()
	orders := [][]int{rand.Perm(len(queries)), rand.Perm(len(queries))}
	mixes, outs, err := servedRound(client, &endpoint{url: srv.URL}, "m1.", orders, ref, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(mixes) != 2 || len(outs) != 2*len(queries) || len(labels) != 2*len(queries) {
		t.Fatalf("got %d mixes, %d outcomes, %d distinct labels; want 2, %d, %d", len(mixes), len(outs), len(labels), 2*len(queries), 2*len(queries))
	}
	for c, m := range mixes {
		var sum time.Duration
		failed := 0
		for i, ex := range m.execs {
			if ex.query != queries[orders[c][i]].ID {
				t.Fatalf("mix %d position %d ran %s, order says %s", c, i, ex.query, queries[orders[c][i]].ID)
			}
			if ex.latency <= 0 {
				t.Fatalf("mix %d %s: latency %v", c, ex.query, ex.latency)
			}
			if ex.err != nil {
				failed++
				if ex.query != "q3" {
					t.Errorf("mix %d %s: unexpected failure %v", c, ex.query, ex.err)
				}
			}
			sum += ex.latency
		}
		if failed != 1 {
			t.Errorf("mix %d: %d failures, want the wrong q3 answer only", c, failed)
		}
		if m.wall != sum {
			t.Errorf("mix %d: wall %v, sum of latencies %v", c, m.wall, sum)
		}
	}
}
