package main

import (
	"context"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"

	"npdbench/internal/obs"
)

// requestTimeout bounds one request; a request past it is a failure.
const requestTimeout = 30 * time.Second

// arrival is one scheduled request of the open loop.
type arrival struct {
	due   time.Duration // offset from the start of the schedule
	query int           // index into the query list
}

// schedule draws a Poisson arrival process at rate per second over window,
// with absolute due times fixed up front so that a late wake-up never
// lowers the offered rate. Queries are drawn in rounds, each a random
// permutation of the n queries, so every query is offered equally often.
func schedule(seed int64, rate float64, window time.Duration, n int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	var perm []int
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= window {
			return out
		}
		if len(perm) == 0 {
			perm = rng.Perm(n)
		}
		out = append(out, arrival{due: due, query: perm[0]})
		perm = perm[1:]
	}
}

// outcome is what the client saw of one request. Times are offsets from
// the start of the schedule, so latency counts from the due time and
// includes any wait for a free connection.
type outcome struct {
	arrival
	wrote, firstByte, done time.Duration
	// genLate is how late the generator released the request while it
	// was not held up by a previous hand-off; -1 when it was.
	genLate time.Duration
	status  int
	body    []byte
	err     error
}

func (o *outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

// latency is done minus due; a failed request misses every latency limit.
func (o *outcome) latency() float64 {
	if !o.ok() {
		return math.Inf(1)
	}
	return ms(o.done - o.due)
}

// openLoop sends the arrivals on schedule through at most conns
// connections: conns workers each keep one request in flight, and an
// arrival due while all are busy waits for the first free one. It returns
// once every request has finished, with the time the schedule started.
func openLoop(client *http.Client, arrivals []arrival, conns int, newReq func(i int, a arrival) (*http.Request, error)) ([]outcome, time.Time) {
	out := make([]outcome, len(arrivals))
	late := make([]time.Duration, len(arrivals))
	work := make(chan int)
	start := obs.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				out[i] = send(client, start, i, arrivals[i], newReq)
			}
		}()
	}
	var handedOff time.Duration // when the previous hand-off completed
	for i, a := range arrivals {
		time.Sleep(a.due - obs.Since(start))
		late[i] = -1
		if handedOff <= a.due {
			late[i] = max(0, obs.Since(start)-a.due)
		}
		work <- i
		handedOff = obs.Since(start)
	}
	close(work)
	wg.Wait()
	for i := range out {
		out[i].arrival = arrivals[i]
		out[i].genLate = late[i]
	}
	return out, start
}

// send performs one request and records when it was written, when its
// first response byte arrived and when its body was read.
func send(client *http.Client, start time.Time, i int, a arrival, newReq func(int, arrival) (*http.Request, error)) outcome {
	var o outcome
	req, err := newReq(i, a)
	if err != nil {
		o.err, o.done = err, obs.Since(start)
		return o
	}
	// The transport calls these hooks from its own goroutines.
	var wrote, first atomic.Int64
	tr := &httptrace.ClientTrace{
		WroteRequest:         func(httptrace.WroteRequestInfo) { wrote.Store(int64(obs.Since(start))) },
		GotFirstResponseByte: func() { first.Store(int64(obs.Since(start))) },
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	resp, err := client.Do(req.WithContext(httptrace.WithClientTrace(ctx, tr)))
	if err == nil {
		o.status = resp.StatusCode
		o.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	o.done = obs.Since(start)
	o.err = err
	o.firstByte = time.Duration(first.Load())
	if o.firstByte == 0 {
		o.firstByte = o.done
	}
	o.wrote = time.Duration(wrote.Load())
	if o.wrote == 0 || o.wrote > o.firstByte {
		o.wrote = o.firstByte
	}
	return o
}

// newClient returns an HTTP client that holds at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}
