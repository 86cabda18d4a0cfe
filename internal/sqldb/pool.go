package sqldb

import (
	"context"
	"sync"
	"sync/atomic"
)

// Intra-query parallelism (morsel-driven, after Leis et al.): operators
// that have enough work fan it out over a bounded worker pool — union arms
// of the big OBDA unfoldings run concurrently, hash joins build and probe
// partitioned hash tables, and scans/filters split their input into
// fixed-size morsels. Every parallel operator merges its pieces in input
// order, so results are bit-identical to sequential execution; the only
// observable differences are wall time and the workers= annotations in
// EXPLAIN ANALYZE.
//
// This file is the engine's one sanctioned goroutine spawn point: every
// parallel operator fans out through parState.run, whose workers observe
// the shared cooperative-stop flag. The gohygiene lint pass forbids naked
// go statements anywhere else in internal/sqldb and internal/core.
//
//lint:go-allowed bounded worker pool; tasks observe the stop flag

const (
	// morselRows is the chunk size scan, filter, and probe operators hand
	// to one worker task. Small enough to balance skewed predicates, large
	// enough that the per-task bookkeeping disappears in the scan cost.
	morselRows = 1024
	// minParallelRows is the operator input size below which fanning out
	// cannot win: coordination costs more than a single worker's pass.
	minParallelRows = 2048
	// maxJoinPartitions caps the partition count of a parallel hash join;
	// beyond this the per-partition build scans dominate.
	maxJoinPartitions = 16
)

// Pool is a bounded supply of helper workers shared by every parallel
// operator of every statement executed against it. Helpers are borrowed
// without blocking: when the pool is drained (all workers busy in other
// operators or other concurrent queries), the requesting operator simply
// runs on its calling goroutine alone. Nested parallel operators therefore
// can never deadlock on pool capacity.
type Pool struct {
	tokens chan struct{}
	size   int // helper slots when fully idle
}

// NewPool returns a pool that will lend out at most workers-1 helper
// goroutines at any moment (the calling goroutine of each operator is the
// always-available worker number one). workers < 2 yields a pool that
// never lends a helper.
func NewPool(workers int) *Pool {
	n := workers - 1
	if n < 0 {
		n = 0
	}
	p := &Pool{tokens: make(chan struct{}, n+1), size: n}
	for i := 0; i < n; i++ {
		p.tokens <- struct{}{}
	}
	return p
}

// Idle reports whether every helper slot is back in the pool — no
// statement is currently borrowing workers. Serving-path tests use this
// to assert that canceled or failed queries return their slots.
func (p *Pool) Idle() bool {
	if p == nil {
		return true
	}
	return len(p.tokens) == p.size
}

// tryAcquire borrows up to n helper slots without blocking and returns how
// many it got.
func (p *Pool) tryAcquire(n int) int {
	got := 0
	for got < n {
		select {
		case <-p.tokens:
			got++
		default:
			return got
		}
	}
	return got
}

// release returns n helper slots to the pool.
func (p *Pool) release(n int) {
	for i := 0; i < n; i++ {
		p.tokens <- struct{}{}
	}
}

// ExecStats accumulates the parallel-execution counters of one or more
// statement executions. All fields are atomics: parallel operators inside
// one statement, and concurrent statements sharing one stats block, may
// bump them simultaneously. core publishes these as the
// npdbench_exec_parallel_* metric family.
type ExecStats struct {
	// Tasks counts operator tasks (union arms, partitions, morsels)
	// executed by the parallel driver, whoever ran them.
	Tasks atomic.Int64
	// Workers counts helper goroutines launched (excludes the calling
	// goroutine, which always participates).
	Workers atomic.Int64
	// UnionArms counts union arms evaluated through the parallel driver.
	UnionArms atomic.Int64
	// JoinPartitions counts hash-join partitions built in parallel.
	JoinPartitions atomic.Int64
	// Morsels counts scan/filter/probe row chunks processed in parallel
	// operators.
	Morsels atomic.Int64
	// Batches counts fixed-size row batches processed by vectorized
	// operators (sequential and parallel alike).
	Batches atomic.Int64
	// NestedLoopPairs counts the row pairs nested-loop joins examined:
	// joins with no column or computed equality key, i.e. over non-equality
	// predicates or none (cross products).
	NestedLoopPairs atomic.Int64
}

// add folds other into s (used to roll per-statement stats up into
// engine-lifetime aggregates).
func (s *ExecStats) Add(other *ExecStats) {
	if s == nil || other == nil {
		return
	}
	s.Tasks.Add(other.Tasks.Load())
	s.Workers.Add(other.Workers.Load())
	s.UnionArms.Add(other.UnionArms.Load())
	s.JoinPartitions.Add(other.JoinPartitions.Load())
	s.Morsels.Add(other.Morsels.Load())
	s.Batches.Add(other.Batches.Load())
	s.NestedLoopPairs.Add(other.NestedLoopPairs.Load())
}

// parState is the per-statement handle on the parallel execution machinery;
// a nil parState (or one on a sequential execCtx) means every operator runs
// inline. It is shared by all child contexts of one statement, so its
// fields must be safe for concurrent use.
type parState struct {
	pool  *Pool
	par   int // per-operator worker cap, >= 2 whenever parState exists
	stats *ExecStats
	// ctx carries the statement's cancellation signal; workers stop
	// claiming tasks once it is done. Nil means non-cancellable.
	ctx context.Context
}

// cancelled returns the context's error once the statement's deadline has
// passed or its client has gone away; nil-safe on every level.
func (ps *parState) cancelled() error {
	if ps == nil || ps.ctx == nil {
		return nil
	}
	return ps.ctx.Err()
}

// run executes tasks 0..n-1 with the calling goroutine plus up to par-1
// helpers borrowed non-blockingly from the pool. Tasks are claimed from a
// shared counter (morsel dispatch); after any task fails, workers stop
// claiming new ones. The error reported is the failing task with the
// lowest index — the same one sequential execution would have hit first —
// so error propagation is deterministic regardless of scheduling. Returns
// the number of workers that participated.
func (ps *parState) run(n int, task func(i int) error) (int, error) {
	if n <= 0 {
		return 0, nil
	}
	helpers := 0
	if ps != nil && n > 1 {
		want := ps.par - 1
		if want > n-1 {
			want = n - 1
		}
		if want > 0 {
			helpers = ps.pool.tryAcquire(want)
		}
	}
	if helpers == 0 {
		// Pool drained or single task: inline, in order.
		for i := 0; i < n; i++ {
			if err := ps.cancelled(); err != nil {
				ps.countTasks(i, 0)
				return 1, err
			}
			if err := task(i); err != nil {
				ps.countTasks(i+1, 0)
				return 1, err
			}
		}
		ps.countTasks(n, 0)
		return 1, nil
	}
	// From here on the helpers are borrowed; return them even if a task
	// panics — a leaked slot would silently shrink the pool for every
	// later query in a long-running server.
	defer ps.pool.release(helpers)
	var (
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		errIdx   = -1
		firstErr error
	)
	work := func() {
		for !stop.Load() {
			if err := ps.cancelled(); err != nil {
				mu.Lock()
				if errIdx == -1 {
					errIdx, firstErr = n, err
				}
				mu.Unlock()
				stop.Store(true)
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := task(i); err != nil {
				mu.Lock()
				if errIdx == -1 || i < errIdx {
					errIdx, firstErr = i, err
				}
				mu.Unlock()
				stop.Store(true)
				return
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	claimed := int(next.Load())
	if claimed > n {
		claimed = n
	}
	ps.countTasks(claimed, helpers)
	return helpers + 1, firstErr
}

func (ps *parState) countTasks(tasks, workers int) {
	if ps == nil || ps.stats == nil {
		return
	}
	ps.stats.Tasks.Add(int64(tasks))
	ps.stats.Workers.Add(int64(workers))
}

// parWorkers reports the worker cap of this context: 1 when execution is
// sequential.
func (ctx *execCtx) parWorkers() int {
	if ctx == nil || ctx.par == nil {
		return 1
	}
	return ctx.par.par
}

// setParNote stashes the parallel-execution annotation of the operator
// just executed; the call site that owns the operator's profile node
// collects it with takeParNote and appends it to the detail string.
func (ctx *execCtx) setParNote(note string) {
	if ctx != nil {
		ctx.parNote = note
	}
}

// takeParNote returns and clears the pending annotation.
func (ctx *execCtx) takeParNote() string {
	if ctx == nil || ctx.parNote == "" {
		return ""
	}
	note := ctx.parNote
	ctx.parNote = ""
	return note
}
