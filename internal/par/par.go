// Package par is the repo's shared bounded worker pool. The benchmark
// harness uses it to parallelize the measurement matrix (RunFigures,
// CollectReport), the differential tester (internal/difftest) fans
// seeds and each seed's executions out across CPUs with it, and the
// driver runs a configuration matrix's branches and the per-function
// pass groups inside them through it; all need the same contract:
// bounded concurrency, results in input order, fail-fast on error.
//
// One CPU budget serves the whole process: every ParallelMap call
// draws its worker goroutines from GOMAXPROCS slots, whatever its
// caller asked for, and without blocking. A call that gets fewer than
// two free slots runs every item inline on its caller. So the
// outermost call that has items to spread takes the CPUs, and the
// calls nested inside its items (a seed's configurations, a branch's
// function groups) run serially on its workers instead of starting
// goroutines the budget has no CPU for.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// busy counts the worker goroutines ParallelMap calls hold across the
// process; acquire keeps it at or below GOMAXPROCS.
var busy atomic.Int64

// acquire takes up to want free slots from the budget. It returns 0,
// taking none, when fewer than two are free: one helper goroutine
// while the caller waits would only add a hand-off.
func acquire(want int) int {
	limit := int64(runtime.GOMAXPROCS(0))
	for {
		b := busy.Load()
		got := min(int64(want), limit-b)
		if got < 2 {
			return 0
		}
		if busy.CompareAndSwap(b, b+got) {
			return int(got)
		}
	}
}

// DefaultWorkers is the worker count used when a caller passes a
// non-positive parallelism: one worker per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// ParallelMap runs fn over the work items 0..n-1 on at most workers
// goroutines and returns the results in item order, so concurrent
// callers observe exactly the output a serial loop would have
// produced. workers <= 0 selects DefaultWorkers. The goroutines come
// from the process-wide budget (see the package doc): when it has
// fewer than two free slots, or workers == 1, the items run serially
// on the calling goroutine and no goroutine is started. Otherwise the
// caller waits while the workers run.
//
// The first error stops the pool from claiming new items (items
// already in flight finish, their results discarded) and is returned;
// among errors from in-flight items, the lowest-index one wins, so
// single-worker and many-worker runs agree on which error surfaces
// whenever only one item fails.
func ParallelMap[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	return ParallelMapWorker(n, workers, func(_, i int) (T, error) { return fn(i) })
}

// ParallelMapWorker is ParallelMap with the pool slot exposed: fn
// receives (worker, i) where worker identifies which of the pool's
// goroutines ran item i (0..workers-1; the serial inline path is
// worker 0). Telemetry uses it to attribute work items to logical
// threads; correctness must never depend on which worker ran an item.
func ParallelMapWorker[T any](n, workers int, fn func(worker, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	results := make([]T, n)
	if workers = min(workers, n); workers > 1 {
		workers = acquire(workers)
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			r, err := fn(0, i)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	var (
		next    atomic.Int64 // next unclaimed item
		failed  atomic.Bool  // stop claiming once any item errors
		mu      sync.Mutex
		firstI  int = n
		firstEr error
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			// Hand the slot back as soon as this worker runs out of
			// items, before the caller returns.
			defer busy.Add(-1)
			for {
				i := int(next.Add(1) - 1)
				if i >= n || failed.Load() {
					return
				}
				r, err := fn(worker, i)
				if err != nil {
					failed.Store(true)
					mu.Lock()
					if i < firstI {
						firstI, firstEr = i, err
					}
					mu.Unlock()
					return
				}
				results[i] = r
			}
		}(w)
	}
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}
	return results, nil
}
