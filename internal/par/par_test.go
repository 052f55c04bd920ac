package par

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestParallelMapOrdersResults(t *testing.T) {
	n := 200
	got, err := ParallelMap(n, 8, func(i int) (int, error) {
		// Uneven work so completion order scrambles.
		v := 0
		for j := 0; j < (i%7)*1000; j++ {
			v += j
		}
		_ = v
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestParallelMapEmptyAndSerial(t *testing.T) {
	if got, err := ParallelMap(0, 4, func(int) (int, error) { return 0, nil }); err != nil || got != nil {
		t.Fatalf("empty map: got %v, %v", got, err)
	}
	got, err := ParallelMap(3, 1, func(i int) (string, error) { return fmt.Sprint(i), nil })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"0", "1", "2"}) {
		t.Fatalf("serial map: got %v", got)
	}
}

func TestParallelMapPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		_, err := ParallelMap(50, workers, func(i int) (int, error) {
			if i == 17 {
				return 0, boom
			}
			return i, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: got %v, want boom", workers, err)
		}
	}
}

// highWater tracks the most items running at once.
type highWater struct{ cur, max atomic.Int64 }

func (h *highWater) enter() { h.note(h.cur.Add(1)) }

// note raises the mark to n.
func (h *highWater) note(n int64) {
	for {
		m := h.max.Load()
		if n <= m || h.max.CompareAndSwap(m, n) {
			return
		}
	}
}

func (h *highWater) exit() { h.cur.Add(-1) }

// spin burns a little CPU so items overlap when they can.
func spin() {
	v := 0
	for j := 0; j < 20000; j++ {
		v += j
	}
	_ = v
}

// checkBudgetReturned fails unless every slot went back to the budget.
func checkBudgetReturned(t *testing.T) {
	t.Helper()
	if n := busy.Load(); n != 0 {
		t.Errorf("%d budget slots still held after the calls returned", n)
	}
}

// TestNestedCallsStayWithinBudget nests an 8-item map in every item of
// an 8-item map, each asking for 8 workers, and checks that at most
// GOMAXPROCS inner items ever run at once and that no more goroutines
// than the budget's slots are started.
func TestNestedCallsStayWithinBudget(t *testing.T) {
	limit := int64(runtime.GOMAXPROCS(0))
	base := runtime.NumGoroutine()
	var items, goroutines highWater
	_, err := ParallelMap(8, 8, func(i int) ([]int, error) {
		return ParallelMap(8, 8, func(j int) (int, error) {
			items.enter()
			defer items.exit()
			goroutines.note(int64(runtime.NumGoroutine() - base))
			spin()
			return i*8 + j, nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := items.max.Load(); got > limit || got < 1 {
		t.Errorf("%d inner items ran at once, budget is %d", got, limit)
	}
	if got := goroutines.max.Load(); got > limit {
		t.Errorf("%d goroutines started, budget is %d", got, limit)
	}
	checkBudgetReturned(t)
}

// TestNestedCallWithoutSlotRunsInline holds every slot with an outer
// map whose items all wait for each other, so each nested call finds
// the budget empty: it must run its items inline, as worker 0.
func TestNestedCallWithoutSlotRunsInline(t *testing.T) {
	n := runtime.GOMAXPROCS(0)
	var started, finished sync.WaitGroup
	started.Add(n)
	finished.Add(n)
	_, err := ParallelMap(n, n, func(i int) (struct{}, error) {
		// Every outer item holds its slot until all have run their
		// nested call.
		started.Done()
		started.Wait()
		defer finished.Wait()
		defer finished.Done()
		_, err := ParallelMapWorker(8, 8, func(worker, j int) (struct{}, error) {
			if worker != 0 {
				return struct{}{}, fmt.Errorf("outer item %d: nested item %d ran on worker %d", i, j, worker)
			}
			return struct{}{}, nil
		})
		return struct{}{}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	checkBudgetReturned(t)
}

// TestNestedLowestIndexErrorWins fails nested items under two outer
// items and checks that the lower outer item's error surfaces, at any
// worker count.
func TestNestedLowestIndexErrorWins(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		_, err := ParallelMap(8, workers, func(i int) ([]int, error) {
			return ParallelMap(8, workers, func(j int) (int, error) {
				spin()
				if (i == 2 || i == 5) && j >= 3 {
					return 0, fmt.Errorf("item %d.%d", i, j)
				}
				return j, nil
			})
		})
		if err == nil || err.Error() != "item 2.3" {
			t.Errorf("workers=%d: got %v, want item 2.3", workers, err)
		}
		checkBudgetReturned(t)
	}
}

// TestOneWorkerStartsNoGoroutine checks that a one-worker map, nested
// or not, runs on the calling goroutine and takes no budget slot.
func TestOneWorkerStartsNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	_, err := ParallelMapWorker(4, 1, func(worker, i int) ([]struct{}, error) {
		return ParallelMapWorker(4, 1, func(worker, j int) (struct{}, error) {
			if n := runtime.NumGoroutine(); n != base || worker != 0 || busy.Load() != 0 {
				return struct{}{}, fmt.Errorf("item %d.%d: worker %d, %d goroutines (was %d), %d slots held", i, j, worker, n, base, busy.Load())
			}
			return struct{}{}, nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}
