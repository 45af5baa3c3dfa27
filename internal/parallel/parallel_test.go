package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
	if got := Bound(8, 3); got != 3 {
		t.Errorf("Bound(8, 3) = %d, want 3", got)
	}
	if got := Bound(2, 100); got != 2 {
		t.Errorf("Bound(2, 100) = %d, want 2", got)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		const n = 200
		counts := make([]atomic.Int64, n)
		if err := ForEach(n, workers, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachSerialOrder(t *testing.T) {
	// One worker must execute tasks inline, in index order.
	var order []int
	if err := ForEach(10, 1, func(i int) error {
		order = append(order, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if i != v {
			t.Fatalf("serial order broken: %v", order)
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 4
	var cur, peak atomic.Int64
	if err := ForEach(100, workers, func(int) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		defer cur.Add(-1)
		runtime.Gosched()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent tasks, worker bound is %d", p, workers)
	}
}

func TestRunLowestIndexErrorWins(t *testing.T) {
	for _, workers := range []int{1, 8} {
		wantErr := errors.New("task 3 failed")
		err := ForEach(50, workers, func(i int) error {
			switch i {
			case 3:
				return wantErr
			case 7, 20, 41:
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if !errors.Is(err, wantErr) {
			t.Errorf("workers=%d: got %v, want lowest-index error %v", workers, err, wantErr)
		}
	}
}

func TestRunWorkerConstructionError(t *testing.T) {
	boom := errors.New("no resources")
	err := Run(10, 4, func(w int) (int, error) {
		if w == 0 {
			return 0, boom
		}
		return w, nil
	}, func(int, int) error { return nil })
	if !errors.Is(err, boom) {
		t.Errorf("worker construction error lost: %v", err)
	}
}

func TestRunWorkerOwnedResources(t *testing.T) {
	// Every worker gets its own resource; a task only ever sees the
	// resource of the worker that runs it.
	const n, workers = 64, 4
	var made atomic.Int64
	type res struct{ id int64 }
	var mu sync.Mutex
	seen := map[int64]int{}
	err := Run(n, workers, func(int) (*res, error) {
		return &res{id: made.Add(1)}, nil
	}, func(r *res, i int) error {
		mu.Lock()
		seen[r.id]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if made.Load() > workers {
		t.Errorf("constructed %d resources for %d workers", made.Load(), workers)
	}
	total := 0
	for _, c := range seen {
		total += c
	}
	if total != n {
		t.Errorf("tasks seen %d, want %d", total, n)
	}
}

func TestRunZeroTasks(t *testing.T) {
	called := false
	if err := Run(0, 4, func(int) (int, error) { called = true; return 0, nil },
		func(int, int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("zero-task run constructed a worker or ran a task")
	}
}

func TestMemoCache(t *testing.T) {
	c := NewMemoCache()
	if _, ok := c.Get(42); ok {
		t.Error("empty cache reported a hit")
	}
	c.Put(42, 1.5)
	v, ok := c.Get(42)
	if !ok || v != 1.5 {
		t.Errorf("Get(42) = %v, %v", v, ok)
	}
	c.Put(42, 2.5)
	if v, _ := c.Get(42); v != 2.5 {
		t.Errorf("overwrite lost: %v", v)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
	if c.Hits() != 2 || c.Misses() != 1 {
		t.Errorf("hits/misses = %d/%d, want 2/1", c.Hits(), c.Misses())
	}
}

func TestMemoCacheConcurrent(t *testing.T) {
	// Exercised under -race: concurrent readers and writers must be safe.
	c := NewMemoCache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := uint64(i % 37)
				if g%2 == 0 {
					c.Put(key, float64(i))
				} else {
					c.Get(key)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestObserverReportsTaskCounts(t *testing.T) {
	type obs struct {
		workers int
		counts  []int
	}
	var got []obs
	SetFleetObserver(func(s StreamStats) {
		counts := append([]int(nil), s.TasksPerWorker...)
		got = append(got, obs{s.Workers, counts})
	})
	defer SetFleetObserver(nil)

	if err := ForEach(7, 1, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := ForEach(7, 3, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("observer fired %d times, want 2", len(got))
	}
	if got[0].workers != 1 || len(got[0].counts) != 1 || got[0].counts[0] != 7 {
		t.Errorf("inline run observation = %+v", got[0])
	}
	if got[1].workers != 3 || len(got[1].counts) != 3 {
		t.Fatalf("parallel run observation = %+v", got[1])
	}
	sum := 0
	for _, c := range got[1].counts {
		sum += c
	}
	if sum != 7 {
		t.Errorf("per-worker counts sum to %d, want 7", sum)
	}

	SetFleetObserver(nil)
	if err := ForEach(2, 2, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Error("observer fired after uninstall")
	}
}
