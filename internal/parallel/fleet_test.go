package parallel

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/proptest"
)

func TestStreamDeliversInOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		f := NewFleet(workers)
		results := make([]int, 20)
		var delivered []int
		err := Stream(f, 20, 0, nil,
			func(w int) (int, error) { return w, nil },
			func(_ int, i int) error { results[i] = i * i; return nil },
			func(i int) error {
				if results[i] != i*i {
					t.Errorf("workers=%d: delivered %d before its task finished", workers, i)
				}
				delivered = append(delivered, i)
				return nil
			})
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(delivered) != 20 {
			t.Fatalf("workers=%d: delivered %d of 20", workers, len(delivered))
		}
		for i, d := range delivered {
			if d != i {
				t.Fatalf("workers=%d: delivery order %v", workers, delivered)
			}
		}
	}
}

func TestStreamSurvivesAcrossStages(t *testing.T) {
	// The tentpole property: worker-memoized resources persist across
	// stages. Each worker's resource is constructed exactly once even
	// though the fleet runs several stages.
	f := NewFleet(4)
	defer f.Close()
	var built atomic.Int32
	resources := make([]*int, f.Size())
	newWorker := func(w int) (*int, error) {
		if resources[w] == nil {
			built.Add(1)
			v := new(int)
			resources[w] = v
		}
		return resources[w], nil
	}
	for stage := 0; stage < 5; stage++ {
		err := RunOn(f, 32, newWorker, func(wk *int, i int) error {
			*wk++ // worker-owned: no two goroutines share a resource
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if built.Load() > 4 {
		t.Errorf("%d resources built for a 4-worker fleet over 5 stages", built.Load())
	}
	total := 0
	for _, r := range resources {
		if r != nil {
			total += *r
		}
	}
	if total != 5*32 {
		t.Errorf("tasks executed %d times, want %d", total, 5*32)
	}
}

func TestStreamWindowBoundsRunAhead(t *testing.T) {
	defer SetFleetObserver(nil)
	for _, window := range []int{1, 2, 5} {
		var stats StreamStats
		SetFleetObserver(func(s StreamStats) { stats = s })
		f := NewFleet(4)
		sum := 0
		err := Stream(f, 40, window, nil,
			func(w int) (struct{}, error) { return struct{}{}, nil },
			func(_ struct{}, i int) error { return nil },
			func(i int) error { sum += i; return nil })
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if sum != 40*39/2 {
			t.Errorf("window=%d: merged sum %d", window, sum)
		}
		if stats.MaxRunAhead > window {
			t.Errorf("window=%d: run-ahead high-water %d exceeds the bound", window, stats.MaxRunAhead)
		}
		if stats.Tasks != 40 || stats.Workers != 4 {
			t.Errorf("window=%d: observer saw %d tasks on %d workers", window, stats.Tasks, stats.Workers)
		}
	}
}

func TestStreamTaskErrorLowestIndexWins(t *testing.T) {
	f := NewFleet(4)
	defer f.Close()
	var ran atomic.Int32
	var delivered atomic.Int32
	err := Stream(f, 10, 0, nil,
		func(w int) (struct{}, error) { return struct{}{}, nil },
		func(_ struct{}, i int) error {
			ran.Add(1)
			if i == 3 || i == 7 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		},
		func(i int) error { delivered.Add(1); return nil })
	if err == nil || err.Error() != "task 3 failed" {
		t.Fatalf("got %v, want the lowest-index task error", err)
	}
	if ran.Load() != 10 {
		t.Errorf("only %d of 10 tasks ran despite failures", ran.Load())
	}
	if delivered.Load() != 3 {
		t.Errorf("%d deliveries, want 3 (stop at the first failed index)", delivered.Load())
	}
}

func TestStreamDeliverErrorStopsDelivery(t *testing.T) {
	f := NewFleet(3)
	defer f.Close()
	sentinel := errors.New("merge failed")
	var delivered atomic.Int32
	err := Stream(f, 9, 0, nil,
		func(w int) (struct{}, error) { return struct{}{}, nil },
		func(_ struct{}, i int) error { return nil },
		func(i int) error {
			if i == 4 {
				return sentinel
			}
			delivered.Add(1)
			return nil
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want the deliver error", err)
	}
	if delivered.Load() != 4 {
		t.Errorf("%d deliveries before the failing one, want 4", delivered.Load())
	}
}

func TestStreamConstructionErrorLowestWorkerWins(t *testing.T) {
	f := NewFleet(4)
	defer f.Close()
	err := RunOn(f, 16,
		func(w int) (struct{}, error) {
			if w == 1 || w == 3 {
				return struct{}{}, fmt.Errorf("worker %d broken", w)
			}
			return struct{}{}, nil
		},
		func(_ struct{}, i int) error { return nil })
	if err == nil || err.Error() != "worker 1 broken" {
		t.Fatalf("got %v, want the lowest-worker construction error", err)
	}
}

func TestStreamAllWorkersFailConstruction(t *testing.T) {
	f := NewFleet(3)
	defer f.Close()
	var ran atomic.Int32
	err := RunOn(f, 8,
		func(w int) (struct{}, error) { return struct{}{}, fmt.Errorf("worker %d broken", w) },
		func(_ struct{}, i int) error { ran.Add(1); return nil })
	if err == nil || err.Error() != "worker 0 broken" {
		t.Fatalf("got %v, want worker 0's error", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d tasks ran with no constructible worker", ran.Load())
	}
	// The fleet survives a failed stage: a later stage still works.
	if err := ForEachOn(f, 4, func(i int) error { return nil }); err != nil {
		t.Fatalf("fleet unusable after failed construction: %v", err)
	}
}

// TestStreamPanicDeterministicLowestIndex pins the TaskPanic-through-Fleet
// contract: like Run, the lowest-index panic wins at any worker count, it
// outranks task errors, and the stage drains before re-panicking.
func TestStreamPanicDeterministicLowestIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		f := NewFleet(workers)
		var ran atomic.Int32
		var streamErr error
		rec := func() (rec any) {
			defer func() { rec = recover() }()
			streamErr = Stream(f, 12, 0, nil,
				func(w int) (struct{}, error) { return struct{}{}, nil },
				func(_ struct{}, i int) error {
					ran.Add(1)
					if i == 5 || i == 9 {
						panic(fmt.Sprintf("boom %d", i))
					}
					if i == 1 {
						return errors.New("ordinary failure")
					}
					return nil
				}, nil)
			return nil
		}()
		f.Close()
		if workers == 1 {
			// Inline semantics (same as Run's): index order stops at the
			// first failure, so the task-1 error precedes any panic.
			if rec != nil {
				t.Fatalf("inline fleet panicked (%v) instead of returning the first error", rec)
			}
			if streamErr == nil || streamErr.Error() != "ordinary failure" {
				t.Errorf("inline fleet returned %v, want the task-1 error", streamErr)
			}
			if ran.Load() != 2 {
				t.Errorf("inline fleet ran %d tasks before the error, want 2", ran.Load())
			}
			continue
		}
		tp, ok := rec.(TaskPanic)
		if !ok {
			t.Fatalf("workers=%d: recovered %T (%v), want TaskPanic", workers, rec, rec)
		}
		if tp.Task != 5 || tp.Value != "boom 5" {
			t.Errorf("workers=%d: TaskPanic{%d, %v}, want task 5 (panic beats the task-1 error)", workers, tp.Task, tp.Value)
		}
		if len(tp.Stack) == 0 {
			t.Errorf("workers=%d: TaskPanic without a captured stack", workers)
		}
		if ran.Load() != 12 {
			t.Errorf("workers=%d: %d of 12 tasks ran before the re-panic", workers, ran.Load())
		}
	}
}

func TestStreamOnClosedFleetPanics(t *testing.T) {
	f := NewFleet(2)
	// Force the goroutines up so Close exercises the full path.
	if err := ForEachOn(f, 4, func(i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	f.Close()
	f.Close() // idempotent
	defer func() {
		if recover() == nil {
			t.Error("Stream on a closed fleet did not panic")
		}
	}()
	_ = ForEachOn(f, 1, func(i int) error { return nil })
}

func TestStreamZeroTasks(t *testing.T) {
	f := NewFleet(4)
	defer f.Close()
	called := false
	err := Stream(f, 0, 0, nil,
		func(w int) (struct{}, error) { called = true; return struct{}{}, nil },
		func(_ struct{}, i int) error { called = true; return nil },
		func(i int) error { called = true; return nil })
	if err != nil || called {
		t.Fatalf("zero tasks: err=%v called=%v", err, called)
	}
}

func TestStreamObserverReportsParticipants(t *testing.T) {
	// Like Run, the fleet observer sees min(size, n) workers and per-worker
	// task counts summing to n.
	defer SetFleetObserver(nil)
	var gotWorkers int
	var gotTotal int
	SetFleetObserver(func(s StreamStats) {
		gotWorkers = s.Workers
		gotTotal = 0
		for _, c := range s.TasksPerWorker {
			gotTotal += c
		}
	})
	f := NewFleet(8)
	defer f.Close()
	if err := ForEachOn(f, 3, func(i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if gotWorkers != 3 || gotTotal != 3 {
		t.Errorf("observer saw %d workers / %d tasks, want 3/3", gotWorkers, gotTotal)
	}
}

// taskValue is the deterministic per-task "measurement" the equivalence
// properties compare across schedulers: depends only on the task index and
// a seed, never on worker identity or execution order.
func taskValue(seed int64, i int) float64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x%1_000_003) / 1_000_003
}

// TestFleetMatchesRunProperty is the scheduler-equivalence invariant suite:
// for random task counts, worker counts, run-ahead windows and memo-cache
// configurations, Stream on a persistent fleet produces bit-identical
// results, identical in-order merge sequences and identical cache
// accounting to the legacy Run barrier followed by a serial merge loop.
func TestFleetMatchesRunProperty(t *testing.T) {
	proptest.Check(t, 40, func(pt *proptest.T) {
		n := pt.IntRange(0, 60)
		workers := proptest.Pick(pt, []int{1, 2, 8})
		window := proptest.Pick(pt, []int{0, 1, 3, 7})
		useCache := pt.Bool()
		seed := pt.Int64Range(1, 1<<40)
		stages := pt.IntRange(1, 3)
		pt.Logf("n=%d workers=%d window=%d cache=%v seed=%d stages=%d",
			n, workers, window, useCache, seed, stages)

		// Reference: legacy Run (batch barrier), then a serial merge loop.
		runMerged := make([][]float64, stages)
		var runCacheHits, runCacheMiss int64
		{
			var cache *MemoCache
			if useCache {
				cache = NewMemoCache()
			}
			for s := 0; s < stages; s++ {
				vals := make([]float64, n)
				resolved := make([]bool, n)
				if cache != nil {
					for i := 0; i < n; i++ {
						// Key collisions across stages are intentional: stage
						// s>0 re-resolves stage 0's keys as hits.
						if v, ok := cache.Get(uint64(i)); ok {
							vals[i], resolved[i] = v, true
						}
					}
				}
				err := Run(n, workers,
					func(w int) (struct{}, error) { return struct{}{}, nil },
					func(_ struct{}, i int) error {
						if !resolved[i] {
							vals[i] = taskValue(seed, i)
						}
						return nil
					})
				if err != nil {
					pt.Fatalf("Run: %v", err)
				}
				for i := 0; i < n; i++ {
					if cache != nil && !resolved[i] {
						cache.Put(uint64(i), vals[i])
					}
					runMerged[s] = append(runMerged[s], vals[i])
				}
			}
			if cache != nil {
				runCacheHits, runCacheMiss = cache.Hits(), cache.Misses()
			}
		}

		// Fleet: persistent workers across stages, pre-dispatch cache
		// resolve, streamed in-order merge.
		fleetMerged := make([][]float64, stages)
		var fleetCacheHits, fleetCacheMiss int64
		{
			var cache *MemoCache
			if useCache {
				cache = NewMemoCache()
			}
			f := NewFleet(workers)
			for s := 0; s < stages; s++ {
				vals := make([]float64, n)
				resolved := make([]bool, n)
				if cache != nil {
					for i := 0; i < n; i++ {
						vals[i], resolved[i] = cache.Get(uint64(i))
					}
				}
				err := Stream(f, n, window, nil,
					func(w int) (struct{}, error) { return struct{}{}, nil },
					func(_ struct{}, i int) error {
						if !resolved[i] {
							vals[i] = taskValue(seed, i)
						}
						return nil
					},
					func(i int) error {
						if cache != nil && !resolved[i] {
							cache.Put(uint64(i), vals[i])
						}
						fleetMerged[s] = append(fleetMerged[s], vals[i])
						return nil
					})
				if err != nil {
					pt.Fatalf("Stream: %v", err)
				}
			}
			f.Close()
			if cache != nil {
				fleetCacheHits, fleetCacheMiss = cache.Hits(), cache.Misses()
			}
		}

		for s := 0; s < stages; s++ {
			if len(runMerged[s]) != len(fleetMerged[s]) {
				pt.Fatalf("stage %d: merge lengths %d vs %d", s, len(runMerged[s]), len(fleetMerged[s]))
			}
			for i := range runMerged[s] {
				if runMerged[s][i] != fleetMerged[s][i] {
					pt.Fatalf("stage %d merge[%d]: run %g, fleet %g", s, i, runMerged[s][i], fleetMerged[s][i])
				}
			}
		}
		if runCacheHits != fleetCacheHits || runCacheMiss != fleetCacheMiss {
			pt.Fatalf("cache accounting: run %d/%d, fleet %d/%d",
				runCacheHits, runCacheMiss, fleetCacheHits, fleetCacheMiss)
		}
	})
}
