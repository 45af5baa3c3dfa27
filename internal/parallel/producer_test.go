package parallel

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/proptest"
)

// streamOutcome is everything a caller can observe of one stage: the task
// results, the delivery sequence and the chosen error or panic.
type streamOutcome struct {
	results   []float64
	delivered []int
	verdict   string
}

// catchStream runs one stage and renders its error or TaskPanic.
func catchStream(run func() error) (verdict string) {
	defer func() {
		if r := recover(); r != nil {
			tp, ok := r.(TaskPanic)
			if !ok {
				verdict = fmt.Sprintf("foreign panic %v", r)
				return
			}
			verdict = fmt.Sprintf("panic task %d: %v", tp.Task, tp.Value)
		}
	}()
	if err := run(); err != nil {
		return "error " + err.Error()
	}
	return "ok"
}

// jitter sleeps a pseudo-random few microseconds derived from (seed, i), so
// producer and tasks interleave differently from case to case.
func jitter(seed int64, i, salt int) {
	if d := int(taskValue(seed+int64(salt), i) * 40); d > 20 {
		time.Sleep(time.Duration(d-20) * time.Microsecond)
	}
}

// TestStreamProducerMatchesPreProducedProperty pins the producer form of
// Stream to the same tasks run over a pre-produced slice: for fleet sizes
// 1/2/8 × windows 0/1/3/n, random producer and task delays, and a producer
// error or panic and a task error at random indices, the results, the
// delivery order and the chosen error or panic are identical. produce runs
// exactly once per index, in order, never further than the window ahead of
// delivery while delivery lasts, and has returned before Stream does.
func TestStreamProducerMatchesPreProducedProperty(t *testing.T) {
	proptest.Check(t, 25, func(pt *proptest.T) {
		n := pt.IntRange(1, 40)
		seed := pt.Int64Range(1, 1<<40)
		prodFault := -1 // index the producer fails at
		prodPanics := pt.Bool()
		if pt.Bool() {
			prodFault = pt.IntRange(0, n-1)
		}
		taskFault := -1
		if pt.Bool() {
			taskFault = pt.IntRange(0, n-1)
		}
		pt.Logf("n=%d seed=%d producer fault=%d (panic=%v) task fault=%d", n, seed, prodFault, prodPanics, taskFault)

		failProduce := func(i int) error {
			if prodPanics {
				panic(fmt.Sprintf("produce %d panicked", i))
			}
			return fmt.Errorf("produce %d failed", i)
		}
		// The stage under test and the reference share this task: it reads
		// its item, so a task that ran before its item existed would
		// compute a different value.
		task := func(items []float64, results []float64) func(struct{}, int) error {
			return func(_ struct{}, i int) error {
				jitter(seed, i, 1)
				if i == taskFault {
					return fmt.Errorf("task %d failed", i)
				}
				results[i] = items[i]*3 + 1
				return nil
			}
		}
		noResource := func(int) (struct{}, error) { return struct{}{}, nil }

		for _, workers := range []int{1, 2, 8} {
			for _, window := range []int{0, 1, 3, n} {
				// Reference: produce up front (stopping at the producer
				// fault), then stream the pre-produced items; the failed item
				// is task k's failure.
				var ref streamOutcome
				{
					m := n
					if prodFault >= 0 {
						m = prodFault + 1
					}
					items := make([]float64, m)
					for i := 0; i < m && i != prodFault; i++ {
						items[i] = taskValue(seed, i)
					}
					ref.results = make([]float64, n)
					inner := task(items, ref.results)
					f := NewFleet(workers)
					ref.verdict = catchStream(func() error {
						return Stream(f, m, window, nil, noResource, func(wk struct{}, i int) error {
							if i == prodFault {
								return failProduce(i)
							}
							return inner(wk, i)
						}, func(i int) error {
							ref.delivered = append(ref.delivered, i)
							return nil
						})
					})
					f.Close()
				}

				var got streamOutcome
				var calls []int
				var returned, delivered atomic.Int32
				{
					items := make([]float64, n)
					got.results = make([]float64, n)
					f := NewFleet(workers)
					got.verdict = catchStream(func() error {
						return Stream(f, n, window, func(i int) error {
							calls = append(calls, i)
							defer returned.Add(1)
							// The window gates production until a failed task
							// stops delivery and lifts the gate.
							if window > 0 && taskFault < 0 && i >= int(delivered.Load())+window {
								pt.Errorf("workers=%d window=%d: item %d produced with only %d delivered", workers, window, i, delivered.Load())
							}
							jitter(seed, i, 2)
							if i == prodFault {
								return failProduce(i)
							}
							items[i] = taskValue(seed, i)
							return nil
						}, noResource, task(items, got.results), func(i int) error {
							got.delivered = append(got.delivered, i)
							delivered.Add(1)
							return nil
						})
					})
					f.Close()
				}

				label := fmt.Sprintf("workers=%d window=%d", workers, window)
				if got.verdict != ref.verdict {
					pt.Fatalf("%s: verdict %q, pre-produced %q", label, got.verdict, ref.verdict)
				}
				if fmt.Sprint(got.delivered) != fmt.Sprint(ref.delivered) {
					pt.Fatalf("%s: delivered %v, pre-produced %v", label, got.delivered, ref.delivered)
				}
				for i := range ref.results {
					if got.results[i] != ref.results[i] {
						pt.Fatalf("%s: result[%d] = %v, pre-produced %v", label, i, got.results[i], ref.results[i])
					}
				}
				// Production is a prefix of the indices, each once and in
				// order: all n unless the producer failed, or — inline — the
				// first failure stopped the stage.
				want := n
				if prodFault >= 0 {
					want = prodFault + 1
				}
				if workers == 1 && taskFault >= 0 && taskFault+1 < want {
					want = taskFault + 1
				}
				if len(calls) != want {
					pt.Fatalf("%s: produce called %d times, want %d", label, len(calls), want)
				}
				for i, c := range calls {
					if c != i {
						pt.Fatalf("%s: produce calls out of order: %v", label, calls)
					}
				}
				if int(returned.Load()) != len(calls) {
					pt.Fatalf("%s: Stream returned with %d of %d produce calls still running", label, len(calls)-int(returned.Load()), len(calls))
				}
			}
		}
	})
}

// TestStreamProducerDeliverErrorDrainsProducer: a deliver error stops
// delivery, but the producer still finishes (so its state is quiescent)
// and the deliver error is what Stream returns.
func TestStreamProducerDeliverErrorDrainsProducer(t *testing.T) {
	for _, workers := range []int{2, 8} {
		for _, window := range []int{0, 2} {
			f := NewFleet(workers)
			var produced atomic.Int32
			stop := errors.New("deliver stop")
			err := Stream(f, 30, window, func(i int) error {
				produced.Add(1)
				return nil
			}, func(int) (struct{}, error) { return struct{}{}, nil },
				func(struct{}, int) error { return nil },
				func(i int) error {
					if i == 4 {
						return stop
					}
					return nil
				})
			f.Close()
			if !errors.Is(err, stop) {
				t.Errorf("workers=%d window=%d: err %v, want the deliver error", workers, window, err)
			}
			if produced.Load() != 30 {
				t.Errorf("workers=%d window=%d: producer made %d of 30 items before Stream returned", workers, window, produced.Load())
			}
		}
	}
}

// TestStreamProducerAllocationsDoNotScaleWithTasks: the producer form
// allocates per stage, never per task.
func TestStreamProducerAllocationsDoNotScaleWithTasks(t *testing.T) {
	f := NewFleet(2)
	defer f.Close()
	produce := func(int) error { return nil }
	newWorker := func(int) (struct{}, error) { return struct{}{}, nil }
	task := func(struct{}, int) error { return nil }
	deliver := func(int) error { return nil }
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := Stream(f, n, 0, produce, newWorker, task, deliver); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(8), allocs(2048)
	if large > small+2 {
		t.Errorf("a 2048-task stage allocates %.0f times, an 8-task one %.0f: the producer form allocates per task", large, small)
	}
}

// TestStreamProducerFinishesWhenConstructionFails: with no worker to run
// a task, Stream still returns the construction error only after the
// producer has made every item, so nothing the producer touches is still
// in flight when the caller resumes.
func TestStreamProducerFinishesWhenConstructionFails(t *testing.T) {
	boom := errors.New("no insertion")
	for _, workers := range []int{2, 8} {
		f := NewFleet(workers)
		var produced atomic.Int32
		err := Stream(f, 20, 0, func(i int) error {
			time.Sleep(50 * time.Microsecond)
			produced.Add(1)
			return nil
		}, func(int) (struct{}, error) { return struct{}{}, boom },
			func(struct{}, int) error { return nil }, nil)
		got := produced.Load()
		f.Close()
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: err %v, want the construction error", workers, err)
		}
		if got != 20 {
			t.Errorf("workers=%d: Stream returned with %d of 20 items produced", workers, got)
		}
	}
}
