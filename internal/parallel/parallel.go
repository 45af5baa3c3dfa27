// Package parallel is the shared deterministic parallel-execution substrate
// of the characterization system. Every hot loop that fans measurement or
// training work across goroutines — GA fitness batches, ensemble member
// training, shmoo sweeps, lot screens, Table-1 replication — runs on the
// bounded worker pool defined here.
//
// The determinism contract: work is identified by a task index, results are
// written into index-addressed slots, and any per-task randomness derives
// from a seed of the form baseSeed + taskIndex. Worker-owned resources
// (forked tester insertions) are rewound to a task-hermetic state at the
// start of every task, so the output is bit-identical regardless of the
// worker count or the scheduling order — workers == 1 executes the very
// same task code inline, without spawning goroutines.
package parallel

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// Observer receives a post-run summary of one pool execution: the number of
// workers started and how many tasks each processed. The split of tasks
// across workers depends on goroutine scheduling, so observers must treat
// the data as diagnostic (telemetry reports file it under their
// non-deterministic section); the task *results* remain bit-identical
// regardless. Observers are invoked after all workers have finished, on the
// calling goroutine.
type Observer func(workers int, tasksPerWorker []int)

var observer atomic.Pointer[Observer]

// SetObserver installs the process-wide pool observer (nil uninstalls).
// Intended for top-level run instrumentation (CLI telemetry), not
// libraries: there is one slot, and tests that run pools concurrently
// should leave it unset.
func SetObserver(fn Observer) {
	if fn == nil {
		observer.Store(nil)
		return
	}
	observer.Store(&fn)
}

// Workers resolves a parallelism knob: values below 1 select one worker per
// available CPU (runtime.GOMAXPROCS), anything else is taken literally.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Bound resolves the knob and caps it at the task count, returning the
// number of workers Run will actually start.
func Bound(workers, tasks int) int {
	w := Workers(workers)
	if w > tasks {
		w = tasks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// TaskPanic is the value Run re-panics with when a task function panics:
// the original panic value plus the index of the panicking task. The
// lowest-index panic wins regardless of the worker count or scheduling, so
// a crash reproduces identically under -parallel 1 and -parallel N.
type TaskPanic struct {
	Task  int
	Value any
	// Stack is the panicking goroutine's stack captured at recover time —
	// the pool re-panics from its own frame after the batch drains, so
	// without this the original crash site would be lost. Diagnostic only
	// (addresses and goroutine IDs vary run to run); crash bundles file it
	// with the other nondeterministic artifacts.
	Stack []byte
}

// Error makes a TaskPanic readable when it escapes to a crash report or is
// recovered into an error path.
func (p TaskPanic) Error() string {
	return fmt.Sprintf("parallel: task %d panicked: %v", p.Task, p.Value)
}

// Unwrap exposes a task panic whose value already was an error.
func (p TaskPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// Run executes tasks 0..n-1 across at most Bound(workers, n) goroutines.
// Each worker constructs its private resource once via newWorker (a forked
// tester insertion, a scratch buffer, …) and then pulls task indices from a
// shared counter. Task functions must write their outputs into slots
// addressed by the task index and must not touch another worker's resource.
//
// Every task runs even when some fail; afterwards the lowest-index task
// error (or, before that, the lowest-worker construction error) is
// returned, so the reported error does not depend on scheduling. With one
// worker the tasks run inline on the calling goroutine in index order.
//
// A panicking task does not tear down the pool mid-flight (which would
// kill the process from a worker goroutine and leave sibling workers
// racing): the panic is caught, the remaining tasks still run, and Run
// re-panics with a TaskPanic carrying the lowest panicking task index and
// its original panic value.
//
// Run is the one-shot compatibility form of the persistent Fleet: it
// executes the batch on a transient fleet sized Bound(workers, n) that is
// closed when the batch drains. Phase engines that fan out repeatedly
// should hold a Fleet and use Stream/RunOn/ForEachOn so worker resources
// survive between batches.
func Run[W any](n, workers int, newWorker func(w int) (W, error), task func(wk W, i int) error) error {
	if n <= 0 {
		return nil
	}
	f := NewFleet(Bound(workers, n))
	defer f.Close()
	return Stream(f, n, 0, newWorker, task, nil)
}

// ForEach runs fn(i) for every i in [0, n) on the bounded pool, for tasks
// that need no worker-owned resource. The same determinism contract as Run
// applies.
func ForEach(n, workers int, fn func(i int) error) error {
	return Run(n, workers, func(int) (struct{}, error) { return struct{}{}, nil },
		func(_ struct{}, i int) error { return fn(i) })
}
