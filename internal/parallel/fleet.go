package parallel

import (
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Fleet is a persistent deterministic worker pool: the goroutines are
// created once and survive across any number of execution stages, so
// worker-owned resources (forked tester insertions, scratch arenas) that a
// caller memoizes by worker index are constructed once per run instead of
// once per batch. Stages run through Stream/RunOn/ForEachOn with the same
// determinism contract as Run — index-addressed results, per-task seeds,
// bit-identical output at any worker count — plus strictly in-order result
// delivery while later tasks are still executing, which is what lets batch
// barriers (per GA generation, per shmoo test, per lot window) become a
// pipeline.
//
// Worker index w is always served by the same goroutine, so a resource a
// caller memoizes under index w is never touched by two goroutines, even
// across stages. A fleet runs one stage at a time (concurrent Stream calls
// serialize); a task must never start a stage on its own fleet — use a
// separate fleet for nested parallelism.
type Fleet struct {
	nw int

	mu      sync.Mutex // guards start/close state
	chans   []chan *stage
	wg      sync.WaitGroup
	started bool
	closed  bool

	streamMu sync.Mutex // one stage in flight at a time
}

// NewFleet creates a fleet with Workers(workers) persistent workers. The
// worker goroutines spawn lazily on the first multi-worker stage; a fleet
// sized 1 never spawns any and executes every stage inline on the calling
// goroutine, exactly like Run with one worker. Close releases the
// goroutines when the run is over.
func NewFleet(workers int) *Fleet {
	return &Fleet{nw: Workers(workers)}
}

// Size returns the worker count.
func (f *Fleet) Size() int { return f.nw }

// Close shuts the worker goroutines down and waits for them to exit.
// Idempotent. A closed fleet must not be streamed on again.
func (f *Fleet) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	if f.started {
		for _, ch := range f.chans {
			close(ch)
		}
	}
	f.wg.Wait()
}

// start spawns the persistent workers (called with f.mu held).
func (f *Fleet) start() {
	f.chans = make([]chan *stage, f.nw)
	for w := 0; w < f.nw; w++ {
		// Buffer 1: a stage is fully drained before Stream returns, so the
		// next stage's broadcast never blocks on a busy worker.
		ch := make(chan *stage, 1)
		f.chans[w] = ch
		f.wg.Add(1)
		go func(w int, ch chan *stage) {
			defer f.wg.Done()
			for st := range ch {
				st.work(w)
			}
		}(w, ch)
	}
	f.started = true
}

// StreamStats is the scheduling summary of one fleet stage, reported to the
// fleet observer. Everything here depends on goroutine scheduling and
// wall-clock time, so consumers must quarantine it with the other
// non-deterministic diagnostics (nd_ metrics); task results are
// bit-identical regardless.
type StreamStats struct {
	Workers int // workers that participated in the stage
	Tasks   int
	// TasksPerWorker[w] is how many tasks worker w ran.
	TasksPerWorker []int
	// MaxRunAhead is the high-water mark of claimed-but-undelivered tasks —
	// the observed pipeline queue depth.
	MaxRunAhead int
	// BusyNanos is the summed task execution time across workers; WallNanos
	// is the stage's wall time. BusyNanos/(Workers*WallNanos) is the worker
	// utilization.
	BusyNanos int64
	WallNanos int64
	// DeliverNanos is the time spent inside the in-order deliver callback;
	// OverlapNanos is the portion of it during which at least one task was
	// still executing — the pipeline overlap a batch barrier would have
	// serialized.
	DeliverNanos int64
	OverlapNanos int64
}

// Utilization returns the mean busy fraction of the stage's workers.
func (s StreamStats) Utilization() float64 {
	if s.Workers <= 0 || s.WallNanos <= 0 {
		return 0
	}
	return float64(s.BusyNanos) / (float64(s.Workers) * float64(s.WallNanos))
}

// OverlapRatio returns the fraction of delivery time that overlapped task
// execution (0 when nothing was delivered).
func (s StreamStats) OverlapRatio() float64 {
	if s.DeliverNanos <= 0 {
		return 0
	}
	return float64(s.OverlapNanos) / float64(s.DeliverNanos)
}

// FleetObserver receives the scheduling summary of every completed fleet
// stage.
type FleetObserver func(StreamStats)

var fleetObserver atomic.Pointer[FleetObserver]

// SetFleetObserver installs the process-wide fleet observer (nil
// uninstalls). It is meant for top-level run instrumentation (CLI
// telemetry), not libraries: there is one slot, and tests that run fleets
// concurrently should leave it unset. The observer is invoked after the
// stage's workers have finished, on the calling goroutine.
func SetFleetObserver(fn FleetObserver) {
	if fn == nil {
		fleetObserver.Store(nil)
		return
	}
	fleetObserver.Store(&fn)
}

// stage is one Stream execution: tasks 0..n-1 claimed in index order by the
// participating workers as their items are produced, completion flags
// signalled to the delivering caller, and a run-ahead gate that keeps
// production and claims within window of the delivery floor.
type stage struct {
	n       int
	window  int
	workers int // participants: min(fleet size, n)

	init func(w int) error // constructs/fetches worker w's resource
	run  func(w, i int)    // executes task i on worker w's resource

	mu       sync.Mutex
	cond     sync.Cond
	next     int  // next unclaimed task index
	avail    int  // items produced so far; claims stay below it
	fed      bool // production is over (finished or failed at index avail)
	floor    int  // tasks delivered so far; gates claims when window > 0
	open     bool // lifted gate: drain without waiting on delivery
	failures int  // workers whose init failed
	maxAhead int  // high-water of next-floor (queue depth)
	done     []uint8

	timed    bool // collect wall-clock stats for the fleet observer
	inFlight atomic.Int32
	busy     atomic.Int64

	wg sync.WaitGroup
}

// work is one worker's participation in a stage.
func (st *stage) work(w int) {
	defer st.wg.Done()
	if w >= st.workers {
		return
	}
	if err := st.init(w); err != nil {
		st.mu.Lock()
		st.failures++
		st.cond.Broadcast()
		st.mu.Unlock()
		return
	}
	for {
		st.mu.Lock()
		for st.claimBlocked() {
			st.cond.Wait()
		}
		i := st.next
		if i >= st.avail { // fed: nothing more will be produced
			st.mu.Unlock()
			return
		}
		st.next++
		if ahead := st.next - st.floor; ahead > st.maxAhead {
			st.maxAhead = ahead
		}
		st.mu.Unlock()
		if st.timed {
			st.inFlight.Add(1)
			t0 := time.Now()
			st.run(w, i)
			st.busy.Add(int64(time.Since(t0)))
			st.inFlight.Add(-1)
		} else {
			st.run(w, i)
		}
		st.mu.Lock()
		st.done[i] = 1
		st.cond.Broadcast()
		st.mu.Unlock()
	}
}

// claimBlocked reports whether the next claim must wait: for its item to be
// produced, or for delivery to catch up with the run-ahead window (called
// with st.mu held).
func (st *stage) claimBlocked() bool {
	if st.next >= st.avail {
		return !st.fed
	}
	return st.gated(st.next)
}

// gated reports whether index i lies beyond the run-ahead window (called
// with st.mu held).
func (st *stage) gated(i int) bool {
	return !st.open && st.window > 0 && i >= st.floor+st.window
}

// feed is the producer goroutine: it makes items 0..n-1 in index order,
// publishing each one for claiming as soon as it exists. A failed item i
// takes task i's slot — its error or panic is reported under index i, and
// no later item is produced — so the stage's lowest-index rules treat it
// exactly like a failing task.
func (st *stage) feed(produce func(i int) error, panics []any, stacks [][]byte, taskErrs []error) {
	defer st.wg.Done()
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := 0; i < st.n; i++ {
		for st.gated(i) {
			st.cond.Wait()
		}
		st.mu.Unlock()
		err := runProduce(produce, i, panics, stacks)
		st.mu.Lock()
		if err != nil || panics[i] != nil {
			taskErrs[i] = err
			st.done[i] = 1
			break
		}
		st.avail = i + 1
		st.cond.Broadcast()
	}
	st.fed = true
	st.cond.Broadcast()
}

// Stream executes tasks 0..n-1 on the fleet and delivers their results
// strictly in index order while later tasks are still executing. Each
// participating worker obtains its resource via newWorker (memoize by
// worker index for resources that should persist across stages); task runs
// out of order into index-addressed slots; deliver (nil to skip) is invoked
// on the calling goroutine for i = 0, 1, 2, … as soon as task i and every
// task before it have finished, so serial merge work (stats accumulation,
// memo-cache inserts, telemetry emission) overlaps the remaining execution
// instead of waiting behind a batch barrier. Deliveries — and therefore
// every side effect of the merge — happen in the same order at any worker
// count.
//
// window bounds how far execution may run ahead of delivery: task i is not
// claimed until task i−window has been delivered, so at most window tasks
// are claimed-but-undelivered at once. Values below 1 remove the bound. The
// window never changes results — only peak buffered work — and belongs to
// the stage, so a memory-bounded pipeline and an unbounded one can share a
// fleet.
//
// produce, when non-nil, makes the stage's input: produce(i) is called
// exactly once per index, in index order, on a goroutine of its own, and
// task i becomes claimable as soon as produce(i) has returned — so a
// serial producer (a random generator, a GA breeding loop) overlaps the
// workers instead of filling the whole batch before the fleet may start.
// The window gates production like claims (item i is not produced until
// task i−window has been delivered). Stream returns only after the
// producer has finished, so state it mutates is quiescent again when the
// caller resumes. With one worker nothing is spawned: produce(i), task i
// and deliver(i) run inline in that order. A nil produce means the items
// already exist.
//
// Error semantics mirror Run: every task still runs when some fail
// (delivery stops at the first failed index, and with one worker the tasks
// after an error are skipped, exactly like Run's inline path); the
// lowest-index task panic is re-panicked as a TaskPanic after the stage
// drains; otherwise the lowest-worker construction error, then the
// lowest-index task error, then the first deliver error is returned. A
// producer error or panic at index i counts as task i's and ends
// production there: tasks below i still run, none above it exists.
func Stream[W any](f *Fleet, n, window int, produce func(i int) error, newWorker func(w int) (W, error), task func(wk W, i int) error, deliver func(i int) error) error {
	if n <= 0 {
		return nil
	}
	f.streamMu.Lock()
	defer f.streamMu.Unlock()

	fobs := fleetObserver.Load()
	var wallStart time.Time
	if fobs != nil {
		wallStart = time.Now()
	}

	panics := make([]any, n)
	stacks := make([][]byte, n)
	taskErrs := make([]error, n)

	if f.nw == 1 {
		// Inline path: no goroutines, tasks and deliveries interleave in
		// index order on the calling goroutine (Run's single-worker
		// semantics: stop at the first panic or error).
		wk, err := newWorker(0)
		if err != nil {
			return err
		}
		var deliverErr error
		for i := 0; i < n; i++ {
			if produce != nil {
				err := runProduce(produce, i, panics, stacks)
				if panics[i] != nil {
					panic(TaskPanic{Task: i, Value: panics[i], Stack: stacks[i]})
				}
				if err != nil {
					return err
				}
			}
			err := runStreamTask(wk, i, task, panics, stacks)
			if panics[i] != nil {
				panic(TaskPanic{Task: i, Value: panics[i], Stack: stacks[i]})
			}
			if err != nil {
				return err
			}
			if deliver != nil {
				if deliverErr = deliver(i); deliverErr != nil {
					return deliverErr
				}
			}
		}
		if fobs != nil {
			wall := int64(time.Since(wallStart))
			(*fobs)(StreamStats{Workers: 1, Tasks: n, TasksPerWorker: []int{n},
				MaxRunAhead: 1, BusyNanos: wall, WallNanos: wall})
		}
		return nil
	}

	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		panic("parallel: Stream on a closed Fleet")
	}
	if !f.started {
		f.start()
	}
	f.mu.Unlock()

	np := f.nw
	if np > n {
		np = n
	}
	res := make([]W, np)
	resInit := make([]bool, np)
	workerErrs := make([]error, np)
	var taskCounts []int
	if fobs != nil {
		taskCounts = make([]int, np)
	}

	st := &stage{n: n, window: window, workers: np, timed: fobs != nil, done: make([]uint8, n)}
	st.cond.L = &st.mu
	if produce == nil {
		st.avail, st.fed = n, true
	}
	st.init = func(w int) error {
		if !resInit[w] {
			wk, err := newWorker(w)
			if err != nil {
				workerErrs[w] = err
				return err
			}
			res[w] = wk
			resInit[w] = true
		}
		return nil
	}
	st.run = func(w, i int) {
		if taskCounts != nil {
			taskCounts[w]++
		}
		taskErrs[i] = runStreamTask(res[w], i, task, panics, stacks)
	}

	st.wg.Add(f.nw)
	if produce != nil {
		st.wg.Add(1)
		go st.feed(produce, panics, stacks, taskErrs)
	}
	for _, ch := range f.chans {
		ch <- st
	}

	// In-order delivery while the workers keep executing. Stops at the
	// first failed index (or deliver error); the gate is then opened so the
	// drain never stalls on the frozen floor.
	var deliverErr error
	var deliverNanos, overlapNanos int64
	st.mu.Lock()
	for i := 0; i < n; i++ {
		for st.done[i] == 0 && st.failures < st.workers {
			st.cond.Wait()
		}
		if st.done[i] == 0 { // every worker failed construction; nothing ran
			break
		}
		if panics[i] != nil || taskErrs[i] != nil {
			break
		}
		if deliver != nil {
			st.mu.Unlock()
			if st.timed {
				executing := st.inFlight.Load() > 0
				t0 := time.Now()
				deliverErr = deliver(i)
				d := int64(time.Since(t0))
				deliverNanos += d
				if executing {
					overlapNanos += d
				}
			} else {
				deliverErr = deliver(i)
			}
			st.mu.Lock()
			if deliverErr != nil {
				break
			}
		}
		st.floor = i + 1
		st.cond.Broadcast()
	}
	st.open = true
	st.cond.Broadcast()
	st.mu.Unlock()
	st.wg.Wait()

	for i, r := range panics {
		if r != nil {
			panic(TaskPanic{Task: i, Value: r, Stack: stacks[i]})
		}
	}
	if fobs != nil {
		(*fobs)(StreamStats{
			Workers:        np,
			Tasks:          n,
			TasksPerWorker: taskCounts,
			MaxRunAhead:    st.maxAhead,
			BusyNanos:      st.busy.Load(),
			WallNanos:      int64(time.Since(wallStart)),
			DeliverNanos:   deliverNanos,
			OverlapNanos:   overlapNanos,
		})
	}
	for _, err := range workerErrs {
		if err != nil {
			return err
		}
	}
	for _, err := range taskErrs {
		if err != nil {
			return err
		}
	}
	return deliverErr
}

// runStreamTask executes one task with panic capture (shared by the inline
// and fleet paths).
func runStreamTask[W any](wk W, i int, task func(wk W, i int) error, panics []any, stacks [][]byte) (err error) {
	defer func() {
		if r := recover(); r != nil {
			panics[i] = r
			stacks[i] = debug.Stack()
		}
	}()
	return task(wk, i)
}

// runProduce makes item i with panic capture; a panic lands in task i's
// slot, where the stage's lowest-index rules find it.
func runProduce(produce func(i int) error, i int, panics []any, stacks [][]byte) (err error) {
	defer func() {
		if r := recover(); r != nil {
			panics[i] = r
			stacks[i] = debug.Stack()
		}
	}()
	return produce(i)
}

// RunOn executes tasks 0..n-1 on the fleet with no delivery callback — the
// persistent-pool form of Run.
func RunOn[W any](f *Fleet, n int, newWorker func(w int) (W, error), task func(wk W, i int) error) error {
	return Stream(f, n, 0, nil, newWorker, task, nil)
}

// ForEachOn runs fn(i) for every i in [0, n) on the fleet, for tasks that
// need no worker-owned resource.
func ForEachOn(f *Fleet, n int, fn func(i int) error) error {
	return Stream(f, n, 0, nil, func(int) (struct{}, error) { return struct{}{}, nil },
		func(_ struct{}, i int) error { return fn(i) }, nil)
}
