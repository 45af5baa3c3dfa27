package core

import (
	"fmt"
	"sync"

	"repro/internal/ate"
	"repro/internal/parallel"
	"repro/internal/search"
	"repro/internal/testgen"
	"repro/internal/wcr"
)

// parallelEvaluator measures GA fitness the way fig. 5 prescribes — "GA
// fitness = TPV measurement via ATE using equation (2), (3) and (4)" — but
// streams a whole generation over the flow's persistent fleet while the GA
// is still breeding it. The first measured test runs a full-range search
// and establishes the reference trip point (eq. 2, done serially); every
// later test costs only a handful of SUTP steps from that reference, on the
// worker's forked tester insertion.
//
// Determinism: measured task t (a global counter across batches) runs on
// an insertion reseeded with Seed + t, so its trip point depends only on
// the test and the counter — never on which worker ran it or in what
// order. Per-task cost counters are merged into the main tester in task
// order. The memo-cache is consulted as each child resolves and filled
// after the batch, keyed by the test's structural fingerprint (sequence +
// conditions; the flow is already scoped to one die and one parameter), so
// elites, migrants and duplicate individuals never burn ATE time twice.
type parallelEvaluator struct {
	c         *Characterizer
	opts      search.Options
	spec      float64
	specIsMin bool
	cache     *parallel.MemoCache // nil disables memoization

	rtp     float64
	haveRTP bool
	taskSeq int64 // measured-task counter across batches; drives seeds

	evaluations int64 // SUTP searches actually performed
	budget      int   // full-range search cost, the per-search baseline

	// The persistent pool and the per-worker insertions that survive
	// across generations (forked once, reseeded per task, so no generation
	// pays a fork).
	fleet      *parallel.Fleet
	insertions []*ate.ATE

	batch fitnessBatch
}

// fitnessBatch is the resolve state of one FitnessStream call, reused
// across generations. Children resolve strictly in index order (turn), so
// which child becomes a measured representative, and its task number, is
// the same at every worker count.
type fitnessBatch struct {
	mu   sync.Mutex
	cond sync.Cond
	turn int // the next child to resolve

	tests []testgen.Test // child i, as produced
	group []int          // child i's representative, or -1 for a memo hit
	// Per representative r: the child it is, its fingerprint, its search
	// outcome and cost, and (after delivery) its fitness.
	repChild []int
	repFP    []uint64
	results  []search.Result
	stats    []ate.Stats
	repVal   []float64
	reps     int
	groupOf  map[uint64]int // in-batch fingerprint → representative
}

// reset sizes the scratch for an n-child batch.
func (b *fitnessBatch) reset(n int) {
	if b.cond.L == nil {
		b.cond.L = &b.mu
		b.groupOf = make(map[uint64]int)
	}
	if cap(b.tests) < n {
		b.tests = make([]testgen.Test, n)
		b.group = make([]int, n)
		b.repChild = make([]int, n)
		b.repFP = make([]uint64, n)
		b.results = make([]search.Result, n)
		b.stats = make([]ate.Stats, n)
		b.repVal = make([]float64, n)
	}
	b.turn, b.reps = 0, 0
	clear(b.groupOf)
}

// awaitTurn locks b.mu and waits until child i is the next to resolve.
func (b *fitnessBatch) awaitTurn(i int) {
	b.mu.Lock()
	for b.turn != i {
		b.cond.Wait()
	}
}

// passTurn hands the turn to the next child and unlocks b.mu.
func (b *fitnessBatch) passTurn() {
	b.turn++
	b.cond.Broadcast()
	b.mu.Unlock()
}

func newParallelEvaluator(c *Characterizer) *parallelEvaluator {
	spec, isMin := c.cfg.Parameter.SpecValue()
	e := &parallelEvaluator{
		c:         c,
		opts:      c.searchOptions(),
		spec:      spec,
		specIsMin: isMin,
		fleet:     c.Fleet(),
	}
	e.insertions = make([]*ate.ATE, e.fleet.Size())
	e.budget = e.opts.FullRangeBudget()
	if !c.cfg.DisableMeasurementCache {
		e.cache = parallel.NewMemoCache()
		// Seed disk-recovered values (scope-bound to this exact flow, see
		// MemoCacheScope): primed tests are served without measuring, and
		// because the values equal what a cold run would measure, the GA
		// trajectory — and thus the results — stay bit-identical.
		for k, v := range c.primed {
			e.cache.Put(k, v)
		}
	}
	return e
}

// insertionFor returns worker w's persistent forked insertion, forking it
// on first use. Reseed makes each task hermetic, so reusing the insertion
// across batches is bit-identical to a fresh fork per task, and the
// device's execution scratch amortizes over every task it measures.
func (e *parallelEvaluator) insertionFor(w int) (*ate.ATE, error) {
	if e.insertions[w] == nil {
		wk, err := e.c.ate.Fork(e.c.cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("core: forking tester: %w", err)
		}
		e.insertions[w] = wk
	}
	return e.insertions[w], nil
}

// measureTask runs one hermetic trip-point search on the forked insertion:
// reseed, fresh SUTP anchored to the reference trip point rtp (when
// anchored), search. Returns the search result and the task's cost
// counters.
func (e *parallelEvaluator) measureTask(wk *ate.ATE, tt testgen.Test, seed int64, anchored bool, rtp float64) (search.Result, ate.Stats, error) {
	wk.Reseed(seed)
	s := &search.SUTP{SF: e.c.cfg.SearchFactor, Refine: true}
	if anchored {
		s.SetReference(rtp)
	}
	res, err := s.Search(wk.Measurer(e.c.cfg.Parameter, tt), e.opts)
	return res, wk.Stats(), err
}

// Fitness implements genetic.Evaluator for callers outside the batch path.
func (e *parallelEvaluator) Fitness(t testgen.Test) (float64, error) {
	fits, err := e.FitnessStream(1, func(int) testgen.Test { return t })
	if err != nil {
		return 0, err
	}
	return fits[0], nil
}

// FitnessStream implements genetic.BatchEvaluator as one fleet stage: the
// GA's next(i) is the stage's producer, so child i is fingerprinted and
// measured while the GA breeds child i+1. Each child resolves in index
// order: a memo-cache hit is taken as is, a fingerprint already seen in
// this batch makes the child a member of that representative's group, and
// anything else becomes the next representative, measured with seed
// Seed + taskSeq + its representative index. Lookups see only the
// pre-batch cache (results are inserted after the stage, in representative
// order), and with the cache disabled every child is its own
// representative — the no-cache baseline measures every individual.
//
// Representatives stay serial until the first converged full-range search
// sets the reference trip point: the child holds the resolve turn while it
// measures, so every parallelism level sees the identical reference.
func (e *parallelEvaluator) FitnessStream(n int, next func(i int) testgen.Test) ([]float64, error) {
	out := make([]float64, n)
	b := &e.batch
	b.reset(n)
	var hitsBefore, missBefore, droppedBefore int64
	if e.cache != nil {
		hitsBefore, missBefore, droppedBefore = e.cache.Hits(), e.cache.Misses(), e.cache.Dropped()
	}
	produce := func(i int) error {
		b.tests[i] = next(i)
		return nil
	}
	measure := func(wk *ate.ATE, i int) error { return e.resolveChild(wk, i, out) }
	// merge folds child i into the flow in strict child order: a
	// representative's cost counters (float-sum order must not depend on
	// the worker count), telemetry and fitness, a member's fan-out. It
	// rides the fleet's in-order delivery while later children are still
	// measuring.
	merge := func(i int) error {
		r := b.group[i]
		switch {
		case r < 0: // memo hit, resolved by the worker
		case b.repChild[r] == i:
			e.c.ate.AddStats(b.stats[r])
			res := b.results[r]
			e.c.tel().RecordSearch(res.Measurements, e.budget, res.Converged)
			// Non-converged searches still carry information: an all-fail
			// range means the trip point is beyond the pass-side end
			// (catastrophically bad, large WCR via the endpoint value); an
			// all-pass range means huge margin (small WCR).
			b.repVal[r] = wcr.For(res.TripPoint, e.spec, e.specIsMin)
			out[i] = b.repVal[r]
		default:
			out[i] = b.repVal[r]
		}
		return nil
	}
	err := parallel.Stream(e.fleet, n, 0, produce, e.insertionFor, measure, merge)
	clear(b.tests[:n])
	if err != nil {
		return nil, err
	}
	// The stage resolved every child in index order, so the cache deltas
	// and the insertion order below are deterministic regardless of the
	// worker count.
	if e.cache != nil {
		e.c.tel().RecordCacheLookups(e.cache.Hits()-hitsBefore, e.cache.Misses()-missBefore, e.budget)
		for r := 0; r < b.reps; r++ {
			e.cache.Put(b.repFP[r], b.repVal[r])
		}
		e.c.tel().RecordCacheDropped(e.cache.Dropped() - droppedBefore)
	}
	e.taskSeq += int64(b.reps)
	e.evaluations += int64(b.reps)
	return out, nil
}

// resolveChild is the stage task for child i: fingerprint and memo lookup
// (pure, so they run out of order), then the in-order resolve, then — for
// a representative — the measurement on worker insertion wk.
func (e *parallelEvaluator) resolveChild(wk *ate.ATE, i int, out []float64) error {
	b := &e.batch
	passed := false
	defer func() {
		if !passed {
			// Only a panic gets here: still pass the turn so the children
			// after i resolve and the stage drains.
			b.awaitTurn(i)
			b.passTurn()
		}
	}()
	tt := b.tests[i]
	fp := tt.Fingerprint()
	var v float64
	var hit bool
	if e.cache != nil {
		v, hit = e.cache.Get(fp)
	}

	b.awaitTurn(i)
	r := -1
	if g, dup := b.groupOf[fp]; hit {
		out[i], b.group[i] = v, -1
	} else if dup {
		b.group[i] = g
	} else {
		r = b.reps
		b.reps++
		b.group[i], b.repChild[r], b.repFP[r] = r, i, fp
		if e.cache != nil {
			b.groupOf[fp] = r
		}
	}
	if r < 0 {
		passed = true
		b.passTurn()
		return nil
	}
	anchored, rtp := e.haveRTP, e.rtp
	seed := e.c.cfg.Seed + e.taskSeq + int64(r)
	if anchored {
		passed = true
		b.passTurn()
	} else {
		b.mu.Unlock()
	}

	res, st, err := e.measureTask(wk, tt, seed, anchored, rtp)
	b.results[r], b.stats[r] = res, st
	if !anchored {
		// The serial reference search: the turn was held, so no later
		// child resolved before the reference is known.
		b.mu.Lock()
		if err == nil && res.Converged {
			e.rtp, e.haveRTP = res.TripPoint, true
		}
		passed = true
		b.passTurn()
	}
	if err != nil {
		return fmt.Errorf("core: evaluating %s: %w", tt.Name, err)
	}
	return nil
}

// cacheHits returns how many fitness lookups the memo-cache absorbed.
func (e *parallelEvaluator) cacheHits() int64 {
	if e.cache == nil {
		return 0
	}
	return e.cache.Hits()
}

// cacheMisses returns how many fitness lookups had to be measured.
func (e *parallelEvaluator) cacheMisses() int64 {
	if e.cache == nil {
		return e.evaluations
	}
	return e.cache.Misses()
}
