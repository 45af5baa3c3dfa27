// Package genetic implements the paper's test-optimization GA (§5, fig. 5;
// §6): an evolutionary search over two chromosome types — vector test
// sequences and test conditions — run as multiple co-evolving island
// populations. Fitness is a real trip-point measurement delivered by an
// Evaluator (the ATE with the Search-Until-Trip-Point method), expressed as
// the Worst Case Ratio so "the worst case tests are given by the largest
// values of WCR". Stagnating populations restart from scratch, and the best
// tests of every era accumulate in the caller's worst-case database.
package genetic

import (
	"repro/internal/testgen"
)

// Individual is one GA candidate: the pairing of a sequence chromosome with
// a conditions chromosome, plus its measured fitness.
type Individual struct {
	Seq  testgen.Sequence
	Cond testgen.Conditions

	Fitness   float64
	Evaluated bool

	// ID is a unique identifier assigned at creation, stable across
	// sorting, used to name the test on the ATE (pattern reload caching)
	// and in reports.
	ID int
}

// Test materializes the individual as a runnable characterization test.
func (ind *Individual) Test() testgen.Test {
	return testgen.Test{
		Name: testgen.SerialName("GA-", ind.ID, 6),
		Seq:  ind.Seq,
		Cond: ind.Cond,
	}
}

// Clone deep-copies the individual (fitness and ID are reset by the
// caller when appropriate).
func (ind *Individual) Clone() *Individual {
	return &Individual{
		Seq:       ind.Seq.Clone(),
		Cond:      ind.Cond,
		Fitness:   ind.Fitness,
		Evaluated: ind.Evaluated,
		ID:        ind.ID,
	}
}

// Evaluator measures the fitness of a candidate test. The characterization
// flow wires this to an ATE trip-point measurement mapped through the WCR;
// unit tests wire synthetic surfaces.
type Evaluator interface {
	Fitness(t testgen.Test) (float64, error)
}

// BatchEvaluator is an Evaluator that measures a whole generation's worth
// of tests in one streamed call. When the optimizer's evaluator implements
// it, every individual of a generation — all islands, island-major — goes
// through a single FitnessStream call, which is where the parallel
// measurement engine fans the tests across workers while the optimizer is
// still breeding the rest of the generation.
//
// FitnessStream measures tests 0..n-1 and returns one fitness per test,
// index-aligned. next(i) yields test i: the implementation calls it exactly
// once per index, in index order, possibly on a goroutine of its own and
// concurrently with measuring earlier tests, and every call has returned
// before FitnessStream does. After an error, next may not have been called
// for every index. The fitnesses must not depend on how the implementation
// schedules the measurements.
type BatchEvaluator interface {
	Evaluator
	FitnessStream(n int, next func(i int) testgen.Test) ([]float64, error)
}

// EvaluatorFunc adapts a function to the Evaluator interface.
type EvaluatorFunc func(t testgen.Test) (float64, error)

// Fitness implements Evaluator.
func (f EvaluatorFunc) Fitness(t testgen.Test) (float64, error) { return f(t) }

// Seed is an unevaluated candidate injected into the initial population —
// the sub-optimal worst-case tests the fuzzy-neural test generator selects
// from its weight file (fig. 5 step 1).
type Seed struct {
	Seq  testgen.Sequence
	Cond testgen.Conditions
}
