package genetic

import (
	"fmt"
	"sort"

	"repro/internal/testgen"
)

// Config parameterizes the optimizer.
type Config struct {
	// PopSize is the number of individuals per island population.
	PopSize int
	// Islands is the number of co-evolving populations ("evolving multiple
	// populations of different individuals over a number of generations").
	Islands int
	// Elite is the number of top individuals copied unchanged per
	// generation and island.
	Elite int
	// TournamentK is the selection tournament size.
	TournamentK int
	// CrossoverRate is the probability offspring come from recombination
	// rather than cloning a parent.
	CrossoverRate float64
	// MaxGenerations caps the total generations across all eras.
	MaxGenerations int
	// StagnationLimit restarts an island with a brand-new population after
	// this many generations without island-best improvement (fig. 5 step 4:
	// "Then go to (1) and a brand new population will start GA again").
	StagnationLimit int
	// TargetFitness stops the run early once the global best reaches it
	// ("until ... the worst case is detected based on worst case ratio
	// theorem"). Zero disables the target.
	TargetFitness float64
	// MigrateEvery exchanges the island bests in a ring every this many
	// generations. Zero disables migration.
	MigrateEvery int
	// FixedConditions pins every individual to the given conditions
	// (Table 1 is measured at Vdd 1.8 V); nil lets conditions evolve.
	FixedConditions *testgen.Conditions

	// OnGeneration, when non-nil, observes every completed generation:
	// the zero-based generation index and the global best fitness so far.
	// It runs on the serial generation loop after evaluation, so callers
	// may emit trace events from it without racing the fitness workers.
	OnGeneration func(gen int, bestFitness float64)
}

// DefaultConfig returns tuned defaults sized for the experiments.
func DefaultConfig() Config {
	return Config{
		PopSize:         24,
		Islands:         3,
		Elite:           2,
		TournamentK:     3,
		CrossoverRate:   0.85,
		MaxGenerations:  60,
		StagnationLimit: 8,
		MigrateEvery:    5,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.PopSize < 2 {
		return fmt.Errorf("genetic: population size %d too small", c.PopSize)
	}
	if c.Islands < 1 {
		return fmt.Errorf("genetic: need at least one island, got %d", c.Islands)
	}
	if c.Elite < 0 || c.Elite >= c.PopSize {
		return fmt.Errorf("genetic: elite %d out of range for population %d", c.Elite, c.PopSize)
	}
	if c.MaxGenerations < 1 {
		return fmt.Errorf("genetic: max generations %d too small", c.MaxGenerations)
	}
	return nil
}

// Result summarizes one optimization run.
type Result struct {
	Best        *Individual
	BestHistory []float64 // global best fitness after each generation
	Generations int
	Evaluations int
	Restarts    int
	TargetHit   bool
	// EraBests are the best individuals of each era (between restarts) —
	// the candidates that go to the worst-case database.
	EraBests []*Individual
}

// Optimizer runs the dual-chromosome, multi-population GA.
type Optimizer struct {
	cfg  Config
	ops  *Operators
	eval Evaluator

	nextID  int
	islands [][]*Individual
	eraBest []*Individual // per-island best of the current era
	stall   []int
}

// NewOptimizer wires a configuration, operators and an evaluator.
func NewOptimizer(cfg Config, ops *Operators, eval Evaluator) (*Optimizer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ops == nil || eval == nil {
		return nil, fmt.Errorf("genetic: nil operators or evaluator")
	}
	return &Optimizer{cfg: cfg, ops: ops, eval: eval}, nil
}

func (o *Optimizer) newIndividual(seq testgen.Sequence, cond testgen.Conditions) *Individual {
	o.nextID++
	if o.cfg.FixedConditions != nil {
		cond = *o.cfg.FixedConditions
	}
	return &Individual{Seq: seq, Cond: cond, ID: o.nextID}
}

// initial returns the producer of the first generation: island 0 starts
// with the provided seeds (NN candidates), everything else is filled
// randomly. Like every generation producer it yields individual i of the
// island-major generation, for i = 0, 1, 2, … in order.
func (o *Optimizer) initial(seeds []Seed) func(i int) *Individual {
	o.islands = make([][]*Individual, o.cfg.Islands)
	o.eraBest = make([]*Individual, o.cfg.Islands)
	o.stall = make([]int, o.cfg.Islands)
	return func(i int) *Individual {
		if i < len(seeds) {
			s := seeds[i]
			return o.newIndividual(s.Seq.Clone(), s.Cond)
		}
		seq, cond := o.ops.RandomIndividual(o.cfg.FixedConditions)
		return o.newIndividual(seq, cond)
	}
}

// breeder returns the producer of the next generation, bred from the
// current (evaluated, ranked, migrated) islands one individual at a time:
// per island either a brand-new random population (a stagnating island
// restarts, banking its era best) or the elites followed by mutated
// offspring. It runs while the individuals it already yielded are being
// measured, so it reads only the current islands and writes only what it
// yields plus the restart bookkeeping, which nothing else touches until
// the generation has been evaluated.
func (o *Optimizer) breeder(res *Result) func(i int) *Individual {
	var restarting bool
	return func(i int) *Individual {
		isl, k := i/o.cfg.PopSize, i%o.cfg.PopSize
		pop := o.islands[isl]
		if k == 0 {
			restarting = o.cfg.StagnationLimit > 0 && o.stall[isl] >= o.cfg.StagnationLimit
			if restarting {
				if b := o.eraBest[isl]; b != nil {
					res.EraBests = append(res.EraBests, b.Clone())
				}
				o.eraBest[isl] = nil
				o.stall[isl] = 0
				res.Restarts++
			}
		}
		if restarting {
			seq, cond := o.ops.RandomIndividual(o.cfg.FixedConditions)
			return o.newIndividual(seq, cond)
		}
		if k < o.cfg.Elite {
			// Clone-and-invalidate: the clone keeps the elite from aliasing
			// the old generation (the batch evaluator hands individuals to
			// concurrent workers and must own each one exclusively); its
			// fitness is requested again, which a memoizing evaluator
			// answers from cache for free while a noise-resampling one
			// re-draws it.
			elite := pop[k].Clone()
			elite.Evaluated = false
			return elite
		}
		p1 := o.ops.Tournament(pop, o.cfg.TournamentK)
		var childSeq testgen.Sequence
		var childCond testgen.Conditions
		if o.ops.Chance(o.cfg.CrossoverRate) {
			p2 := o.ops.Tournament(pop, o.cfg.TournamentK)
			childSeq = o.ops.CrossoverSeq(p1.Seq, p2.Seq)
			childCond = o.ops.CrossoverCond(p1.Cond, p2.Cond)
		} else {
			childSeq = p1.Seq.Clone()
			childCond = p1.Cond
		}
		childSeq = o.ops.MutateSeq(childSeq)
		if o.cfg.FixedConditions == nil {
			childCond = o.ops.MutateCond(childCond)
		}
		return o.newIndividual(childSeq, childCond)
	}
}

// evaluateGeneration produces the next generation with produce and
// measures it: a BatchEvaluator receives the whole island-major generation
// as one stream, so breeding overlaps measurement; a plain Evaluator is
// called serially in the same order once the generation exists. The
// measured individuals replace the islands, each ranked by fitness.
func (o *Optimizer) evaluateGeneration(res *Result, produce func(i int) *Individual) error {
	n := o.cfg.Islands * o.cfg.PopSize
	gen := make([]*Individual, n)
	switch be := o.eval.(type) {
	case BatchEvaluator:
		fits, err := be.FitnessStream(n, func(i int) testgen.Test {
			gen[i] = produce(i)
			return gen[i].Test()
		})
		if err != nil {
			return fmt.Errorf("genetic: evaluating generation batch: %w", err)
		}
		if len(fits) != n {
			return fmt.Errorf("genetic: batch evaluator returned %d fitnesses for %d tests", len(fits), n)
		}
		for i, ind := range gen {
			ind.Fitness = fits[i]
			ind.Evaluated = true
		}
		res.Evaluations += n
	default:
		for i := range gen {
			gen[i] = produce(i)
		}
		for _, ind := range gen {
			f, err := o.eval.Fitness(ind.Test())
			if err != nil {
				return fmt.Errorf("genetic: evaluating %s: %w", ind.Test().Name, err)
			}
			ind.Fitness = f
			ind.Evaluated = true
			res.Evaluations++
		}
	}
	for i := range o.islands {
		pop := gen[i*o.cfg.PopSize : (i+1)*o.cfg.PopSize : (i+1)*o.cfg.PopSize]
		sort.SliceStable(pop, func(a, b int) bool { return pop[a].Fitness > pop[b].Fitness })
		o.islands[i] = pop
	}
	return nil
}

// Run executes the GA until the generation cap or the fitness target.
func (o *Optimizer) Run(seeds []Seed) (*Result, error) {
	res := &Result{}
	produce := o.initial(seeds)

	var globalBest *Individual
	for gen := 0; gen < o.cfg.MaxGenerations; gen++ {
		res.Generations = gen + 1
		if err := o.evaluateGeneration(res, produce); err != nil {
			return res, err
		}
		for i, pop := range o.islands {
			islandBest := pop[0]
			if o.eraBest[i] == nil || islandBest.Fitness > o.eraBest[i].Fitness {
				o.eraBest[i] = islandBest.Clone()
				o.stall[i] = 0
			} else {
				o.stall[i]++
			}
			if globalBest == nil || islandBest.Fitness > globalBest.Fitness {
				globalBest = islandBest.Clone()
			}
		}
		res.Best = globalBest
		res.BestHistory = append(res.BestHistory, globalBest.Fitness)
		if o.cfg.OnGeneration != nil {
			o.cfg.OnGeneration(gen, globalBest.Fitness)
		}

		if o.cfg.TargetFitness > 0 && globalBest.Fitness >= o.cfg.TargetFitness {
			res.TargetHit = true
			break
		}

		// Ring migration of island bests. Collect every migrant before
		// placing any, so island i+1's emigrant is chosen from its own
		// population, never from a freshly arrived migrant. A migrant only
		// displaces the destination's worst individual when it actually
		// improves on it, and arrives clone-and-invalidated: the clone
		// never aliases its source island, and the cleared evaluation
		// re-requests its fitness on the destination (a memoizing evaluator
		// answers from cache for free).
		if o.cfg.MigrateEvery > 0 && gen > 0 && gen%o.cfg.MigrateEvery == 0 && o.cfg.Islands > 1 {
			migrants := make([]*Individual, o.cfg.Islands)
			for i := range o.islands {
				migrants[(i+1)%o.cfg.Islands] = o.islands[i][0].Clone()
			}
			for i, m := range migrants {
				dst := o.islands[i]
				if m.Fitness > dst[len(dst)-1].Fitness {
					m.Evaluated = false
					dst[len(dst)-1] = m
				}
			}
		}

		// The next generation is bred inside its own evaluation stream.
		produce = o.breeder(res)
	}
	if !res.TargetHit {
		// The cap ends the run after one more breeding round that is never
		// evaluated. It still runs: it draws from the operators' generator,
		// which the flow shares with later phases, and it performs (and
		// counts) the restarts of islands that stagnated in the last
		// generation.
		for i := 0; i < o.cfg.Islands*o.cfg.PopSize; i++ {
			produce(i)
		}
	}

	// Bank the final era bests.
	for i := range o.eraBest {
		if b := o.eraBest[i]; b != nil {
			res.EraBests = append(res.EraBests, b.Clone())
		}
	}
	if res.Best == nil {
		return res, fmt.Errorf("genetic: no individual was evaluated")
	}
	sort.SliceStable(res.EraBests, func(a, b int) bool {
		return res.EraBests[a].Fitness > res.EraBests[b].Fitness
	})
	return res, nil
}
