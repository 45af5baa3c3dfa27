package ate

// Clone returns a cooled-down copy of the thermal configuration: same
// package constants, junction back at ambient.
func (th *Thermal) Clone() *Thermal {
	if th == nil {
		return nil
	}
	return &Thermal{
		RisePerVector: th.RisePerVector,
		TauSec:        th.TauSec,
		MaxRiseC:      th.MaxRiseC,
	}
}

// Fork creates an independent tester insertion for a parallel worker: a
// clone of the device in the socket (same die, fresh array), a private
// noise RNG seeded with seed, the same noise/repeat/thermal configuration,
// and zeroed cost counters. The fork shares no mutable state with the
// parent; merge its counters back with AddStats when the worker drains.
func (a *ATE) Fork(seed int64) (*ATE, error) {
	dev, err := a.dev.Clone()
	if err != nil {
		return nil, err
	}
	f := New(dev, seed)
	f.NoiseFraction = a.NoiseFraction
	f.Repeats = a.Repeats
	f.Heating = a.Heating.Clone()
	f.Profiler = a.Profiler
	return f, nil
}

// Reseed rewinds the insertion to a hermetic per-task state: the noise RNG
// restarts from seed, the junction cools to ambient, the pattern memory is
// invalidated, and the cost counters restart from zero (the thermal model
// clocks off TestTimeSec, so a leftover baseline would leak float-rounding
// differences into the junction temperature). After Reseed, a task's
// measurements depend only on the seed and the tests it applies — not on
// which worker ran before it — which is the property the deterministic
// parallel engine relies on. Bank Stats() before reseeding.
func (a *ATE) Reseed(seed int64) {
	// Seed in place and in O(1): the lazy source (rng.go) only records the
	// seed and computes each feedback word when a draw first touches it, so
	// a task pays for the few dozen words it draws rather than all 607, and
	// allocates nothing. The stream equals a fresh
	// rand.New(rand.NewSource(seed)) draw for draw.
	a.rng.Seed(seed)
	a.Heating.Reset()
	a.Reload()
	a.ResetStats()
}

// AddStats merges a forked insertion's cost counters into this tester, so
// work fanned across workers still shows up in the session's totals.
func (a *ATE) AddStats(s Stats) { a.stats.Add(s) }
