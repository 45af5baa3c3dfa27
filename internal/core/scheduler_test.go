package core

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/ate"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// Scheduler equivalence: the flows once ran on either the persistent fleet
// or a per-batch fork/join pool, and both produced bit-identical results
// and traces. The batch pool is gone; these digests were recorded from it
// (and agreed with the fleet at every worker count), so the fleet is held
// to its exact output at fleet sizes 1, 2 and 8. A digest that moves is a
// behaviour change, not a re-baseline.
const (
	// optimize: quickConfig(91), Learn + Optimize, trace + results.
	batchOptimizeDigest = "1c89ffc85177372587319827b4b1057d500d5a7b8a2cd9e7c73ef2c39c103522"
	// Table 1: quickConfig(59), 30 random tests, 40-word March window.
	batchTable1Digest = "eb18038337cfe29b2b8082ddc62f944cb3e0d2e75c7f24f51dedefff8b254a45"
	// replicated Table 1: smallTable1Config(41), 2 replicas.
	batchReplicatedDigest = "4814ec358c349495358f2f0a77ae8f9c8ba03f513445e9ff93578de2a5225b58"
)

var equivalenceFleetSizes = []int{1, 2, 8}

func TestSchedulerEquivalenceOptimize(t *testing.T) {
	for _, parallelism := range equivalenceFleetSizes {
		var buf bytes.Buffer
		tel := telemetry.New("fig5", telemetry.NewTracer(&buf))
		cfg := quickConfig(91)
		cfg.Parallelism = parallelism
		cfg.Telemetry = tel
		char, err := NewCharacterizer(cfg, newTester(t, 91))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := char.Learn(); err != nil {
			t.Fatal(err)
		}
		res, err := char.Optimize()
		if err != nil {
			t.Fatal(err)
		}
		char.Close()
		if err := tel.Close(); err != nil {
			t.Fatal(err)
		}
		if buf.Len() == 0 {
			t.Fatal("optimize run produced an empty trace")
		}
		if got := optimizeDigest(buf.Bytes(), res, char.ATE().Stats()); got != batchOptimizeDigest {
			t.Errorf("parallelism=%d: optimize digest %s, batch pool recorded %s", parallelism, got, batchOptimizeDigest)
		}
	}
}

func TestSchedulerEquivalenceTable1(t *testing.T) {
	for _, parallelism := range equivalenceFleetSizes {
		var buf bytes.Buffer
		tel := telemetry.New("table1", telemetry.NewTracer(&buf))
		cfg := Table1Config{Flow: quickConfig(59), RandomTests: 30, MarchWindowWords: 40}
		cfg.Flow.Parallelism = parallelism
		cfg.Flow.Telemetry = tel
		tab, err := RunTable1(cfg, newTester(t, 59))
		if err != nil {
			t.Fatal(err)
		}
		if err := tel.Close(); err != nil {
			t.Fatal(err)
		}
		if got := table1Digest(buf.Bytes(), tab); got != batchTable1Digest {
			t.Errorf("parallelism=%d: Table 1 digest %s, batch pool recorded %s\n%s",
				parallelism, got, batchTable1Digest, tab.Format())
		}
	}
}

// TestSchedulerEquivalenceReplicated holds the two replicas of
// smallTable1Config(41), dispatched onto one shared fleet at every fleet
// size, to the aggregate the batch pool recorded. Replica i runs on die i
// with flow and tester seed 41+7919·i.
func TestSchedulerEquivalenceReplicated(t *testing.T) {
	for _, workers := range equivalenceFleetSizes {
		f := parallel.NewFleet(parallel.Bound(workers, len(replicaTable1Digests)))
		tabs := make([]*Table1, len(replicaTable1Digests))
		testers := make([]*ate.ATE, len(tabs))
		for i := range testers {
			testers[i] = replicaTester(t, i, 41+int64(i)*7919)
		}
		err := parallel.ForEachOn(f, len(tabs), func(i int) error {
			cfg := smallTable1Config(41)
			cfg.Flow.Seed = 41 + int64(i)*7919
			cfg.Flow.Parallelism = workers
			tab, err := RunTable1(cfg, testers[i])
			tabs[i] = tab
			return err
		})
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := replicationDigest(tabs); got != batchReplicatedDigest {
			t.Errorf("workers=%d: replicated digest %s, batch pool recorded %s", workers, got, batchReplicatedDigest)
		}
	}
}

// replicaTable1Digests pin the same two replicas one by one. They were
// recorded with both replicas running concurrently at fleet sizes 1, 2 and
// 8, where their aggregate reproduced batchReplicatedDigest. A digest here
// covers each replica's trace bytes, rows, tester cost and cache counts, so
// it is stricter than that aggregate.
var replicaTable1Digests = [2]string{
	"434791601e96e16419901eb7c35544fcfb30177c3720cd1b6c489ed1e02f31f7",
	"13eb6604377eb61b8f1a8c5fddc0e29351592408e3b2672d54d8ddb101b9e529",
}

// TestReplicatedDeterministicAcrossWorkers runs independent Table 1
// replicas concurrently, one goroutine and one telemetry tracer each, so
// their fleets, memo caches and tracers share the process: no replica may
// perturb another's results or trace bytes at any fleet size.
func TestReplicatedDeterministicAcrossWorkers(t *testing.T) {
	for _, parallelism := range equivalenceFleetSizes {
		var wg sync.WaitGroup
		for i := range replicaTable1Digests {
			seed := 41 + int64(i)*7919
			tester := replicaTester(t, i, seed)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var buf bytes.Buffer
				tel := telemetry.New("table1", telemetry.NewTracer(&buf))
				cfg := smallTable1Config(41)
				cfg.Flow.Seed = seed
				cfg.Flow.Parallelism = parallelism
				cfg.Flow.Telemetry = tel
				tab, err := RunTable1(cfg, tester)
				if err != nil {
					t.Errorf("parallelism=%d replica %d: %v", parallelism, i, err)
					return
				}
				if err := tel.Close(); err != nil {
					t.Errorf("parallelism=%d replica %d: %v", parallelism, i, err)
					return
				}
				if got := table1Digest(buf.Bytes(), tab); got != replicaTable1Digests[i] {
					t.Errorf("parallelism=%d replica %d: digest %s, recorded %s\n%s",
						parallelism, i, got, replicaTable1Digests[i], tab.Format())
				}
			}(i)
		}
		wg.Wait()
	}
}

func TestCharacterizerCloseIdempotent(t *testing.T) {
	char, err := NewCharacterizer(quickConfig(7), newTester(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	f := char.Fleet()
	if f == nil {
		t.Fatal("Fleet returned nil")
	}
	if char.Fleet() != f {
		t.Error("Fleet is not memoized across calls")
	}
	char.Close()
	char.Close()
}
