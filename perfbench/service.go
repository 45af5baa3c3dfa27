package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dut"
	"repro/internal/jobs"
	"repro/internal/runstore"
	"repro/internal/testgen"
)

// The service workload: an in-process jobs.Server on a loopback listener
// with a 2-worker budget, driven by a closed loop of 2 clients. Each
// client submits one job over HTTP, polls it until it is terminal, then
// submits the next.
const (
	serviceSpecs   = 300 // distinct job specs per workload seed (golden slots)
	serviceMinJobs = 100 // job_latency_p90_s needs 100 jobs
	pollInterval   = time.Millisecond
)

var serviceWorkload = &workload{
	name: "service",
	why: "per-job fixed costs dominate: journal fsync, ledger finalize, HTTP, fleet spin-up and device " +
		"construction; the only workload that runs shmoo and writes jobs and runstore",
	golden:         "service",
	minItems:       serviceMinJobs,
	minTracedItems: 2 * minBeyond, // jobs.*_p50_s need 20 jobs
	setup:          setupService,
}

// serviceFlows is the job mix: every block of five consecutive jobs holds
// each flow once, in a seed-shuffled order.
var serviceFlows = []string{"learn", "optimize", "table1", "shmoo", "lot"}

// serviceSpec is the job of slot k: a small instance of one flow with a
// seed no other slot uses.
func serviceSpec(wseed int64, k int) jobs.Submission {
	block := k / len(serviceFlows)
	perm := rand.New(rand.NewSource(wseed*7919 + int64(block))).Perm(len(serviceFlows))
	sub := jobs.Submission{Flow: serviceFlows[perm[k%len(serviceFlows)]], Seed: wseed*100000 + int64(k) + 1, Parallel: 1}
	switch sub.Flow {
	case "learn", "optimize":
		sub.Args = map[string]string{"learn-tests": "12"}
	case "table1":
		sub.Args = map[string]string{"learn-tests": "10", "random-tests": "40"}
	case "shmoo":
		sub.Args = map[string]string{"tests": "4"}
	case "lot":
		sub.Args = map[string]string{"dies": "6"}
	}
	return sub
}

type svcInstance struct {
	e          *env
	dir        string
	srv        *jobs.Server
	hs         *http.Server
	served     chan error
	transport  *http.Transport
	client     *http.Client
	base       string
	goroutines int // before boot: what close must return to
}

// setupService boots a server on fresh queue and ledger directories and
// runs one warm-up job per flow through it.
func setupService(e *env) (instance, error) {
	s := &svcInstance{e: e, goroutines: runtime.NumGoroutine()}
	var err error
	if s.dir, err = os.MkdirTemp(e.scratch, "service-"); err != nil {
		return nil, err
	}
	s.srv, err = jobs.New(jobs.Options{
		QueueDir: filepath.Join(s.dir, "queue"),
		RunDir:   filepath.Join(s.dir, "runs"),
		Workers:  workers,
	})
	if err != nil {
		os.RemoveAll(s.dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		os.RemoveAll(s.dir)
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.transport = &http.Transport{MaxIdleConnsPerHost: clients}
	s.client = &http.Client{Transport: s.transport, Timeout: time.Minute}

	// One warm-up job per flow, so every flow's code and the server's
	// first-job paths have run before timing starts. The warm-up jobs are
	// the same for every workload seed (setup_s then varies only with the
	// machine) and use seeds no slot of a non-negative workload seed uses.
	for i := range serviceFlows {
		warm := serviceSpec(0, i)
		warm.Seed = 99990 + int64(i)
		if _, err := s.runJob(warm, nil, "warm-up"); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
	}
	return s, nil
}

// jobOutcome is one job as the client saw it.
type jobOutcome struct {
	latency float64 // submit to terminal, seconds
	job     *jobs.Job
}

// runJob submits sub and polls it to a terminal state. Every HTTP request
// is made once: a refused or failed request is returned as an error and
// counted by the caller, never retried.
func (s *svcInstance) runJob(sub jobs.Submission, rec *recorder, trace string) (jobOutcome, error) {
	root := rec.begin("service.job", trace, 0)
	defer root.end()
	start := time.Now()
	body, err := json.Marshal(sub)
	if err != nil {
		return jobOutcome{}, err
	}
	sp := rec.begin("jobs.submit", trace, root.id())
	var j jobs.Job
	err = s.do(http.MethodPost, "/jobs", body, http.StatusCreated, &j)
	sp.end()
	if err != nil {
		return jobOutcome{}, err
	}
	for !j.State.Terminal() {
		time.Sleep(pollInterval)
		sp := rec.begin("jobs.poll", trace, root.id())
		err := s.do(http.MethodGet, "/jobs/"+j.ID, nil, http.StatusOK, &j)
		sp.end()
		if err != nil {
			return jobOutcome{}, err
		}
	}
	out := jobOutcome{latency: time.Since(start).Seconds(), job: &j}
	rec.addSpan("jobs.queue_wait", trace, root.id(), time.Unix(0, j.SubmittedUnixNano), time.Unix(0, j.StartedUnixNano))
	rec.addSpan("jobs.run", trace, root.id(), time.Unix(0, j.StartedUnixNano), time.Unix(0, j.FinishedUnixNano))
	if j.State != jobs.StateDone {
		return out, fmt.Errorf("job %s (%s seed %d) ended %s: %s", j.ID, j.Flow, j.Seed, j.State, j.Error)
	}
	return out, nil
}

// do makes one HTTP request and decodes the JSON reply.
func (s *svcInstance) do(method, path string, body []byte, want int, v any) error {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: HTTP %d", method, path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (s *svcInstance) pass(pc passConfig) (*passResult, error) {
	var (
		next, finished atomic.Int64
		mu             sync.Mutex
		res            = &passResult{}
		runIDs         []string
		wg             sync.WaitGroup
	)
	// claim hands out the next job index while the pass should go on: by
	// index in an exact pass, by finished jobs and the deadline otherwise.
	claim := func() (int, bool) {
		i := int(next.Add(1) - 1)
		if pc.items > 0 {
			return i, pc.more(i)
		}
		return i, pc.more(int(finished.Load()))
	}
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := claim(); ok; i, ok = claim() {
				slot := i % serviceSpecs
				out, err := s.runJob(serviceSpec(s.e.seed, slot), pc.rec, fmt.Sprintf("job-%d", i))
				mu.Lock()
				res.items++
				if err != nil {
					// A failed or refused job misses every latency limit.
					s.e.logf("service: %v", err)
					res.ops.fail()
					res.opSeconds = append(res.opSeconds, math.Inf(1))
				} else {
					res.units++
					res.opSeconds = append(res.opSeconds, out.latency)
					runIDs = append(runIDs, out.job.RunID)
					if s.e.check.check(slot, out.job.RunID) {
						res.ops.ok()
					} else {
						res.ops.fail()
					}
				}
				mu.Unlock()
				finished.Add(1)
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	if res.units == 0 {
		return nil, errors.New("service: no job finished")
	}

	// Every finished job's record must be in the ledger; its report totals
	// give the job's ATE measurements.
	for _, id := range runIDs {
		recd, err := s.srv.Store().Get(id)
		if err != nil {
			s.e.check.fail(fmt.Sprintf("run %s missing from the ledger: %v", id, err))
			continue
		}
		t, ok := recd.Totals()
		if !ok {
			s.e.check.fail(fmt.Sprintf("run %s has no report totals", id))
			continue
		}
		res.ateMeas += t.Measurements
	}
	p50, ok50 := percentile(res.opSeconds, 0.5)
	p90, ok90 := percentile(res.opSeconds, 0.9)
	res.named = []namedMetric{
		{"jobs_per_s", float64(res.units) / res.wall.Seconds(), "1/s", true},
		{"job_latency_p50_s", p50, "s", ok50},
		{"job_latency_p90_s", p90, "s", ok90},
		{"jobs", float64(res.items), "count", true},
	}
	return res, nil
}

// probes times the journal operations on a scratch queue and Put on a
// scratch ledger, plus the ATE and testgen layers on tests drawn like the
// jobs' own (a nominal-condition random generator per job seed).
func (s *svcInstance) probes(m map[string]float64) error {
	dir, err := os.MkdirTemp(s.e.scratch, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	q, err := jobs.Open(filepath.Join(dir, "queue"))
	if err != nil {
		return err
	}
	var opSecs []float64
	for i := 0; i < 20; i++ {
		start := time.Now()
		j, err := q.Submit(jobs.Submission{Flow: "shmoo", Seed: int64(i + 1)})
		if err == nil {
			_, err = q.Start(j.ID)
		}
		if err == nil {
			_, err = q.Finish(j.ID, jobs.StateDone, "", "", "", "")
		}
		if err != nil {
			q.Close()
			return err
		}
		opSecs = append(opSecs, time.Since(start).Seconds()/3)
	}
	if err := q.Close(); err != nil {
		return err
	}
	m["jobs.queue_op_ns"] = median(opSecs) * 1e9

	store, err := runstore.Open(filepath.Join(dir, "runs"))
	if err != nil {
		return err
	}
	trace := bytes.Repeat([]byte(`{"ev":"probe"}`+"\n"), 256)
	var putSecs []float64
	for i := 0; i < 10; i++ {
		rec := &runstore.Record{
			Manifest: runstore.Manifest{Version: runstore.FormatVersion, Flow: "probe", Seed: int64(i + 1)},
			Report:   []byte(`{}`),
			Trace:    trace,
		}
		start := time.Now()
		if _, _, err := store.Put(rec); err != nil {
			return err
		}
		putSecs = append(putSecs, time.Since(start).Seconds())
	}
	m["runstore.put_s"] = median(putSecs)

	in := probeInputs{}
	cond := testgen.NominalConditions()
	for k := 0; k < serviceSpecs; k += len(serviceFlows) {
		seed := serviceSpec(s.e.seed, k).Seed
		in.seeds = append(in.seeds, seed)
		gen := testgen.NewRandomGenerator(seed+1, dut.DefaultGeometry().Words(), testgen.DefaultConditionLimits())
		gen.FixedConditions = &cond
		in.tests = append(in.tests, gen.Next())
	}
	return probeLayers(m, in)
}

// close shuts the server down and checks that nothing it started
// outlives it.
func (s *svcInstance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := []error{s.hs.Shutdown(ctx)}
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	errs = append(errs, s.srv.Close())
	s.transport.CloseIdleConnections()
	errs = append(errs, os.RemoveAll(s.dir))
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > s.goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > s.goroutines {
		s.e.check.fail(fmt.Sprintf("service: %d goroutines outlive the server (%d before boot)", n, s.goroutines))
	}
	return errors.Join(errs...)
}
