// Command perfbench is the repository's benchmark. It runs one named
// workload against the characterization system from a single process,
// checks every result against golden digests, and prints its metrics as
// the last line of standard output:
//
//	go build -o .bench_build/perfbench ./perfbench   (or: bash perfbench/run.sh ...)
//	.bench_build/perfbench --workload lot --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it reports per-layer metrics from a traced re-run of the
// same work, writes the run's spans and CPU profile under --out, and
// reports the tracing overhead. See README.md in this directory.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/parallel"
)

// workers is the worker budget of every workload and clients the closed
// loop's client count; both stay at the 2 cores the numbers were taken on,
// so the benchmark measures the program and not the scheduler.
const (
	workers = 2
	clients = 2
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median and the last instance is the one measured.
const setupRepeats = 5

// workload is one named input set.
type workload struct {
	name string
	why  string
	// golden names the golden-digest table the workload checks against.
	golden string
	// minItems is the fewest items an end-to-end pass runs, so that
	// op_p50_s obeys the percentile rule; minTracedItems is the same floor
	// for the untraced half of a traced run.
	minItems       int
	minTracedItems int
	setup          func(e *env) (instance, error)
}

// instance is a set-up workload, ready to measure.
type instance interface {
	// pass runs items in order from index 0 and reports them.
	pass(pc passConfig) (*passResult, error)
	// probes times single calls into layers on the workload's own inputs
	// and stores them in m (traced runs only).
	probes(m map[string]float64) error
	close() error
}

// passConfig bounds one pass: exactly items items when items > 0,
// otherwise until the deadline and at least minItems.
type passConfig struct {
	deadline time.Time
	minItems int
	items    int
	rec      *recorder // nil: untraced
}

// more reports whether the pass should start another item.
func (pc passConfig) more(done int) bool {
	if pc.items > 0 {
		return done < pc.items
	}
	return done < pc.minItems || time.Now().Before(pc.deadline)
}

// passResult is what one pass measured.
type passResult struct {
	items     int // operations run: flows, lot screens or jobs
	units     int // what items_per_s counts: flow seeds, dies or jobs
	wall      time.Duration
	ops       opCount
	opSeconds []float64 // samples of the workload's op_p50_s operation
	ateMeas   int64     // ATE measurements over all units
	named     []namedMetric
}

// namedMetric is a workload-specific end-to-end figure printed by name in
// the human-readable report.
type namedMetric struct {
	name  string
	value float64
	unit  string
	ok    bool // false: too few samples under the percentile rule
}

// env is what a workload instance gets from the run.
type env struct {
	seed    int64
	check   *checker
	scratch string // directory for stores, queues and ledgers
	log     io.Writer
}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd are the end-to-end metrics every workload reports untraced.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_s", "s"},
	{"items_per_s", "1/s"},
	{"ate_meas_per_item", "count"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the per-layer metrics every workload reports traced; a
// layer the workload does not call reads 0.
var perLayer = []metricDef{
	{"core.learn_s", "s"},
	{"core.propose_seeds_s", "s"},
	{"core.optimize_s", "s"},
	{"core.table1_march_s", "s"},
	{"core.table1_random_s", "s"},
	{"core.lot_screen_s", "s"},
	{"ate.reseed_ns", "ns"},
	{"ate.profile_ns", "ns"},
	{"dut.execute_ns_per_cycle", "ns/cycle"},
	{"dut.decode_ns", "ns"},
	{"dut.wafer_die_ns", "ns"},
	{"dut.new_wafer_lot_s", "s"},
	{"testgen.fingerprint_ns", "ns"},
	{"testgen.features_ns", "ns"},
	{"search.searches", "count/item"},
	{"search.meas_per_search", "count"},
	{"search.converged_ratio", "ratio"},
	{"parallel.memo_hit_rate", "ratio"},
	{"parallel.fleet_utilization", "ratio"},
	{"parallel.fleet_deliver_share", "ratio"},
	{"parallel.fleet_max_run_ahead", "count"},
	{"neural.vote_ns_per_sample", "ns"},
	{"genetic.generations", "count"},
	{"genetic.evaluations", "count"},
	{"genetic.restarts", "count"},
	{"cachestore.open_s", "s"},
	{"cachestore.hit_rate", "ratio"},
	{"cachestore.bytes_on_disk", "bytes"},
	{"jobs.submit_p50_s", "s"},
	{"jobs.queue_wait_p50_s", "s"},
	{"jobs.run_p50_s", "s"},
	{"jobs.poll_p50_s", "s"},
	{"jobs.queue_op_ns", "ns"},
	{"runstore.put_s", "s"},
	{"trace_overhead_ratio", "ratio"},
}

func init() {
	for _, n := range cpuShareNames() {
		perLayer = append(perLayer, metricDef{n, "share"})
	}
}

var workloads = []*workload{characterizeWorkload, lotWorkload, lotReplayWorkload, serviceWorkload}

func findWorkload(name string) (*workload, error) {
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(names, ", "))
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run whose outputs did not match; its result line is
// printed before the process exits non-zero.
var errIncorrect = errors.New("outputs do not match the golden digests")

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: characterize, lot, lot_replay or service")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "how long the timed part measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
	out := fs.String("out", filepath.Join(".bench_build", "trace"), "directory for a traced run's spans and CPU profile")
	writeGolden := fs.String("write-golden", "", "regenerate the golden digests for -golden-seeds into this file and exit")
	goldenSeeds := fs.String("golden-seeds", "1-10", "workload seeds the golden file covers (a-b range or comma list)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(".bench_build", "tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	if *writeGolden != "" {
		seeds, err := parseSeeds(*goldenSeeds)
		if err != nil {
			return err
		}
		return generateGolden(*writeGolden, seeds, scratch, stderr)
	}
	wl, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	golden, err := loadGolden(wl.golden, *seed)
	if err != nil {
		return err
	}
	e := &env{seed: *seed, check: newChecker(golden), scratch: scratch, log: stderr}
	prov := newProvenance(wl.name, *seed, *trace, *seconds)
	provLine, _ := json.Marshal(prov)
	fmt.Fprintf(stdout, "provenance %s\n", provLine)
	if golden == nil {
		fmt.Fprintf(stdout, "golden: no digests for seed %d; checking self-consistency only\n", *seed)
	}

	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 0 {
		res, err = measure(wl, e, budget)
	} else {
		res, err = measureTraced(wl, e, budget, *out, prov, stdout)
	}
	if err != nil {
		return err
	}
	mismatches := e.check.failures()
	for _, m := range mismatches {
		fmt.Fprintln(stdout, "MISMATCH", m)
	}
	for _, m := range res.named {
		if m.ok {
			fmt.Fprintf(stdout, "metric %-24s %14.6g %s\n", m.name, m.value, m.unit)
		} else {
			fmt.Fprintf(stdout, "metric %-24s %14s %s (not reported)\n", m.name, "-", m.unit)
		}
	}
	line, err := res.line(len(mismatches) == 0)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if len(mismatches) > 0 {
		return errIncorrect
	}
	return nil
}

// result is one run's outcome.
type result struct {
	ops     opCount
	metrics map[string]float64
	defs    []metricDef
	named   []namedMetric
}

// line renders the final JSON result line.
func (r result) line(correct bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.defs))
	for _, d := range r.defs {
		v, ok := r.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (%v)", d.name, v)
		}
		metrics[d.name] = value{v, d.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, r.ops.attempted, r.ops.failed, metrics})
}

// setUp builds the workload n times, timing each, and keeps the last.
func setUp(wl *workload, e *env, n int) (instance, []float64, error) {
	var inst instance
	var times []float64
	for i := 0; i < n; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		next, err := wl.setup(e)
		if err != nil {
			return nil, nil, fmt.Errorf("setting up %s: %w", wl.name, err)
		}
		times = append(times, time.Since(start).Seconds())
		inst = next
	}
	return inst, times, nil
}

// measure is the untraced run: the end-to-end metrics.
func measure(wl *workload, e *env, budget time.Duration) (result, error) {
	inst, setups, err := setUp(wl, e, setupRepeats)
	if err != nil {
		return result{}, err
	}
	cpu0 := readCPUStat()
	pr, err := inst.pass(passConfig{deadline: time.Now().Add(budget), minItems: wl.minItems})
	steal := cpu0.stealShare(readCPUStat())
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}
	p50, ok := percentile(pr.opSeconds, 0.5)
	if !ok {
		return result{}, fmt.Errorf("%d operations are too few for op_p50_s", len(pr.opSeconds))
	}
	rss := peakRSSMB()
	m := map[string]float64{
		"setup_s":           median(setups),
		"op_p50_s":          p50,
		"items_per_s":       float64(pr.units) / pr.wall.Seconds(),
		"ate_meas_per_item": float64(pr.ateMeas) / float64(pr.units),
		"peak_rss_mb":       rss,
	}
	named := append([]namedMetric{{"setup_s", m["setup_s"], "s", true}}, pr.named...)
	named = append(named,
		namedMetric{"failed_ratio", pr.ops.failedRatio(), "ratio", true},
		namedMetric{"peak_rss_mb", rss, "MB", true},
		// Not a metric of the program: the share of the machine's CPU time
		// the hypervisor gave to other guests during the timed part, which
		// explains a run that was slow for reasons outside the program.
		namedMetric{"machine_steal_share", steal, "ratio", steal >= 0},
	)
	return result{ops: pr.ops, metrics: m, defs: endToEnd, named: named}, nil
}

// measureTraced is the traced run. It measures an untraced pass for half
// the budget, then re-runs exactly the same items on a fresh instance with
// spans, counters, the fleet observer and a CPU profile attached, so the
// ratio of the two wall times is the tracing overhead. Layer probes run
// after the profile stops.
func measureTraced(wl *workload, e *env, budget time.Duration, outDir string, prov provenance, stdout io.Writer) (res result, err error) {
	inst, _, err := setUp(wl, e, 1)
	if err != nil {
		return result{}, err
	}
	plain, err := inst.pass(passConfig{deadline: time.Now().Add(budget / 2), minItems: wl.minTracedItems})
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}

	inst, _, err = setUp(wl, e, 1)
	if err != nil {
		return result{}, err
	}
	defer func() {
		if cerr := inst.close(); err == nil {
			err = cerr
		}
	}()
	rec := newRecorder()
	var prof bytes.Buffer
	parallel.SetFleetObserver(rec.observeFleet)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		parallel.SetFleetObserver(nil)
		return result{}, err
	}
	traced, err := inst.pass(passConfig{items: plain.items, rec: rec})
	pprof.StopCPUProfile()
	parallel.SetFleetObserver(nil)
	if err != nil {
		return result{}, err
	}

	m := layerMetrics(rec, traced)
	m["trace_overhead_ratio"] = traced.wall.Seconds() / plain.wall.Seconds()
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return result{}, fmt.Errorf("decoding the CPU profile: %w", err)
	}
	for k, v := range bucketSamples(samples) {
		m[k] = v
	}
	if err := inst.probes(m); err != nil {
		return result{}, err
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", wl.name, e.seed))
	if err := rec.writeSpans(base+".spans.jsonl", prov); err != nil {
		return result{}, err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "trace: %d items, spans %s.spans.jsonl, CPU profile %s.cpu.pprof (%d samples)\n",
		traced.items, base, base, len(samples))
	printShares(stdout, m)

	ops := plain.ops
	ops.add(traced.ops)
	return result{ops: ops, metrics: m, defs: perLayer}, nil
}

// printShares prints the nonzero cpu.* shares, largest first.
func printShares(w io.Writer, m map[string]float64) {
	names := cpuShareNames()
	sort.SliceStable(names, func(i, j int) bool { return m[names[i]] > m[names[j]] })
	for _, n := range names {
		if m[n] > 0 {
			fmt.Fprintf(w, "cpu %-30s %6.2f%%\n", n, 100*m[n])
		}
	}
}

// layerMetrics derives the span- and counter-based per-layer metrics of a
// traced pass; every perLayer name starts at 0 (layer not called).
func layerMetrics(rec *recorder, traced *passResult) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	m["core.learn_s"] = rec.meanSpan("core.Learn")
	m["core.propose_seeds_s"] = rec.meanSpan("core.ProposeSeeds")
	m["core.optimize_s"] = rec.meanSpan("core.OptimizeFrom")
	m["core.table1_march_s"] = rec.meanSpan("core.phase.table1-march")
	m["core.table1_random_s"] = rec.meanSpan("core.phase.table1-random")
	m["core.lot_screen_s"] = rec.meanSpan("core.ScreenLotStream")

	searches := rec.counter("search.searches")
	m["search.searches"] = searches / float64(traced.items)
	m["search.meas_per_search"] = ratio(rec.counter("search.measurements"), searches)
	m["search.converged_ratio"] = ratio(rec.counter("search.converged"), searches)
	m["parallel.memo_hit_rate"] = ratio(rec.counter("parallel.memo_hits"), rec.counter("parallel.memo_lookups"))

	rec.mu.Lock()
	f := rec.fleet
	rec.mu.Unlock()
	m["parallel.fleet_utilization"] = ratio(f.busyNanos, f.workerWallNanos)
	m["parallel.fleet_deliver_share"] = ratio(f.deliverNanos, f.wallNanos)
	m["parallel.fleet_max_run_ahead"] = float64(f.maxRunAhead)

	runs := rec.counter("genetic.runs")
	m["genetic.generations"] = ratio(rec.counter("genetic.generations"), runs)
	m["genetic.evaluations"] = ratio(rec.counter("genetic.evaluations"), runs)
	m["genetic.restarts"] = ratio(rec.counter("genetic.restarts"), runs)

	m["cachestore.open_s"] = rec.meanSpan("cachestore.Open")
	m["cachestore.hit_rate"] = ratio(rec.counter("cachestore.hits"), rec.counter("cachestore.lookups"))
	m["cachestore.bytes_on_disk"] = rec.counter("cachestore.bytes_on_disk")

	for _, j := range []struct{ metric, span string }{
		{"jobs.submit_p50_s", "jobs.submit"},
		{"jobs.queue_wait_p50_s", "jobs.queue_wait"},
		{"jobs.run_p50_s", "jobs.run"},
		{"jobs.poll_p50_s", "jobs.poll"},
	} {
		if v, ok := percentile(rec.durations(j.span), 0.5); ok {
			m[j.metric] = v
		}
	}
	return m
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// parseSeeds reads "a-b" or "a,b,c".
func parseSeeds(s string) ([]int64, error) {
	var lo, hi int64
	if n, err := fmt.Sscanf(s, "%d-%d", &lo, &hi); err == nil && n == 2 && lo <= hi {
		seeds := make([]int64, 0, hi-lo+1)
		for v := lo; v <= hi; v++ {
			seeds = append(seeds, v)
		}
		return seeds, nil
	}
	var seeds []int64
	for _, f := range strings.Split(s, ",") {
		var v int64
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &v); err != nil {
			return nil, fmt.Errorf("bad seed list %q", s)
		}
		seeds = append(seeds, v)
	}
	return seeds, nil
}

// logf writes a progress line to standard error.
func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, format+"\n", args...)
}

// cpuStat is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuStat struct{ total, steal float64 }

// readCPUStat reads /proc/stat; a zero value when it is unavailable.
func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return cpuStat{}
		}
		if i < 8 { // user … steal; guest time is already inside user
			st.total += v
		}
		if i == 7 {
			st.steal = v
		}
	}
	return st
}

// stealShare is the stolen share of CPU time between s and later, -1 when
// /proc/stat was unavailable.
func (s cpuStat) stealShare(later cpuStat) float64 {
	if s.total == 0 || later.total <= s.total {
		return -1
	}
	return (later.steal - s.steal) / (later.total - s.total)
}
