// Package cli is the shared command-line substrate of the cmd/ binaries:
// one flag-registration helper so every tool spells the common knobs the
// same way (-seed, -parallel, -no-cache, -cache-dir, -trace, -metrics,
// -report, -listen, -cpuprofile, -memprofile), plus the telemetry bootstrap that
// turns those flags into a live run-telemetry handle, a worker-pool
// observer, an optional live observability HTTP server and an end-of-run
// report, and the pprof bootstrap for profiling the compute kernels.
package cli

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/ate"
	"repro/internal/cachestore"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/recordio"
	"repro/internal/runstore"
	"repro/internal/telemetry"
	"repro/internal/telemetry/flight"
)

// Common holds the flag values shared by every binary.
type Common struct {
	Seed     int64
	Parallel int
	NoCache  bool
	CacheDir string

	TracePath   string
	MetricsPath string
	Report      bool
	Listen      string

	// CrashDir enables post-mortem crash bundles: on a task panic, fatal
	// error or stall, the run's flight-recorder tail, metrics, flags,
	// goroutine stacks and partial report land in a bundle directory here.
	CrashDir string
	// StallTimeout arms the stall watchdog (requires CrashDir): a bundle is
	// dumped — without exiting — when no progress event arrives for this
	// long. Zero disables the watchdog.
	StallTimeout time.Duration
	// InjectFault is a testing hook ("task-panic" or "error") that fails the
	// run on purpose right after telemetry starts, exercising the crash
	// bundle path end to end. Hidden from -help-worthy docs on purpose; ci.sh
	// and the cli tests are its only intended users.
	InjectFault string

	// RunDir enables the persistent run ledger: on a clean finish the run is
	// finalized into a content-addressed record (manifest + report + metrics
	// + trace) under this directory, with wall-clock/scheduling data
	// quarantined in a per-attempt sidecar. Identical runs — same seed and
	// workload flags at any -parallel — collide into one record.
	RunDir string

	CPUProfilePath string
	MemProfilePath string

	// Embedded marks a Common owned by an in-process host (the job service)
	// rather than a binary: StartTelemetry then leaves the process-wide
	// parallel fleet observer alone (it is global, last-wins state —
	// concurrent jobs would cross-pollute each other's ND stats) and never
	// starts an observability server of its own. Trace bytes are unaffected
	// either way: the global observer only feeds nd_ metrics.
	Embedded bool

	// CheckCancel, when non-nil, is polled by the flow runners at phase
	// boundaries; a non-nil return aborts the flow with that error. The job
	// service uses it for cooperative cancellation of running jobs.
	CheckCancel func() error

	// OnTelemetryStart, when non-nil, receives the run's telemetry handle as
	// StartTelemetry completes — an embedding host's hook for folding the
	// run's registry into its own metrics exposition.
	OnTelemetryStart func(tel *telemetry.Telemetry)

	server          *obs.Server
	progress        *obs.Progress
	extProgress     *obs.Progress
	runName         string
	tel             *telemetry.Telemetry
	flight          *flight.Recorder
	sampStop        func()
	wd              *watchdog
	fs              *flag.FlagSet
	ledger          *runstore.Store
	tracePath       string // the trace file actually written (TracePath or the ledger temp)
	autoTrace       bool   // tracePath is a ledger-owned temp file, deleted after finalize
	lastRunID       string
	lastFingerprint string
}

// AttachProgress hands the run an externally owned progress publisher: the
// next StartTelemetry wires it as the run observer instead of creating one,
// so an embedding host (the job service) can watch and serve the run's live
// state. Call before StartTelemetry.
func (c *Common) AttachProgress(p *obs.Progress) { c.extProgress = p }

// AttachLedger supplies an already-open run-ledger store; StartTelemetry
// then finalizes into it instead of opening its own handle on RunDir. The
// job service shares one store handle across every job this way. RunDir
// must still be set — it gates finalization and the ledger temp trace.
func (c *Common) AttachLedger(st *runstore.Store) { c.ledger = st }

// LastRun returns the ledger run ID and trace fingerprint of the last
// FinishTelemetry, empty before the first finalized run (or when -run-dir
// was not set, in which case only the fingerprint is populated).
func (c *Common) LastRun() (runID, fingerprint string) {
	return c.lastRunID, c.lastFingerprint
}

// checkCancel polls the host's cancellation hook (no-op when unset).
func (c *Common) checkCancel() error {
	if c.CheckCancel == nil {
		return nil
	}
	return c.CheckCancel()
}

// Register installs the shared flags on the flag set (flag.CommandLine when
// nil) and returns the struct their values land in. Call before
// flag.Parse.
func Register(fs *flag.FlagSet) *Common {
	if fs == nil {
		fs = flag.CommandLine
	}
	// The flag set is retained: the run-ledger manifest hashes the resolved
	// flag values (minus the scheduling/output set) as the run's identity.
	c := &Common{fs: fs}
	fs.Int64Var(&c.Seed, "seed", 1, "random seed for the whole run")
	fs.IntVar(&c.Parallel, "parallel", 0, "worker count for every parallel stage (0 = one per CPU, 1 = serial; results are identical either way)")
	fs.BoolVar(&c.NoCache, "no-cache", false, "disable the measurement memo-cache (re-measure structurally identical tests)")
	fs.StringVar(&c.CacheDir, "cache-dir", "", "persist measurement results in this directory (content-addressed; a second identical run serves them from disk)")
	fs.StringVar(&c.TracePath, "trace", "", "write a structured JSONL event trace here (bit-identical for any -parallel)")
	fs.StringVar(&c.MetricsPath, "metrics", "", "write the end-of-run metrics snapshot as JSON here")
	fs.BoolVar(&c.Report, "report", false, "print the run report (phase breakdown, cache hit rate, measurements saved) on exit")
	fs.StringVar(&c.Listen, "listen", "", "serve live observability HTTP (Prometheus /metrics, /progress SSE, /debug/flight, /debug/pprof) on this addr:port while the run lasts (:0 picks a free port)")
	fs.StringVar(&c.CrashDir, "crash-dir", "", "write post-mortem crash bundles (flight-recorder tail, metrics, flags, goroutine stacks, partial report) into this directory on panic, fatal error or stall")
	fs.StringVar(&c.RunDir, "run-dir", "", "finalize the run into a content-addressed run ledger in this directory (manifest, report, metrics, trace; identical runs collide into one record — inspect with `tracestat ledger`)")
	fs.DurationVar(&c.StallTimeout, "stall-timeout", 0, "with -crash-dir: dump a stall bundle (without exiting) when no progress event arrives for this long (0 disables the watchdog)")
	fs.StringVar(&c.InjectFault, "inject-fault", "", "testing hook: fail the run on purpose after startup (task-panic, error)")
	fs.StringVar(&c.CPUProfilePath, "cpuprofile", "", "write a pprof CPU profile of the run here")
	fs.StringVar(&c.MemProfilePath, "memprofile", "", "write a pprof heap profile (after a final GC) here on exit")
	return c
}

// Validate checks the flag combinations that otherwise surface as late,
// opaque failures mid-run: an unbindable -listen address, an unwritable
// -crash-dir, a -stall-timeout without the -crash-dir its bundles need, and
// an unknown -inject-fault mode. Each failure is a single clear line; the
// binaries call this through Main before doing any work.
func (c *Common) Validate() error {
	if c.Listen != "" {
		// Bind-and-release: the only reliable way to learn the address is
		// usable. The real server re-binds microseconds later in
		// StartTelemetry; a race against another process taking the port in
		// between is possible but loses nothing — Start reports it too.
		ln, err := net.Listen("tcp", c.Listen)
		if err != nil {
			return fmt.Errorf("cannot bind -listen address %q: %w", c.Listen, err)
		}
		ln.Close()
	}
	if c.CrashDir != "" {
		if err := recordio.ProbeDir(c.CrashDir); err != nil {
			return fmt.Errorf("cannot write crash bundles to -crash-dir %q: %w", c.CrashDir, err)
		}
	}
	if c.RunDir != "" {
		if err := recordio.ProbeDir(c.RunDir); err != nil {
			return fmt.Errorf("cannot record runs to -run-dir %q: %w", c.RunDir, err)
		}
	}
	if c.StallTimeout > 0 && c.CrashDir == "" {
		return fmt.Errorf("-stall-timeout requires -crash-dir (stall bundles need somewhere to go)")
	}
	switch c.InjectFault {
	case "", "task-panic", "error":
	default:
		return fmt.Errorf("unknown -inject-fault mode %q (want task-panic or error)", c.InjectFault)
	}
	return nil
}

// Main is the run harness every binary wraps its work in: it validates the
// flags (exiting 2 with a one-line error on a bad combination), runs body,
// and routes failures through the crash-bundle path — a panic (including
// the worker pool's deterministic TaskPanic) writes a "panic" bundle and
// re-panics so the process still dies loudly with the original stack; an
// error return writes a "fatal-error" bundle and exits 1 via log.Fatal.
func (c *Common) Main(body func() error) {
	if err := c.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "%s%v\n", log.Prefix(), err)
		os.Exit(2)
	}
	defer func() {
		if r := recover(); r != nil {
			c.CaptureCrash("panic", r)
			panic(r)
		}
	}()
	if err := body(); err != nil {
		c.CaptureCrash("fatal-error", err)
		log.Fatal(err)
	}
}

// OpenCacheStore opens the disk measurement store -cache-dir requests,
// under the given format scope (each record family — lot die records,
// memoized trip points — owns a scope constant, so incompatible segment
// files coexist in one directory and are skipped, not misread). Returns
// (nil, nil) when the flag is unset; callers treat a nil store as "no
// persistence".
func (c *Common) OpenCacheStore(scope uint64) (*cachestore.Store, error) {
	if c.CacheDir == "" {
		return nil, nil
	}
	s, err := cachestore.Open(c.CacheDir, scope)
	if err != nil {
		return nil, fmt.Errorf("cli: opening cache dir: %w", err)
	}
	return s, nil
}

// RecordDiskCache feeds a store's counters into the run telemetry (report
// disk-cache line, Prometheus gauges, live /progress). Nil store or nil
// telemetry is a no-op, so callers can pass both through unconditionally.
func RecordDiskCache(tel *telemetry.Telemetry, store *cachestore.Store) {
	if store == nil {
		return
	}
	st := store.Stats()
	tel.RecordDiskCache(telemetry.DiskCacheStats{
		LoadedEntries:  st.LoadedEntries,
		LoadedSegments: st.LoadedSegments,
		Hits:           st.Hits,
		Misses:         st.Misses,
		FlushedEntries: st.FlushedEntries,
		BytesOnDisk:    st.BytesOnDisk,
	})
}

// StartProfiles starts the profiling the -cpuprofile/-memprofile flags
// request and returns a stop function that must run at the end of the run
// (defer it right after a successful call): it stops the CPU profile and
// writes the heap snapshot. With neither flag set it returns a no-op stop.
func (c *Common) StartProfiles() (stop func() error, err error) {
	var cpuFile *os.File
	if c.CPUProfilePath != "" {
		cpuFile, err = os.Create(c.CPUProfilePath)
		if err != nil {
			return nil, fmt.Errorf("cli: creating cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cli: starting cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cli: closing cpu profile: %w", err)
			}
		}
		if c.MemProfilePath != "" {
			f, err := os.Create(c.MemProfilePath)
			if err != nil {
				return fmt.Errorf("cli: creating mem profile: %w", err)
			}
			// Materialize final live-heap state so the snapshot reflects
			// steady-state retention, not transient garbage.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return fmt.Errorf("cli: writing mem profile: %w", err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("cli: closing mem profile: %w", err)
			}
		}
		return nil
	}, nil
}

// TelemetryEnabled reports whether any telemetry output was requested.
// -crash-dir counts: crash bundles want the live registry and flight
// recorder even when no trace or report was asked for. -run-dir counts for
// the same reason: the ledger record is built from the run's telemetry.
func (c *Common) TelemetryEnabled() bool {
	return c.TracePath != "" || c.MetricsPath != "" || c.Report || c.Listen != "" ||
		c.CrashDir != "" || c.RunDir != ""
}

// StartTelemetry opens the run telemetry the flags describe and installs
// the fleet observer. With -listen set it also starts the live
// observability HTTP server and announces its address on stderr; with
// -listen or -crash-dir it attaches the flight recorder (bounded event ring
// + runtime/metrics sampler) and, when -stall-timeout is set, the stall
// watchdog. All live consumers tap the same deterministic hook points as
// the trace, so trace bytes are identical with and without them. Returns
// nil (a fully inert handle) when no telemetry output was requested.
func (c *Common) StartTelemetry(runName string) (*telemetry.Telemetry, error) {
	if !c.TelemetryEnabled() {
		return nil, nil
	}
	// The run ledger stores the full trace; when -run-dir is set without
	// -trace, record into a temp file that finalize reads back and deletes.
	c.tracePath = c.TracePath
	c.autoTrace = false
	if c.tracePath == "" && c.RunDir != "" {
		tmp, err := os.CreateTemp("", "repro-run-*.jsonl")
		if err != nil {
			return nil, fmt.Errorf("cli: creating ledger trace: %w", err)
		}
		tmp.Close()
		c.tracePath = tmp.Name()
		c.autoTrace = true
	}
	var tracer *telemetry.Tracer
	if c.tracePath != "" {
		var err error
		tracer, err = telemetry.NewFileTracer(c.tracePath)
		if err != nil {
			return nil, fmt.Errorf("cli: opening trace: %w", err)
		}
	}
	if c.RunDir != "" && c.ledger == nil {
		st, err := runstore.Open(c.RunDir)
		if err != nil {
			tracer.Close()
			return nil, fmt.Errorf("cli: opening run ledger: %w", err)
		}
		c.ledger = st
	}
	tel := telemetry.New(runName, tracer)
	c.runName = runName
	c.tel = tel

	progress := c.extProgress
	var recorder *flight.Recorder
	if progress == nil && c.Listen != "" {
		progress = obs.NewProgress(runName)
	}
	c.progress = progress
	if c.Listen != "" || c.CrashDir != "" {
		recorder = flight.New(flight.DefaultCapacity)
		recorder.ExportTo(tel.Registry())
		c.flight = recorder
	}
	tel.SetRunObserver(telemetry.MultiObserver(progress, recorder))
	if recorder != nil {
		c.sampStop = recorder.StartSampler(flight.DefaultSampleInterval)
	}
	if c.Listen != "" && !c.Embedded {
		srv, err := obs.Start(c.Listen, obs.Options{
			Run:      runName,
			Metrics:  tel.Registry().Snapshot,
			Progress: progress,
			Flight:   recorder,
			Ledger:   c.ledger,
			RunInfo:  c.runInfoLabels(tel),
		})
		if err != nil {
			c.stopFlight()
			tel.Close()
			return nil, fmt.Errorf("cli: starting observability server: %w", err)
		}
		c.server = srv
		fmt.Fprintf(os.Stderr, "obs: serving http://%s/ (metrics, progress, flight, pprof)\n", srv.Addr())
	}
	// Fleet scheduling stats are quarantined with the other
	// non-deterministic diagnostics: the report's pool section and nd_
	// metrics in the registry (excluded from determinism diffs), the
	// /progress non_deterministic section and the flight ring. The observer
	// slot is a process-wide (last-wins) global, so an Embedded run — one
	// of several concurrent jobs in a host process — must not install it.
	if !c.Embedded {
		reg := tel.Registry()
		parallel.SetFleetObserver(func(st parallel.StreamStats) {
			total := 0
			for _, n := range st.TasksPerWorker {
				total += n
			}
			tel.ObservePool(st.Workers, st.TasksPerWorker)
			progress.PoolRun(st.Workers, total)
			reg.Counter("nd_fleet_streams_total").Add(1)
			reg.Gauge("nd_fleet_queue_depth").Set(float64(st.MaxRunAhead))
			reg.Gauge("nd_fleet_utilization").Set(st.Utilization())
			reg.Gauge("nd_fleet_overlap_ratio").Set(st.OverlapRatio())
			progress.FleetStream(st.Workers, st.Tasks, st.MaxRunAhead, st.Utilization(), st.OverlapRatio())
			if recorder != nil {
				recorder.PoolRun(st.Workers, total)
				recorder.FleetStream(st.Workers, st.Tasks, st.MaxRunAhead, st.Utilization(), st.OverlapRatio())
			}
		})
	}
	if c.CrashDir != "" && c.StallTimeout > 0 {
		c.wd = c.startWatchdog(c.StallTimeout)
	}

	if c.OnTelemetryStart != nil {
		c.OnTelemetryStart(tel)
	}

	// Fault injection runs last so the bundle it produces captures the live
	// telemetry state, exactly like a real mid-run failure would.
	if err := c.injectFault(); err != nil {
		return tel, err
	}
	return tel, nil
}

// injectFault triggers the -inject-fault testing hook: "task-panic" drives
// the real worker-pool panic path (a task panics, the pool drains and
// re-panics the deterministic TaskPanic envelope), "error" returns a plain
// fatal error. Main's guard turns either into a crash bundle.
func (c *Common) injectFault() error {
	switch c.InjectFault {
	case "task-panic":
		//nolint:errcheck // unreachable: the pool re-panics the TaskPanic
		parallel.Run(4, 2,
			func(w int) (struct{}, error) { return struct{}{}, nil },
			func(wk struct{}, i int) error {
				if i == 2 {
					panic(fmt.Sprintf("injected fault (task %d)", i))
				}
				return nil
			})
		return nil
	case "error":
		return fmt.Errorf("cli: injected fatal error (-inject-fault=error)")
	}
	return nil
}

// stopFlight tears down the sampler and watchdog (idempotent, nil-safe).
func (c *Common) stopFlight() {
	c.wd.Stop()
	c.wd = nil
	if c.sampStop != nil {
		c.sampStop()
		c.sampStop = nil
	}
}

// FinishTelemetry closes out the run: closes the trace (so the run-end
// line is flushed and the fingerprint covers the whole file), writes the
// -metrics snapshot, prints the -report run report to w, finalizes the
// -run-dir ledger record, uninstalls the fleet observer and shuts the
// -listen server down. Sink I/O failures (a full disk, a closed pipe)
// surface as errors so the binaries exit nonzero instead of silently
// shipping a truncated trace or report. total is the whole run's tester
// cost. Nil tel is a no-op.
func (c *Common) FinishTelemetry(w io.Writer, tel *telemetry.Telemetry, total ate.Stats) error {
	if tel == nil {
		return nil
	}
	// Watchdog first: a completed run must never race a stall bundle.
	c.stopFlight()
	if !c.Embedded {
		parallel.SetFleetObserver(nil)
	}
	closeErr := tel.Close()
	rep := tel.Report(Cost(total))
	c.lastFingerprint = rep.Fingerprint
	c.progress.SetFingerprint(rep.Fingerprint)
	c.progress.Done()
	if c.MetricsPath != "" {
		f, err := os.Create(c.MetricsPath)
		if err != nil {
			return fmt.Errorf("cli: writing metrics: %w", err)
		}
		if err := rep.Metrics.WriteJSON(f); err != nil {
			f.Close()
			return fmt.Errorf("cli: writing metrics: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("cli: closing metrics: %w", err)
		}
	}
	if c.Report {
		if _, err := fmt.Fprint(w, rep.Render()); err != nil {
			return fmt.Errorf("cli: printing report: %w", err)
		}
	}
	// The record is built only when the trace closed cleanly — a truncated
	// trace must not become ledger history.
	var ledgerErr error
	if closeErr == nil {
		ledgerErr = c.finalizeRun(rep)
	}
	if c.server != nil {
		// Let in-flight /progress streams drain the done state first.
		if err := c.server.Close(); err != nil {
			return fmt.Errorf("cli: closing observability server: %w", err)
		}
		c.server = nil
		c.progress = nil
	}
	c.tel = nil
	c.flight = nil
	if closeErr != nil {
		return fmt.Errorf("cli: closing trace: %w", closeErr)
	}
	if ledgerErr != nil {
		return fmt.Errorf("cli: recording run: %w", ledgerErr)
	}
	return nil
}

// Abort tears a started run's telemetry down without finalizing anything:
// samplers and watchdog stop, the trace file closes (and a ledger-owned temp
// trace is deleted), the progress publisher is marked done so subscribers
// unblock, and the observability server (if any) shuts down. No metrics,
// report or ledger record is written — the run did not finish. For hosts
// (the job service) whose flow body returned an error before reaching
// FinishTelemetry; idempotent.
func (c *Common) Abort() {
	c.stopFlight()
	if !c.Embedded {
		parallel.SetFleetObserver(nil)
	}
	if c.tel != nil {
		c.tel.Close() //nolint:errcheck // aborting; the trace is discarded anyway
		c.tel = nil
	}
	if c.autoTrace && c.tracePath != "" {
		os.Remove(c.tracePath)
		c.autoTrace = false
	}
	c.progress.Done()
	if c.server != nil {
		c.server.Close() //nolint:errcheck // best-effort teardown
		c.server = nil
	}
	c.flight = nil
}

// Cost converts tester counters into a telemetry cost.
func Cost(s ate.Stats) telemetry.Cost {
	return telemetry.Cost{
		Measurements: s.Measurements,
		Vectors:      s.VectorsApplied,
		Profiles:     s.Profiles,
		SimTimeSec:   s.TestTimeSec,
	}
}

// Delta is the tester cost consumed between two stat snapshots.
func Delta(before, after ate.Stats) telemetry.Cost {
	return telemetry.Cost{
		Measurements: after.Measurements - before.Measurements,
		Vectors:      after.VectorsApplied - before.VectorsApplied,
		Profiles:     after.Profiles - before.Profiles,
		SimTimeSec:   after.TestTimeSec - before.TestTimeSec,
	}
}

// PrintCacheSummary prints the one-line measurement memo-cache summary the
// binaries share. Disabled caches (zero lookups) report as such.
func PrintCacheSummary(w io.Writer, hits, misses int64) {
	lookups := hits + misses
	if lookups == 0 {
		fmt.Fprintln(w, "measurement cache: no lookups (cache disabled or unused)")
		return
	}
	fmt.Fprintf(w, "measurement cache: %d hits / %d misses (hit rate %.1f%%)\n",
		hits, misses, 100*float64(hits)/float64(lookups))
}
