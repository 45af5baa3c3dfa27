// Package flight is the post-mortem side of the observability layer: a
// bounded, lock-striped ring buffer that keeps the most recent run events
// (phase boundaries, searches, cache lookups, GA generations, item
// progress, pool runs) together with periodic runtime/metrics samples
// (heap size, GC pauses, goroutine count, scheduling latency).
//
// The recorder taps the same telemetry.RunObserver hook points as the live
// /progress feed, so it inherits the determinism contract for free: it only
// consumes callbacks, never feeds anything back into the tracer or the
// deterministic metrics, and attaching it cannot change a single trace byte
// (pinned by internal/obs's determinism tests). Everything the recorder
// holds — wall-clock timestamps, runtime samples — is non-deterministic by
// nature and is therefore always exported under an explicit
// `non_deterministic` quarantine, exactly like /progress's ND block.
//
// Consumers: the /debug/flight endpoint (internal/obs) serves the ring tail
// live, crash bundles (internal/cli) persist it post mortem, and the stall
// watchdog uses LastEventUnixNano to detect a run that stopped making
// progress.
package flight

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// DefaultCapacity is the ring capacity the binaries use: enough to hold the
// tail of a busy phase (searches arrive in the thousands) without holding a
// whole run.
const DefaultCapacity = 512

// DefaultSampleInterval is how often the sampler reads runtime/metrics.
const DefaultSampleInterval = 500 * time.Millisecond

// Event is one recorded observer callback. Timestamps are wall-clock and
// therefore non-deterministic; they exist for post-mortem forensics, never
// for traces.
type Event struct {
	Seq          uint64             `json:"seq"`
	TimeUnixNano int64              `json:"time_unix_nano"`
	Kind         string             `json:"kind"`
	Name         string             `json:"name,omitempty"`
	Fields       map[string]float64 `json:"fields,omitempty"`
}

// Sample is one runtime/metrics reading: the process-health counters a
// post-mortem wants next to the event tail.
type Sample struct {
	TimeUnixNano       int64   `json:"time_unix_nano"`
	HeapBytes          uint64  `json:"heap_bytes"`
	Goroutines         int64   `json:"goroutines"`
	GCCycles           uint64  `json:"gc_cycles"`
	GCPauseP50Sec      float64 `json:"gc_pause_p50_sec"`
	GCPauseP99Sec      float64 `json:"gc_pause_p99_sec"`
	SchedLatencyP50Sec float64 `json:"sched_latency_p50_sec"`
	SchedLatencyP99Sec float64 `json:"sched_latency_p99_sec"`
}

// Snapshot is the exported recorder state. Callers embed it under a
// `non_deterministic` JSON key — nothing in here is stable across runs.
type Snapshot struct {
	TotalEvents       uint64  `json:"total_events"`
	Capacity          int     `json:"capacity"`
	LastEventUnixNano int64   `json:"last_event_unix_nano,omitempty"`
	Events            []Event `json:"events"`
	RuntimeSample     *Sample `json:"runtime_sample,omitempty"`
}

// stripe is one lock shard of the ring. Events are spread across stripes by
// sequence number, so concurrent recorders rarely contend on one mutex; the
// global order is recovered at read time by merging on Seq.
type stripe struct {
	mu  sync.Mutex
	buf []Event
	n   uint64 // events ever appended to this stripe
}

// Recorder is the bounded flight recorder. All methods are safe for
// concurrent use and nil-receiver-safe, so instrumentation can carry a nil
// recorder without enabled-checks.
type Recorder struct {
	stripes []stripe
	mask    uint64
	seq     atomic.Uint64
	lastNS  atomic.Int64
	sample  atomic.Pointer[Sample]

	// reg receives the nd_flight_* gauges on every sample (nil: none).
	reg *telemetry.Registry

	samplerStop chan struct{}
	samplerDone chan struct{}
}

// New builds a recorder holding at most capacity events (values below 16
// are raised to 16), striped across 8 locks.
func New(capacity int) *Recorder {
	if capacity < 16 {
		capacity = 16
	}
	const nStripes = 8
	per := (capacity + nStripes - 1) / nStripes
	r := &Recorder{stripes: make([]stripe, nStripes), mask: nStripes - 1}
	for i := range r.stripes {
		r.stripes[i].buf = make([]Event, per)
	}
	return r
}

// ExportTo mirrors each runtime sample as nd_flight_* gauges in reg, so the
// Prometheus bridge serves process health next to the run metrics. Call
// before StartSampler. Nil-safe.
func (r *Recorder) ExportTo(reg *telemetry.Registry) {
	if r != nil {
		r.reg = reg
	}
}

// Capacity returns the total ring capacity. Nil-safe.
func (r *Recorder) Capacity() int {
	if r == nil {
		return 0
	}
	n := 0
	for i := range r.stripes {
		n += len(r.stripes[i].buf)
	}
	return n
}

// TotalEvents returns how many events were ever recorded (recorded, not
// retained — the ring keeps only the newest Capacity of them). Nil-safe.
func (r *Recorder) TotalEvents() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// LastEventUnixNano returns the wall-clock time of the newest progress
// event, or 0 when none has arrived. Runtime samples deliberately do not
// count: the stall watchdog wants "the run stopped reporting progress", and
// the sampler keeps ticking through a hang. Nil-safe.
func (r *Recorder) LastEventUnixNano() int64 {
	if r == nil {
		return 0
	}
	return r.lastNS.Load()
}

// Record appends one event to the ring. Nil-safe.
func (r *Recorder) Record(kind, name string, fields map[string]float64) {
	r.record(kind, name, fields, true)
}

func (r *Recorder) record(kind, name string, fields map[string]float64, progress bool) {
	if r == nil {
		return
	}
	now := time.Now().UnixNano()
	if progress {
		r.lastNS.Store(now)
	}
	seq := r.seq.Add(1)
	st := &r.stripes[seq&r.mask]
	st.mu.Lock()
	st.buf[st.n%uint64(len(st.buf))] = Event{
		Seq: seq, TimeUnixNano: now, Kind: kind, Name: name, Fields: fields,
	}
	st.n++
	st.mu.Unlock()
}

// Tail returns up to max buffered events, oldest first (max <= 0 returns
// everything buffered). Nil-safe.
func (r *Recorder) Tail(max int) []Event {
	if r == nil {
		return nil
	}
	var all []Event
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.Lock()
		kept := st.n
		if kept > uint64(len(st.buf)) {
			kept = uint64(len(st.buf))
		}
		for j := uint64(0); j < kept; j++ {
			all = append(all, st.buf[(st.n-kept+j)%uint64(len(st.buf))])
		}
		st.mu.Unlock()
	}
	// Merge the stripes back into global order.
	sortEvents(all)
	if max > 0 && len(all) > max {
		all = all[len(all)-max:]
	}
	return all
}

// sortEvents orders by Seq ascending (insertion sort is fine at ring sizes;
// stripes are already sorted, so runs are long and nearly merged).
func sortEvents(ev []Event) {
	for i := 1; i < len(ev); i++ {
		for j := i; j > 0 && ev[j].Seq < ev[j-1].Seq; j-- {
			ev[j], ev[j-1] = ev[j-1], ev[j]
		}
	}
}

// LatestSample returns the newest runtime sample, or nil before the first
// one. Nil-safe.
func (r *Recorder) LatestSample() *Sample {
	if r == nil {
		return nil
	}
	return r.sample.Load()
}

// Snapshot exports the recorder state for JSON serving (max <= 0: all
// buffered events). Nil-safe (zero snapshot).
func (r *Recorder) Snapshot(max int) Snapshot {
	if r == nil {
		return Snapshot{Events: []Event{}}
	}
	ev := r.Tail(max)
	if ev == nil {
		ev = []Event{}
	}
	return Snapshot{
		TotalEvents:       r.TotalEvents(),
		Capacity:          r.Capacity(),
		LastEventUnixNano: r.LastEventUnixNano(),
		Events:            ev,
		RuntimeSample:     r.LatestSample(),
	}
}

// StartSampler begins periodic runtime/metrics sampling (interval <= 0
// takes DefaultSampleInterval): one sample immediately, then one per tick,
// each stored as the latest sample, appended to the ring as a
// "runtime-sample" event and mirrored as nd_flight_* gauges when a registry
// is attached. The returned stop function blocks until the sampler goroutine
// has exited; calling it twice is safe. Nil-safe (returns a no-op stop).
func (r *Recorder) StartSampler(interval time.Duration) (stop func()) {
	if r == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	r.samplerStop = make(chan struct{})
	r.samplerDone = make(chan struct{})
	stopCh, doneCh := r.samplerStop, r.samplerDone
	r.takeSample()
	go func() {
		defer close(doneCh)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stopCh:
				return
			case <-ticker.C:
				r.takeSample()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(stopCh)
			<-doneCh
		})
	}
}

// runtimeSampleNames are the runtime/metrics series the sampler reads.
var runtimeSampleNames = []string{
	"/memory/classes/heap/objects:bytes",
	"/sched/goroutines:goroutines",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
}

// takeSample reads runtime/metrics into a Sample, publishes it, appends it
// to the ring (as a non-progress event) and updates the gauges.
func (r *Recorder) takeSample() {
	batch := make([]metrics.Sample, len(runtimeSampleNames))
	for i, name := range runtimeSampleNames {
		batch[i].Name = name
	}
	metrics.Read(batch)
	s := &Sample{TimeUnixNano: time.Now().UnixNano()}
	for _, m := range batch {
		switch m.Name {
		case "/memory/classes/heap/objects:bytes":
			if m.Value.Kind() == metrics.KindUint64 {
				s.HeapBytes = m.Value.Uint64()
			}
		case "/sched/goroutines:goroutines":
			if m.Value.Kind() == metrics.KindUint64 {
				s.Goroutines = int64(m.Value.Uint64())
			}
		case "/gc/cycles/total:gc-cycles":
			if m.Value.Kind() == metrics.KindUint64 {
				s.GCCycles = m.Value.Uint64()
			}
		case "/gc/pauses:seconds":
			if m.Value.Kind() == metrics.KindFloat64Histogram {
				h := m.Value.Float64Histogram()
				s.GCPauseP50Sec = histQuantile(h, 0.50)
				s.GCPauseP99Sec = histQuantile(h, 0.99)
			}
		case "/sched/latencies:seconds":
			if m.Value.Kind() == metrics.KindFloat64Histogram {
				h := m.Value.Float64Histogram()
				s.SchedLatencyP50Sec = histQuantile(h, 0.50)
				s.SchedLatencyP99Sec = histQuantile(h, 0.99)
			}
		}
	}
	r.sample.Store(s)
	r.record("runtime-sample", "", map[string]float64{
		"heap_bytes": float64(s.HeapBytes),
		"goroutines": float64(s.Goroutines),
		"gc_cycles":  float64(s.GCCycles),
	}, false)
	if reg := r.reg; reg != nil {
		// nd_ prefix: wall-clock/runtime-derived, excluded from determinism
		// comparisons by the telemetry naming convention.
		reg.Gauge(telemetry.NonDeterministicPrefix + "flight_heap_bytes").Set(float64(s.HeapBytes))
		reg.Gauge(telemetry.NonDeterministicPrefix + "flight_goroutines").Set(float64(s.Goroutines))
		reg.Gauge(telemetry.NonDeterministicPrefix + "flight_gc_cycles_total").Set(float64(s.GCCycles))
		reg.Gauge(telemetry.NonDeterministicPrefix + "flight_gc_pause_p99_seconds").Set(s.GCPauseP99Sec)
		reg.Gauge(telemetry.NonDeterministicPrefix + "flight_sched_latency_p99_seconds").Set(s.SchedLatencyP99Sec)
		reg.Gauge(telemetry.NonDeterministicPrefix + "flight_events_total").Set(float64(r.TotalEvents()))
	}
}

// histQuantile estimates the q-quantile of a runtime/metrics histogram by
// the upper bound of the containing bucket (conservative: the reported
// latency is never below the true quantile). Infinite bounds clamp to the
// nearest finite one.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil || len(h.Counts) == 0 {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	lastFinite := 0.0
	for i, c := range h.Counts {
		// Bucket i spans [Buckets[i], Buckets[i+1]).
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if !isInf(lo) {
			lastFinite = lo
		}
		cum += c
		if float64(cum) >= rank {
			if isInf(hi) {
				return lastFinite
			}
			return hi
		}
		if !isInf(hi) {
			lastFinite = hi
		}
	}
	return lastFinite
}

func isInf(f float64) bool { return f > 1e308 || f < -1e308 }

// --- telemetry.RunObserver ------------------------------------------------

var _ telemetry.RunObserver = (*Recorder)(nil)

// PhaseStarted implements telemetry.RunObserver.
func (r *Recorder) PhaseStarted(name string) {
	r.Record("phase-start", name, nil)
}

// PhaseEnded implements telemetry.RunObserver.
func (r *Recorder) PhaseEnded(name string, cost telemetry.Cost) {
	r.Record("phase-end", name, map[string]float64{
		"measurements": float64(cost.Measurements),
		"vectors":      float64(cost.Vectors),
		"profiles":     float64(cost.Profiles),
		"sim_time_sec": cost.SimTimeSec,
	})
}

// SearchRecorded implements telemetry.RunObserver.
func (r *Recorder) SearchRecorded(measurements, fullRangeBudget int, converged bool) {
	conv := 0.0
	if converged {
		conv = 1
	}
	r.Record("search", "", map[string]float64{
		"measurements": float64(measurements),
		"baseline":     float64(fullRangeBudget),
		"converged":    conv,
	})
}

// CacheLookups implements telemetry.RunObserver.
func (r *Recorder) CacheLookups(hits, misses int64, fullRangeBudget int) {
	r.Record("cache", "", map[string]float64{
		"hits":   float64(hits),
		"misses": float64(misses),
	})
}

// DiskCache implements telemetry.RunObserver.
func (r *Recorder) DiskCache(d telemetry.DiskCacheStats) {
	r.Record("disk-cache", "", map[string]float64{
		"loaded": float64(d.LoadedEntries),
		"hits":   float64(d.Hits),
		"misses": float64(d.Misses),
		"bytes":  float64(d.BytesOnDisk),
	})
}

// Generation implements telemetry.RunObserver.
func (r *Recorder) Generation(gen int, bestWCR float64) {
	r.Record("generation", "", map[string]float64{
		"gen":      float64(gen),
		"best_wcr": bestWCR,
	})
}

// Item implements telemetry.RunObserver.
func (r *Recorder) Item(kind string, done, total int) {
	r.Record("item", kind, map[string]float64{
		"done":  float64(done),
		"total": float64(total),
	})
}

// PoolRun records one worker-pool execution summary (fed from the CLI's
// fleet observer, which runs after each fleet stage drains).
func (r *Recorder) PoolRun(workers, tasks int) {
	r.Record("pool", "", map[string]float64{
		"workers": float64(workers),
		"tasks":   float64(tasks),
	})
}

// FleetStream records one fleet stream drain (fed from the CLI's fleet
// observer): queue depth is the out-of-order run-ahead high-water mark,
// utilization and overlap are the stream's worker-occupancy and
// merge-under-measurement ratios.
func (r *Recorder) FleetStream(workers, tasks, maxRunAhead int, utilization, overlapRatio float64) {
	r.Record("fleet", "", map[string]float64{
		"workers":       float64(workers),
		"tasks":         float64(tasks),
		"queue_depth":   float64(maxRunAhead),
		"utilization":   utilization,
		"overlap_ratio": overlapRatio,
	})
}
