package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the layer boundary. Spans of one flow, die window or job share Trace.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder started
	End    int64  `json:"end_ns"`
}

// recorder keeps a traced run's spans and counters in memory; they are
// written out once, when the run ends. A nil *recorder is the untraced
// run: every method is then a no-op.
type recorder struct {
	t0 time.Time

	mu       sync.Mutex
	spans    []span
	counters map[string]float64
	fleet    fleetTotals
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), counters: map[string]float64{}}
}

// spanRef is an open span. The zero value (from a nil recorder) is inert.
type spanRef struct {
	r   *recorder
	idx int
}

// begin opens a span under parent (0 for a root span).
func (r *recorder) begin(name, trace string, parent int64) spanRef {
	if r == nil {
		return spanRef{}
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: int64(len(r.spans) + 1), Parent: parent, Trace: trace, Name: name, Start: now, End: -1,
	})
	return spanRef{r: r, idx: len(r.spans) - 1}
}

// id is the span's identifier, 0 for an inert span.
func (s spanRef) id() int64 {
	if s.r == nil {
		return 0
	}
	return int64(s.idx + 1)
}

func (s spanRef) end() {
	if s.r == nil {
		return
	}
	now := time.Since(s.r.t0).Nanoseconds()
	s.r.mu.Lock()
	s.r.spans[s.idx].End = now
	s.r.mu.Unlock()
}

// addSpan records a span whose bounds were measured elsewhere (a job's own
// Submitted/Started/Finished timestamps).
func (r *recorder) addSpan(name, trace string, parent int64, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: int64(len(r.spans) + 1), Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
	})
}

// add accumulates a named counter.
func (r *recorder) add(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += v
	r.mu.Unlock()
}

// raise lifts a named counter to v if v is larger (a high-water mark).
func (r *recorder) raise(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] = max(r.counters[name], v)
	r.mu.Unlock()
}

func (r *recorder) counter(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// durations returns the lengths in seconds of every closed span named name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// meanSpan is the mean duration in seconds of the spans named name, 0 when
// the layer was not called.
func (r *recorder) meanSpan(name string) float64 { return mean(r.durations(name)) }

// fleetTotals sums the scheduling summaries of every fleet stage.
type fleetTotals struct {
	busyNanos       float64 // task execution time, summed over workers
	workerWallNanos float64 // workers × stage wall time
	wallNanos       float64 // stage wall time
	deliverNanos    float64 // time in the serial in-order deliver callback
	maxRunAhead     int
}

// observeFleet is the parallel.FleetObserver of a traced pass. The slot is
// process-wide, so it is installed only around the traced pass.
func (r *recorder) observeFleet(s parallel.StreamStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fleet.busyNanos += float64(s.BusyNanos)
	r.fleet.workerWallNanos += float64(s.Workers) * float64(s.WallNanos)
	r.fleet.wallNanos += float64(s.WallNanos)
	r.fleet.deliverNanos += float64(s.DeliverNanos)
	r.fleet.maxRunAhead = max(r.fleet.maxRunAhead, s.MaxRunAhead)
}

// writeSpans writes the provenance header and every span as JSON lines.
func (r *recorder) writeSpans(path string, prov provenance) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(struct {
		Provenance provenance `json:"provenance"`
	}{prov}); err != nil {
		f.Close()
		return err
	}
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// flowObserver is the telemetry.RunObserver of one traced flow: it turns
// phase boundaries into spans, lot progress into die-window spans, and
// search and memo-cache callbacks into counters. Callbacks fire from the
// flow's serial program points, one flow at a time.
type flowObserver struct {
	rec    *recorder
	trace  string
	parent int64 // the public-call span the next phases nest under
	phases map[string]spanRef

	window     int // dies per die-window span
	windowSpan spanRef
	windowOpen bool
}

// observer returns a RunObserver for one flow, or nil when untraced.
func (r *recorder) observer(trace string, window int) *flowObserver {
	if r == nil {
		return nil
	}
	return &flowObserver{rec: r, trace: trace, phases: map[string]spanRef{}, window: window}
}

// telemetry wraps the observer in the telemetry handle a flow accepts
// (nil when untraced, which leaves the flow uninstrumented).
func (o *flowObserver) telemetry() *telemetry.Telemetry {
	if o == nil {
		return nil
	}
	tel := telemetry.New("perfbench", nil)
	tel.SetRunObserver(o)
	return tel
}

// call opens a span around one public call and makes it the parent of the
// phases that call opens.
func (o *flowObserver) call(name string, parent int64) spanRef {
	if o == nil {
		return spanRef{}
	}
	sp := o.rec.begin(name, o.trace, parent)
	o.parent = sp.id()
	return sp
}

func (o *flowObserver) PhaseStarted(name string) {
	o.phases[name] = o.rec.begin("core.phase."+name, o.trace, o.parent)
}

func (o *flowObserver) PhaseEnded(name string, _ telemetry.Cost) {
	if sp, ok := o.phases[name]; ok {
		sp.end()
		delete(o.phases, name)
	}
}

func (o *flowObserver) SearchRecorded(measurements, _ int, converged bool) {
	o.rec.add("search.searches", 1)
	o.rec.add("search.measurements", float64(measurements))
	if converged {
		o.rec.add("search.converged", 1)
	}
}

func (o *flowObserver) CacheLookups(hits, misses int64, _ int) {
	o.rec.add("parallel.memo_hits", float64(hits))
	o.rec.add("parallel.memo_lookups", float64(hits+misses))
}

func (o *flowObserver) DiskCache(telemetry.DiskCacheStats) {}

func (o *flowObserver) Generation(int, float64) {}

// Item turns per-die progress into die-window spans of o.window dies.
func (o *flowObserver) Item(kind string, done, total int) {
	if kind != "die" || o.window < 1 {
		return
	}
	if !o.windowOpen {
		o.windowSpan = o.rec.begin("lot.die_window", fmt.Sprintf("%s/w%d", o.trace, (done-1)/o.window), o.parent)
		o.windowOpen = true
	}
	if done%o.window == 0 || done == total {
		o.windowSpan.end()
		o.windowOpen = false
	}
}
