package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/recordio"
)

// Queue is the crash-safe persistent job queue. Every state transition is
// one JSON entry appended to a journal through a recordio.Log, fsync'd
// before it is acknowledged and rolled back if that fails, so a killed
// server reopens the journal and resumes exactly the acknowledged pending
// set: queued jobs stay queued, jobs caught mid-run return to the queue,
// and a cancellation that raced the crash wins. A torn final frame — all
// a crash mid-append can leave — is dropped on load; corruption anywhere
// earlier means the disk is lying, and the queue refuses to load.
type Queue struct {
	mu      sync.Mutex
	log     *recordio.Log
	jobs    map[string]*Job
	nextSeq int64
}

const (
	// journalMagic identifies (and versions) the journal format.
	journalMagic = "RPROJOB1"
	// journalName is the journal's filename inside the queue dir.
	journalName = "jobs.journal"
	// maxEntryLen bounds one journal frame; anything larger is corruption,
	// not a job (the largest legitimate entry is a Job with a small Args
	// map and a captured-output tail).
	maxEntryLen = 1 << 20
)

// journalEntry is one journal frame: a job state transition.
type journalEntry struct {
	// Op: "submit", "start", "finish" or "cancel".
	Op string `json:"op"`
	// Job carries the full record on submit (and on compaction, where the
	// stored State is authoritative).
	Job *Job `json:"job,omitempty"`
	// ID targets an existing job for start/finish/cancel.
	ID string `json:"id,omitempty"`
	// State is the terminal state on finish.
	State       State  `json:"state,omitempty"`
	RunID       string `json:"run_id,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Error       string `json:"error,omitempty"`
	Output      string `json:"output,omitempty"`
	// At is the transition's wall-clock unix-nano timestamp.
	At int64 `json:"at,omitempty"`
}

// marshalEntry renders one journal entry's frame payload.
func marshalEntry(e journalEntry) ([]byte, error) {
	payload, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("jobs: encode journal entry: %w", err)
	}
	if len(payload) > maxEntryLen {
		return nil, fmt.Errorf("jobs: journal entry too large (%d bytes)", len(payload))
	}
	return payload, nil
}

// readJournal decodes the entries in data (the bytes after the magic),
// dropping a torn final frame. Any other damage is a hard error: replaying
// past silent corruption would resurrect or lose jobs.
func readJournal(data []byte) ([]journalEntry, error) {
	var entries []journalEntry
	err := recordio.Scan(data, maxEntryLen, func(payload []byte) error {
		entries = append(entries, journalEntry{})
		return json.Unmarshal(payload, &entries[len(entries)-1])
	})
	var re *recordio.Error
	if errors.As(err, &re) && !re.Torn {
		return nil, fmt.Errorf("jobs: corrupt journal: %w", err)
	}
	return entries, nil
}

// apply folds one journal entry into jobs. Replay on Open and every live
// transition share it, so a reopened queue holds exactly the state the
// running one served. Unknown IDs and out-of-order transitions are errors:
// a journal the queue wrote itself never contains them.
func apply(jobs map[string]*Job, e journalEntry) error {
	if e.Op == "submit" {
		if e.Job == nil || e.Job.ID == "" {
			return errors.New("submit without job")
		}
		j := e.Job.clone()
		if j.State == "" {
			j.State = StateQueued
		}
		if !j.State.valid() {
			return fmt.Errorf("unknown state %q", j.State)
		}
		jobs[j.ID] = j
		return nil
	}
	j, ok := jobs[e.ID]
	if !ok {
		return fmt.Errorf("%s of unknown job %q", e.Op, e.ID)
	}
	switch {
	case e.Op == "start":
		j.State, j.StartedUnixNano = StateRunning, e.At
	case e.Op == "finish" && e.State.Terminal():
		j.State, j.RunID, j.Fingerprint, j.Error, j.Output = e.State, e.RunID, e.Fingerprint, e.Error, e.Output
		j.FinishedUnixNano, j.CancelRequested = e.At, false
	case e.Op == "cancel" && j.State == StateQueued:
		j.State, j.Error, j.FinishedUnixNano = StateCanceled, ErrCanceled.Error(), e.At
	case e.Op == "cancel" && j.State == StateRunning:
		j.CancelRequested = true
	case e.Op == "cancel": // already terminal: nothing left to cancel
	default:
		return fmt.Errorf("invalid %s entry (state %q)", e.Op, e.State)
	}
	return nil
}

// replay folds a whole journal into a job map and the next sequence number.
func replay(entries []journalEntry) (map[string]*Job, int64, error) {
	jobs := make(map[string]*Job)
	var nextSeq int64 = 1
	for i, e := range entries {
		if err := apply(jobs, e); err != nil {
			return nil, 0, fmt.Errorf("jobs: journal entry %d: %w", i, err)
		}
		if e.Op == "submit" && e.Job.Seq >= nextSeq {
			nextSeq = e.Job.Seq + 1
		}
	}
	return jobs, nextSeq, nil
}

// Open loads (or creates) the queue journal in dir, resumes the pending
// set, and compacts the journal down to one entry per live job. Jobs that
// were running when the previous process died go back to the queue — their
// partial run wrote nothing durable (the ledger finalizes atomically) — and
// a running job whose cancellation was journalled before the crash lands
// in canceled, not back in the queue.
func Open(dir string) (*Queue, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: create queue dir: %w", err)
	}
	path := filepath.Join(dir, journalName)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("jobs: read journal: %w", err)
	}
	var entries []journalEntry
	if len(data) > 0 {
		if !bytes.HasPrefix(data, []byte(journalMagic)) {
			return nil, fmt.Errorf("jobs: %s is not a job journal (bad magic)", path)
		}
		if entries, err = readJournal(data[len(journalMagic):]); err != nil {
			return nil, err
		}
	}
	jobs, nextSeq, err := replay(entries)
	if err != nil {
		return nil, err
	}
	now := time.Now().UnixNano()
	for _, j := range jobs {
		if j.State == StateRunning && j.CancelRequested {
			j.State, j.Error, j.FinishedUnixNano, j.CancelRequested = StateCanceled, ErrCanceled.Error(), now, false
		} else if j.State == StateRunning {
			j.State, j.StartedUnixNano = StateQueued, 0
		}
	}

	// Compact to one submit entry per job, atomically, then append from
	// there: this bounds the journal and makes the resume durable.
	compacted := []byte(journalMagic)
	for _, j := range sortedBySeq(jobs) {
		payload, err := marshalEntry(journalEntry{Op: "submit", Job: j})
		if err != nil {
			return nil, err
		}
		compacted = recordio.Append(compacted, payload)
	}
	if err := recordio.WriteFileAtomic(path, compacted); err != nil {
		return nil, fmt.Errorf("jobs: compact journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: open journal: %w", err)
	}
	return &Queue{log: recordio.NewLog(f, int64(len(compacted))), jobs: jobs, nextSeq: nextSeq}, nil
}

// sortedBySeq returns the jobs in submission order.
func sortedBySeq(jobs map[string]*Job) []*Job {
	out := make([]*Job, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// commit journals e durably (fsync before the transition is acknowledged)
// and applies it. Caller holds q.mu.
func (q *Queue) commit(e journalEntry) error {
	payload, err := marshalEntry(e)
	if err == nil {
		err = q.log.Append(payload)
	}
	if err == nil {
		err = apply(q.jobs, e)
	}
	return err
}

// Submit journals a new queued job and returns its record.
func (q *Queue) Submit(sub Submission) (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j := &Job{
		Seq:               q.nextSeq,
		ID:                jobID(q.nextSeq),
		Submission:        sub,
		Workers:           normalizeWorkers(sub.Parallel),
		State:             StateQueued,
		SubmittedUnixNano: time.Now().UnixNano(),
	}
	if err := q.commit(journalEntry{Op: "submit", Job: j}); err != nil {
		return nil, err
	}
	q.nextSeq++
	return j.clone(), nil
}

// normalizeWorkers resolves a submission's Parallel into a worker claim.
func normalizeWorkers(parallel int) int {
	if parallel < 1 {
		return 1
	}
	return parallel
}

// Start journals the queued→running transition.
func (q *Queue) Start(id string) (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	if j.State != StateQueued {
		return nil, fmt.Errorf("jobs: start %s: job is %s, not queued", id, j.State)
	}
	if err := q.commit(journalEntry{Op: "start", ID: id, At: time.Now().UnixNano()}); err != nil {
		return nil, err
	}
	return j.clone(), nil
}

// Finish journals a running job's terminal transition.
func (q *Queue) Finish(id string, state State, runID, fingerprint, errMsg, output string) (*Job, error) {
	if !state.Terminal() {
		return nil, fmt.Errorf("jobs: finish %s with non-terminal state %q", id, state)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	if j.State.Terminal() {
		return nil, ErrTerminal
	}
	if err := q.commit(journalEntry{
		Op: "finish", ID: id, State: state,
		RunID: runID, Fingerprint: fingerprint, Error: errMsg, Output: output, At: time.Now().UnixNano(),
	}); err != nil {
		return nil, err
	}
	return j.clone(), nil
}

// Cancel journals a cancellation. A queued job lands in canceled
// immediately (canceledNow true); a running job gets CancelRequested set
// and finishes through Finish once the flow observes the request at its
// next phase boundary.
func (q *Queue) Cancel(id string) (j *Job, canceledNow bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	job, ok := q.jobs[id]
	if !ok {
		return nil, false, ErrNotFound
	}
	if job.State.Terminal() {
		return nil, false, ErrTerminal
	}
	canceledNow = job.State == StateQueued
	if err := q.commit(journalEntry{Op: "cancel", ID: id, At: time.Now().UnixNano()}); err != nil {
		return nil, false, err
	}
	return job.clone(), canceledNow, nil
}

// Get returns a copy of one job.
func (q *Queue) Get(id string) (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j.clone(), nil
}

// List returns copies of every job in submission order.
func (q *Queue) List() []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := sortedBySeq(q.jobs)
	for i, j := range out {
		out[i] = j.clone()
	}
	return out
}

// NextRunnable returns the queued job that should dispatch next — highest
// priority first, submission order within a priority — or nil when the
// queue holds no queued jobs. The executor dispatches strictly from this
// head: a head too wide for the remaining worker budget blocks lower
// priorities behind it rather than being overtaken.
func (q *Queue) NextRunnable() *Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	var best *Job
	for _, j := range q.jobs {
		if j.State != StateQueued {
			continue
		}
		if best == nil || j.Priority > best.Priority || (j.Priority == best.Priority && j.Seq < best.Seq) {
			best = j
		}
	}
	if best == nil {
		return nil
	}
	return best.clone()
}

// Close releases the journal handle. The queue is unusable afterwards.
func (q *Queue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.log == nil {
		return nil
	}
	err := q.log.Close()
	q.log = nil
	return err
}
