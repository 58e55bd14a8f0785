package service

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"uicwelfare/internal/telemetry"
)

// JobState is the lifecycle of an asynchronous job.
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// EventProgress is the JobEvent type of non-terminal progress reports;
// terminal events use the finished job's state ("done", "failed",
// "canceled") as their type.
const EventProgress = "progress"

// JobEvent is one entry of a job's event stream, served over SSE by
// GET /v1/jobs/{id}/events (the event's Type is the SSE event name).
type JobEvent struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"`
	// TraceID correlates the event with the request's trace (the id of
	// the X-Welmax-Trace-Id header); publishLocked stamps it from the
	// job when the publisher left it empty.
	TraceID string `json:"trace_id,omitempty"`
	// Stage/Round/Done/Total mirror progress.Event for Type "progress".
	Stage string `json:"stage,omitempty"`
	Round int    `json:"round,omitempty"`
	Done  int    `json:"done,omitempty"`
	Total int    `json:"total,omitempty"`
	// SeedPrefix, on "select"-stage progress events, is the ordered
	// seed prefix the greedy selection has committed to so far.
	SeedPrefix []int64 `json:"seed_prefix,omitempty"`
	// Cell/CellState/CellJob/Node appear on a sweep job's per-cell
	// progress events: which grid cell changed state ("running", "done",
	// "failed", "canceled"), the cell's own job id, and the node it ran
	// on (cluster sweeps).
	Cell      string `json:"cell,omitempty"`
	CellState string `json:"cell_state,omitempty"`
	CellJob   string `json:"cell_job,omitempty"`
	Node      string `json:"node,omitempty"`
	// Error carries the failure message on a "failed"/"canceled" event.
	Error string `json:"error,omitempty"`
}

// Terminal reports whether the event closes the stream.
func (e JobEvent) Terminal() bool { return e.Type != EventProgress }

const (
	// maxJobEvents bounds the per-job event history kept for late
	// subscribers while the job runs; older progress events are dropped.
	maxJobEvents = 256
	// finishedJobTicks is how many stage-progress ticks a job keeps once
	// it is terminal: a cold sketch build emits one per few hundred RR
	// sets, and up to `retain` finished jobs stay resident, so the full
	// history of each would dominate the daemon's heap under load. Late
	// subscribers replay the last ticks, every sweep cell event, and the
	// terminal event.
	finishedJobTicks = 16
	// subscriberBuffer is each SSE subscriber's channel capacity. A
	// subscriber that falls this far behind loses progress events (the
	// handler resynchronizes from the job snapshot on close).
	subscriberBuffer = 64
)

// Job is one asynchronous unit of work. Fields are guarded by the
// store's mutex; handlers read them through Snapshot.
type Job struct {
	ID       string
	Kind     string // "allocate" | "estimate"
	State    JobState
	Created  time.Time
	Started  time.Time
	Finished time.Time
	Request  any
	Result   any
	Err      string
	// TraceID is the request trace that enqueued the job; Stages holds
	// the trace's accumulated per-stage span timings and Resources its
	// accumulated resource counters, attached when the job finishes.
	TraceID   string
	Stages    map[string]telemetry.StageStats
	Resources map[string]int64

	// ctx is canceled by Cancel; the worker threads it through sketch
	// construction and estimation.
	ctx             context.Context
	cancel          context.CancelFunc
	cancelRequested bool

	// events is a ring of at most maxJobEvents entries whose oldest
	// element sits at eventHead (0 until the ring first wraps).
	events    []JobEvent
	eventHead int
	eventSeq  int
	subs      map[chan JobEvent]struct{}
}

// history returns the retained events, oldest first, in a fresh slice.
func (j *Job) history() []JobEvent {
	out := make([]JobEvent, 0, len(j.events))
	out = append(out, j.events[j.eventHead:]...)
	return append(out, j.events[:j.eventHead]...)
}

// compactEvents shrinks a terminal job's history to what late
// subscribers still need: sweep cell events (the per-cell outcome
// record), the last finishedJobTicks stage-progress ticks, and the
// terminal event, in an exactly-sized slice so the ring is freed.
func (j *Job) compactEvents() {
	all := j.history()
	isTick := func(ev JobEvent) bool { return !ev.Terminal() && ev.Cell == "" }
	ticks := 0
	for _, ev := range all {
		if isTick(ev) {
			ticks++
		}
	}
	drop := max(ticks-finishedJobTicks, 0)
	kept := make([]JobEvent, 0, len(all)-drop)
	for _, ev := range all {
		if drop > 0 && isTick(ev) {
			drop--
			continue
		}
		kept = append(kept, ev)
	}
	j.events, j.eventHead = kept, 0
}

// JobView is the wire form of a job returned by GET /v1/jobs/{id}, and
// the record shape of the on-disk audit trail (<data-dir>/jobs).
type JobView struct {
	ID      string   `json:"id"`
	Kind    string   `json:"kind"`
	State   JobState `json:"state"`
	Created string   `json:"created"`
	// Finished is the terminal timestamp (audit trails need it even
	// though the live API could derive it).
	Finished string `json:"finished,omitempty"`
	// ElapsedMS is running time so far (running) or total (terminal).
	ElapsedMS int64 `json:"elapsed_ms,omitempty"`
	// CancelRequested is set once DELETE /v1/jobs/{id} has asked a
	// queued/running job to stop; the state flips to "canceled" when the
	// worker observes the cancellation.
	CancelRequested bool   `json:"cancel_requested,omitempty"`
	Request         any    `json:"request,omitempty"`
	Result          any    `json:"result,omitempty"`
	Error           string `json:"error,omitempty"`
	// TraceID is the request trace that enqueued the job (the value of
	// the X-Welmax-Trace-Id request/response header).
	TraceID string `json:"trace_id,omitempty"`
	// Stages is the trace's per-stage span timing, attached when the
	// job reaches a terminal state (and spilled to history.jsonl with
	// the rest of the view).
	Stages map[string]telemetry.StageStats `json:"stages,omitempty"`
	// Resources is the trace's per-kind resource accounting
	// (rr_sets_grown, cache_hits, bytes_shipped, ...), attached with
	// Stages — the per-request answer to "what did this job cost".
	Resources map[string]int64 `json:"resources,omitempty"`
}

func (j *Job) view() JobView {
	v := JobView{
		ID:              j.ID,
		Kind:            j.Kind,
		State:           j.State,
		Created:         j.Created.UTC().Format(time.RFC3339Nano),
		CancelRequested: j.cancelRequested && !j.State.Terminal(),
		Request:         j.Request,
		Result:          j.Result,
		Error:           j.Err,
		TraceID:         j.TraceID,
		Stages:          j.Stages,
		Resources:       j.Resources,
	}
	switch {
	case j.State == JobRunning:
		v.ElapsedMS = time.Since(j.Started).Milliseconds()
	case j.State.Terminal() && !j.Started.IsZero():
		v.ElapsedMS = j.Finished.Sub(j.Started).Milliseconds()
	}
	if j.State.Terminal() && !j.Finished.IsZero() {
		v.Finished = j.Finished.UTC().Format(time.RFC3339Nano)
	}
	return v
}

// JobStore tracks jobs by id and counts them by state. Finished jobs
// are retained up to a bound; beyond it the earliest-finished jobs are
// dropped so a long-running daemon's memory stays flat. Queued and
// running jobs are never dropped. Retention costs O(1) amortised per
// finished job, whatever the bound.
type JobStore struct {
	mu   sync.Mutex
	jobs map[string]*Job
	// ids is insertion order, for listing. Ids of removed and trimmed
	// jobs stay in it (deadIDs counts them) until they are half of it.
	ids     []string
	deadIDs int
	// finished queues terminal job ids in finish order, the order trim
	// evicts in; terminal counts the ones still present. Ids of jobs
	// removed since they finished (deadFinished) are skipped when popped.
	finished     []string
	deadFinished int
	terminal     int
	seq          int
	retain       int
	prefix       string // node prefix baked into every minted id
	// onFinal, when set, receives the wire view of every job reaching a
	// terminal state (the audit-trail spill). Called synchronously under
	// the store lock — the sink must be fast and must not call back.
	onFinal func(JobView)
}

// NewJobStore returns an empty store keeping at most retain finished
// jobs (default 1024 if retain <= 0).
func NewJobStore(retain int) *JobStore {
	if retain <= 0 {
		retain = 1024
	}
	return &JobStore{jobs: map[string]*Job{}, retain: retain}
}

// SetNodeID makes subsequently minted job ids carry a node prefix
// ("b1-j7" instead of "j7"): in a cluster, the id itself tells the
// router which backend owns the job, so job routes need no lookup
// table. Empty keeps the single-node "j7" form.
func (s *JobStore) SetNodeID(node string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if node == "" {
		s.prefix = ""
		return
	}
	s.prefix = node + "-"
}

// SetFinalSink registers the terminal-job callback (see onFinal).
func (s *JobStore) SetFinalSink(fn func(JobView)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onFinal = fn
}

// Create registers a queued job under the request's trace id (empty is
// fine for untraced callers) and returns it.
func (s *JobStore) Create(kind, traceID string, req any) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		ID:      fmt.Sprintf("%sj%d", s.prefix, s.seq),
		Kind:    kind,
		State:   JobQueued,
		Created: time.Now(),
		Request: req,
		TraceID: traceID,
		ctx:     ctx,
		cancel:  cancel,
		subs:    map[chan JobEvent]struct{}{},
	}
	s.jobs[j.ID] = j
	s.ids = append(s.ids, j.ID)
	return j
}

// Remove drops a job that never ran (e.g. the queue was full) or a
// finished one the client deleted.
func (s *JobStore) Remove(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return
	}
	j.cancel()
	s.closeSubsLocked(j)
	delete(s.jobs, id)
	if j.State.Terminal() {
		s.terminal--
		if s.deadFinished++; 2*s.deadFinished >= len(s.finished) {
			s.finished, s.deadFinished = s.liveLocked(s.finished), 0
		}
	}
	s.dropIDLocked()
}

// dropIDLocked notes that one id in s.ids no longer names a job, and
// compacts s.ids once such ids are half of it. Caller holds s.mu.
func (s *JobStore) dropIDLocked() {
	if s.deadIDs++; 2*s.deadIDs >= len(s.ids) {
		s.ids, s.deadIDs = s.liveLocked(s.ids), 0
	}
}

// liveLocked filters ids in place down to the jobs still in the store.
// Caller holds s.mu.
func (s *JobStore) liveLocked(ids []string) []string {
	keep := ids[:0]
	for _, id := range ids {
		if _, ok := s.jobs[id]; ok {
			keep = append(keep, id)
		}
	}
	clear(ids[len(keep):])
	return keep
}

// Start marks the job running and returns its cancellation context. A
// job canceled while still queued is finalized as canceled here and
// reports ok = false: the worker must skip it.
func (s *JobStore) Start(id string) (ctx context.Context, ok bool) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		return nil, false
	}
	now := time.Now()
	if j.cancelRequested {
		j.Started, j.Finished = now, now
		sink, view := s.finalizeLocked(j, JobCanceled, "canceled before start")
		s.mu.Unlock()
		if sink != nil {
			sink(view)
		}
		return nil, false
	}
	j.State = JobRunning
	j.Started = now
	s.mu.Unlock()
	return j.ctx, true
}

// Finish marks the job done (err == nil), canceled (the job's context
// was canceled), or failed. The result is kept on a done job and, when
// there is one, on a canceled job.
func (s *JobStore) Finish(id string, result any, err error) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		return
	}
	j.Finished = time.Now()
	var (
		sink func(JobView)
		view JobView
	)
	switch {
	case err == nil:
		j.Result = result
		sink, view = s.finalizeLocked(j, JobDone, "")
	case errors.Is(err, context.Canceled) && j.cancelRequested:
		// A canceled job may still have something to show (a canceled
		// sweep's summary and artifact id). Workers pass their typed result
		// pointer through `any`, so "nothing" arrives as a non-nil
		// interface holding a nil pointer: keep only a real value.
		if rv := reflect.ValueOf(result); rv.IsValid() && !(rv.Kind() == reflect.Pointer && rv.IsNil()) {
			j.Result = result
		}
		sink, view = s.finalizeLocked(j, JobCanceled, err.Error())
	default:
		sink, view = s.finalizeLocked(j, JobFailed, err.Error())
	}
	s.mu.Unlock()
	if sink != nil {
		sink(view)
	}
}

// finalizeLocked moves a job to a terminal state, publishes the terminal
// event, closes subscribers, and releases the job's context. Caller
// holds s.mu and has set Finished (and Started where applicable). The
// audit sink and terminal view are returned instead of invoked so the
// caller can run the sink's disk append after unlocking — a slow disk
// must not stall every other job-store operation.
func (s *JobStore) finalizeLocked(j *Job, state JobState, errMsg string) (func(JobView), JobView) {
	if !j.State.Terminal() {
		s.finished = append(s.finished, j.ID)
		s.terminal++
	}
	j.State = state
	j.Err = errMsg
	s.publishLocked(j, JobEvent{Type: string(state), Error: errMsg})
	j.compactEvents()
	s.closeSubsLocked(j)
	j.cancel()
	s.trimLocked()
	if s.onFinal == nil {
		return nil, JobView{}
	}
	return s.onFinal, j.view()
}

// Cancel requests cancellation of a queued or running job, reporting
// requested = false when the job is already terminal. The worker
// observes the canceled context and finalizes the job as canceled.
func (s *JobStore) Cancel(id string) (view JobView, requested, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return JobView{}, false, false
	}
	if j.State.Terminal() {
		return j.view(), false, true
	}
	j.cancelRequested = true
	j.cancel()
	return j.view(), true, true
}

// trimLocked drops the earliest-finished jobs beyond the retention
// bound. Caller holds s.mu.
func (s *JobStore) trimLocked() {
	for s.terminal > s.retain {
		id := s.finished[0]
		s.finished[0] = ""
		s.finished = s.finished[1:]
		if _, ok := s.jobs[id]; !ok {
			s.deadFinished-- // removed after it finished
			continue
		}
		delete(s.jobs, id)
		s.terminal--
		s.dropIDLocked()
	}
}

// Publish appends a progress event to the job's stream and broadcasts
// it to subscribers. Events for unknown or already-terminal jobs are
// dropped.
func (s *JobStore) Publish(id string, ev JobEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil || j.State.Terminal() {
		return
	}
	s.publishLocked(j, ev)
}

// SetStages attaches a trace's accumulated span timings to the job
// (no-op for unknown jobs or empty stage maps). Workers call it just
// before Finish so the terminal view and the audit record carry it.
func (s *JobStore) SetStages(id string, stages map[string]telemetry.StageStats) {
	if len(stages) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.jobs[id]; j != nil {
		j.Stages = stages
	}
}

// SetResources attaches a trace's accumulated resource counters to the
// job (no-op for unknown jobs or empty maps). Like SetStages, workers
// call it just before Finish.
func (s *JobStore) SetResources(id string, resources map[string]int64) {
	if len(resources) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.jobs[id]; j != nil {
		j.Resources = resources
	}
}

// publishLocked assigns the event's sequence number, stamps the job's
// trace id (when the publisher left it empty), appends the event to the
// bounded history ring, and offers it to every subscriber without blocking
// (a full subscriber just misses the event). Caller holds s.mu.
func (s *JobStore) publishLocked(j *Job, ev JobEvent) {
	j.eventSeq++
	ev.Seq = j.eventSeq
	if ev.TraceID == "" {
		ev.TraceID = j.TraceID
	}
	if len(j.events) < maxJobEvents {
		j.events = append(j.events, ev)
	} else {
		j.events[j.eventHead] = ev
		j.eventHead = (j.eventHead + 1) % maxJobEvents
	}
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// closeSubsLocked closes and forgets every subscriber channel. Caller
// holds s.mu.
func (s *JobStore) closeSubsLocked(j *Job) {
	for ch := range j.subs {
		close(ch)
	}
	j.subs = nil
}

// Subscribe returns the job's event history so far plus a channel
// delivering subsequent events. The channel is closed after the
// terminal event (or on job removal); call unsub to detach early.
// For an already-terminal job the history ends with the terminal event
// and the channel is returned closed.
func (s *JobStore) Subscribe(id string) (past []JobEvent, ch <-chan JobEvent, unsub func(), ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return nil, nil, nil, false
	}
	past = j.history()
	c := make(chan JobEvent, subscriberBuffer)
	if j.State.Terminal() {
		close(c)
		return past, c, func() {}, true
	}
	j.subs[c] = struct{}{}
	unsub = func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, live := j.subs[c]; live {
			delete(j.subs, c)
			close(c)
		}
	}
	return past, c, unsub, true
}

// Snapshot returns the wire view of a job.
func (s *JobStore) Snapshot(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return j.view(), true
}

// List returns the wire view of every job in insertion order. A
// non-empty state keeps only jobs currently in that lifecycle state
// (the ?state= filter of GET /v1/jobs).
func (s *JobStore) List(state JobState) []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.jobs))
	for _, id := range s.ids {
		if j := s.jobs[id]; j != nil && (state == "" || j.State == state) {
			out = append(out, j.view())
		}
	}
	return out
}

// CountByState tallies jobs per lifecycle state.
func (s *JobStore) CountByState() map[JobState]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[JobState]int{}
	for _, j := range s.jobs {
		out[j.State]++
	}
	return out
}

// Pool is a bounded worker pool: a fixed number of goroutines draining a
// bounded queue. Submission never blocks — a full queue is reported to
// the caller (the HTTP layer answers 503) instead of stalling the
// accept loop.
type Pool struct {
	mu     sync.Mutex
	queue  chan func()
	wg     sync.WaitGroup
	busy   atomic.Int32
	closed bool
	size   int
}

// NewPool starts `workers` goroutines with a queue of capacity queueCap.
func NewPool(workers, queueCap int) *Pool {
	if workers <= 0 {
		workers = 1
	}
	if queueCap <= 0 {
		queueCap = 64
	}
	p := &Pool{queue: make(chan func(), queueCap), size: workers}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for fn := range p.queue {
				p.busy.Add(1)
				fn()
				p.busy.Add(-1)
			}
		}()
	}
	return p
}

// Submit enqueues fn; it reports false when the queue is full or the
// pool is closed.
func (p *Pool) Submit(fn func()) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	select {
	case p.queue <- fn:
		return true
	default:
		return false
	}
}

// Close stops accepting work, drains the queue, and waits for the
// workers to exit.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.size }

// Busy returns how many workers are executing a job right now.
func (p *Pool) Busy() int { return int(p.busy.Load()) }

// QueueDepth returns the number of queued-but-unstarted submissions.
func (p *Pool) QueueDepth() int { return len(p.queue) }

// QueueCap returns the queue capacity.
func (p *Pool) QueueCap() int { return cap(p.queue) }
