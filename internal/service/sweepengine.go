package service

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"uicwelfare/internal/store"
	"uicwelfare/internal/sweep"
	"uicwelfare/internal/telemetry"
)

// The experiment-sweep executor. POST /v1/sweeps accepts a declarative
// grid spec (sweep.Spec), expands it into cells, and runs the grid as
// one job of kind "sweep" in a JobStore — so SSE streaming,
// cancellation, retention and the audit spill all apply unchanged. The
// engine owns everything a sweep is regardless of where its cells
// execute: the job lifecycle, the per-cell attempt loop, the row table,
// the summary fold, the .wsr artifact, the bounded in-memory result
// index, the lifetime cell counters and the six /v1/sweeps handlers. A
// single-node Service and the cluster Router each construct one, and
// differ only in the three things they hand it: a SweepRunner (how one
// cell is checked, scheduled and attempted), a SweepSink (where
// artifacts land) and SweepHooks (how a request becomes a trace and how
// the finished job is recorded).

// SweepAttempt makes one attempt at one cell and answers with the
// cell's next state: JobDone (the result is on the row), JobFailed (a
// deterministic failure, err says why; retrying cannot help),
// JobCanceled (the sweep's context ended first), or JobQueued — a
// transient refusal, err says why, and the engine backs off and
// attempts the cell again. It is the per-sweep state a runner's Begin
// returns: whatever bounds or snapshots the runner keeps for one sweep
// live in the closure.
type SweepAttempt func(ctx context.Context, c *SweepCellRun) (JobState, error)

// SweepRunner is how one side of the system executes cells.
type SweepRunner struct {
	// Check vets an expanded spec before the sweep job exists; its error
	// is answered 400.
	Check func(spec *sweep.Spec, cells []sweep.Cell) error
	// Begin runs once per sweep, on the sweep job's context, before any
	// cell is attempted.
	Begin func(ctx context.Context) SweepAttempt
	// Backoff is the delay before a cell's second attempt; it doubles
	// for each attempt after that.
	Backoff time.Duration
}

// SweepSink persists sweep artifacts. *store.Store and store.SweepDir
// both have this shape.
type SweepSink interface {
	SaveSweep(res *store.SweepResult) (string, error)
	LoadSweep(artifactID string) (*store.SweepResult, error)
}

// SweepHooks tie a sweep job to its side's tracing: Trace adopts or
// mints the request's trace (and echoes its id on the response), Finish
// records the finished trace and finalizes the job with the summary and
// the sweep context's error.
type SweepHooks struct {
	Trace  func(w http.ResponseWriter, r *http.Request) *telemetry.Trace
	Finish func(jobID string, tr *telemetry.Trace, started time.Time, summary *sweep.Summary, err error)
}

// SweepCellRun is one grid cell in flight: what a runner needs to
// attempt it, and the row the attempt fills in. The runner sets
// Row.Node and Row.JobID as it learns them and calls Running once the
// cell holds an execution slot; the engine sets the row's state, error
// and elapsed time from the attempt's outcome.
type SweepCellRun struct {
	SweepID string // the sweep job's id
	TraceID string // the sweep's trace id; cells run under it
	Spec    *sweep.Spec
	Cell    *sweep.Cell
	Attempt int // 1-based
	Row     *store.SweepCell

	jobs    *JobStore
	started time.Time
}

// Running announces the cell on the sweep's SSE stream (once, however
// many attempts follow) and starts its elapsed_ms clock: a cell's run
// time excludes the wait for a slot.
func (c *SweepCellRun) Running() {
	if !c.started.IsZero() {
		return
	}
	c.started = time.Now()
	c.jobs.Publish(c.SweepID, JobEvent{
		Type: EventProgress, Stage: "cell", Cell: c.Cell.ID, CellState: string(JobRunning), Node: c.Row.Node,
	})
}

// SetResult copies a finished allocate's outcome onto the row.
func (c *SweepCellRun) SetResult(res *AllocateResult) {
	c.Row.Algo = res.Algorithm
	c.Row.SketchCached = res.SketchCached
	if res.Welfare != nil {
		c.Row.HasWelfare = true
		c.Row.WelfareMean = res.Welfare.Mean
		c.Row.WelfareStdErr = res.Welfare.StdErr
		c.Row.WelfareRuns = res.Welfare.Runs
	}
}

// SweepStats is the /v1/stats view of an engine's lifetime cell
// counters (also exported as welmax_sweep_cells_total{state} and, on
// the router, welmax_cluster_sweep_cells_total{state}).
type SweepStats struct {
	CellsDone     int64 `json:"cells_done"`
	CellsFailed   int64 `json:"cells_failed"`
	CellsCanceled int64 `json:"cells_canceled"`
}

// maxSweepRecords bounds how many finished sweeps keep their full
// per-cell rows in memory (GET /v1/sweeps/{id}/results then needs no
// disk round-trip); older sweeps fall back to their artifact in the
// sink (or 410 without one).
const maxSweepRecords = 32

// maxCellAttempts is how often a cell is attempted before a run of
// transient refusals fails it — and only it.
const maxCellAttempts = 4

// SweepEngine runs sweeps as jobs of one JobStore. See the file comment.
type SweepEngine struct {
	jobs   *JobStore
	runner SweepRunner
	sink   SweepSink // nil: artifacts are not persisted
	hooks  SweepHooks

	mu      sync.Mutex
	records map[string]*store.SweepResult // by sweep job id
	order   []string                      // record ids, oldest first
	stats   SweepStats
}

// NewSweepEngine assembles an engine over jobs. A nil sink keeps
// results in memory only.
func NewSweepEngine(jobs *JobStore, runner SweepRunner, sink SweepSink, hooks SweepHooks) *SweepEngine {
	return &SweepEngine{jobs: jobs, runner: runner, sink: sink, hooks: hooks, records: map[string]*store.SweepResult{}}
}

// Stats snapshots the lifetime cell counters.
func (e *SweepEngine) Stats() SweepStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

func (e *SweepEngine) remember(jobID string, res *store.SweepResult) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.records[jobID] = res
	e.order = append(e.order, jobID)
	if len(e.order) > maxSweepRecords {
		delete(e.records, e.order[0])
		e.order = e.order[1:]
	}
}

func (e *SweepEngine) lookup(jobID string) (*store.SweepResult, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	res, ok := e.records[jobID]
	return res, ok
}

// forget drops a deleted sweep's rows; without it they would sit in
// memory until maxSweepRecords later sweeps pushed them out.
func (e *SweepEngine) forget(jobID string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.records, jobID)
	e.order = slices.DeleteFunc(e.order, func(id string) bool { return id == jobID })
}

// HandleCreate implements POST /v1/sweeps: expand the grid, reject
// structurally or semantically invalid specs synchronously with 400
// (the runner's Check sees every cell before anything runs), and launch
// the sweep as a job of kind "sweep". Answers 202 with the sweep id —
// the same contract as the other async routes.
func (e *SweepEngine) HandleCreate(w http.ResponseWriter, r *http.Request) {
	var spec sweep.Spec
	if !decodeBody(w, r, &spec) {
		return
	}
	tr := e.hooks.Trace(w, r)
	cells, err := sweep.Expand(&spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := e.runner.Check(&spec, cells); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job := e.jobs.Create("sweep", tr.ID(), &spec)
	// The orchestrator runs on its own goroutine, not a worker pool:
	// cells occupy the workers, and a sweep occupying one while its cells
	// wait for one would deadlock a fully-subscribed pool. It ends when
	// the job does; DELETE /v1/sweeps/{id} cancels its context.
	go e.run(job.ID, tr, &spec, cells)
	writeJSON(w, http.StatusAccepted, map[string]any{
		"sweep_id": job.ID,
		"state":    JobQueued,
		"cells":    len(cells),
		"trace_id": tr.ID(),
	})
}

// run is the sweep job: Start, fan the cells out (the runner's per-sweep
// state bounds how many run at once), gather the rows, persist the
// result artifact, fold the summary, and hand both to the side's Finish
// hook — mirroring what enqueue does for pool jobs. A canceled sweep
// still lands its artifact and its summary — the finished cells' work
// is real and the partial result is often the point of canceling —
// alongside the context's error, so the job itself finishes canceled.
func (e *SweepEngine) run(jobID string, tr *telemetry.Trace, spec *sweep.Spec, cells []sweep.Cell) {
	ctx, ok := e.jobs.Start(jobID)
	if !ok {
		return // canceled while queued
	}
	started := time.Now()
	ctx = telemetry.NewContext(ctx, tr)
	attempt := e.runner.Begin(ctx)
	summary := &sweep.Summary{SweepID: jobID, Name: spec.Name, Cells: len(cells)}
	rows := make([]store.SweepCell, len(cells))
	var wg sync.WaitGroup
	for i := range cells {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &cells[i]
			rows[i] = store.SweepCell{
				Index:   c.Index,
				CellID:  c.ID,
				GraphID: c.GraphID,
				Algo:    c.Algo,
				Config:  c.Config,
				Cascade: c.Cascade,
				Eps:     c.Eps,
				Budgets: c.Budgets,
				Seed:    c.Seed,
			}
			e.runCell(ctx, attempt, &SweepCellRun{
				SweepID: jobID, TraceID: tr.ID(), Spec: spec, Cell: c, Row: &rows[i], jobs: e.jobs,
			})
			e.finishCell(summary, &rows[i])
		}(i)
	}
	wg.Wait()

	res := &store.SweepResult{
		SweepID:  jobID,
		Name:     spec.Name,
		TraceID:  tr.ID(),
		SpecJSON: spec.Marshal(),
		Cells:    rows,
	}
	endArt := telemetry.StartSpan(ctx, "sweep_artifact")
	summary.ArtifactID = store.SweepResultID(res)
	if e.sink != nil {
		if id, err := e.sink.SaveSweep(res); err == nil {
			summary.ArtifactID, summary.Persisted = id, true
		}
	}
	endArt()
	e.remember(jobID, res)
	summary.ElapsedMS = time.Since(started).Milliseconds()
	e.hooks.Finish(jobID, tr, started, summary, ctx.Err())
}

// runCell drives one cell to a terminal row. Transient refusals (a full
// job queue, an admission reject, an owner that is down or mid-move)
// back off and retry up to maxCellAttempts; deterministic failures fail
// the cell at once; the sweep's cancellation ends it wherever it is.
func (e *SweepEngine) runCell(ctx context.Context, attempt SweepAttempt, c *SweepCellRun) {
	finish := func(state JobState, msg string) {
		c.Row.State = string(state)
		c.Row.Error = msg
		if !c.started.IsZero() {
			c.Row.ElapsedMS = time.Since(c.started).Milliseconds()
		}
	}
	var lastErr error
	for c.Attempt = 1; c.Attempt <= maxCellAttempts; c.Attempt++ {
		if c.Attempt > 1 {
			select {
			case <-time.After(e.runner.Backoff << (c.Attempt - 2)):
			case <-ctx.Done():
				finish(JobCanceled, context.Canceled.Error())
				return
			}
		}
		state, err := attempt(ctx, c)
		switch state {
		case JobDone:
			finish(JobDone, "")
			return
		case JobFailed:
			finish(JobFailed, err.Error())
			return
		case JobCanceled:
			finish(JobCanceled, context.Canceled.Error())
			return
		}
		lastErr = err
	}
	finish(JobFailed, fmt.Sprintf("gave up after %d attempts: %v", maxCellAttempts, lastErr))
}

// finishCell tallies a finished cell — into its sweep's summary and the
// lifetime counters — and publishes its terminal event on the sweep's
// SSE stream (Done/Total carry overall sweep progress).
func (e *SweepEngine) finishCell(sum *sweep.Summary, row *store.SweepCell) {
	e.mu.Lock()
	switch row.State {
	case string(JobDone):
		sum.Done++
		e.stats.CellsDone++
	case string(JobCanceled):
		sum.Canceled++
		e.stats.CellsCanceled++
	default:
		sum.Failed++
		e.stats.CellsFailed++
	}
	completed := sum.Done + sum.Failed + sum.Canceled
	e.mu.Unlock()
	e.jobs.Publish(sum.SweepID, JobEvent{
		Type:      EventProgress,
		Stage:     "cell",
		Cell:      row.CellID,
		CellState: row.State,
		CellJob:   row.JobID,
		Node:      row.Node,
		Done:      completed,
		Total:     sum.Cells,
	})
}

// sweepView resolves a sweep id to its job view; an unknown id and a
// job that is not a sweep both answer 404 (ok = false, response
// written).
func (e *SweepEngine) sweepView(w http.ResponseWriter, r *http.Request) (JobView, bool) {
	id := r.PathValue("id")
	view, ok := e.jobs.Snapshot(id)
	if !ok || view.Kind != "sweep" {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", id))
		return JobView{}, false
	}
	return view, true
}

// sweepPageLimit / sweepPageMax bound GET /v1/sweeps pages.
const (
	sweepPageLimit = 50
	sweepPageMax   = 500
)

// paginateSweeps filters a JobStore listing down to sweep jobs and
// pages it newest-first: limitRaw is the raw ?limit= value (default 50,
// capped at 500) and cursor is the id of the last sweep on the previous
// page. It returns the page and the cursor for the next one ("" when
// the listing is exhausted).
func paginateSweeps(all []JobView, limitRaw, cursor string) ([]JobView, string, error) {
	limit := sweepPageLimit
	if limitRaw != "" {
		n, err := strconv.Atoi(limitRaw)
		if err != nil || n <= 0 {
			return nil, "", fmt.Errorf("bad limit %q", limitRaw)
		}
		limit = min(n, sweepPageMax)
	}
	// JobStore.List is creation order; newest-first is its reverse.
	sweeps := make([]JobView, 0, len(all))
	for i := len(all) - 1; i >= 0; i-- {
		if all[i].Kind == "sweep" {
			sweeps = append(sweeps, all[i])
		}
	}
	start := 0
	if cursor != "" {
		at := slices.IndexFunc(sweeps, func(v JobView) bool { return v.ID == cursor })
		if at < 0 {
			// The cursor's sweep aged out of retention (or never existed):
			// an explicit error beats silently restarting from the top.
			return nil, "", fmt.Errorf("unknown cursor %q", cursor)
		}
		start = at + 1
	}
	end := min(start+limit, len(sweeps))
	page := sweeps[start:end]
	next := ""
	if end < len(sweeps) && len(page) > 0 {
		next = page[len(page)-1].ID
	}
	return page, next, nil
}

// HandleList implements GET /v1/sweeps: retained sweep jobs,
// newest-first, paginated by ?limit= and ?cursor= (the id of the last
// sweep on the previous page; the response's next_cursor when another
// page remains).
func (e *SweepEngine) HandleList(w http.ResponseWriter, r *http.Request) {
	page, next, err := paginateSweeps(e.jobs.List(""), r.URL.Query().Get("limit"), r.URL.Query().Get("cursor"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	out := map[string]any{"sweeps": page}
	if next != "" {
		out["next_cursor"] = next
	}
	writeJSON(w, http.StatusOK, out)
}

// HandleGet implements GET /v1/sweeps/{id}.
func (e *SweepEngine) HandleGet(w http.ResponseWriter, r *http.Request) {
	if view, ok := e.sweepView(w, r); ok {
		writeJSON(w, http.StatusOK, view)
	}
}

// HandleCancel implements DELETE /v1/sweeps/{id}: cancel a running
// sweep (in-flight cells are canceled, the partial artifact still
// lands) or delete a finished one's job record and retained rows.
func (e *SweepEngine) HandleCancel(w http.ResponseWriter, r *http.Request) {
	if _, ok := e.sweepView(w, r); !ok {
		return
	}
	id := r.PathValue("id")
	view, requested, _ := e.jobs.Cancel(id)
	if requested {
		writeJSON(w, http.StatusAccepted, view)
		return
	}
	e.jobs.Remove(id)
	e.forget(id)
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

// HandleEvents implements GET /v1/sweeps/{id}/events: the sweep job's
// SSE stream — per-cell state transitions with overall progress, over
// exactly the job-events plumbing (same frames, same resync semantics,
// same trace-id stamping).
func (e *SweepEngine) HandleEvents(w http.ResponseWriter, r *http.Request) {
	if _, ok := e.sweepView(w, r); ok {
		streamJobEvents(w, r, e.jobs, r.PathValue("id"))
	}
}

// HandleResults implements GET /v1/sweeps/{id}/results: the finished
// sweep's per-cell rows with ?<dim>= filters and ?group_by= welfare
// aggregation (see sweep.Query). Served from the in-memory record when
// retained, else re-read from the content-addressed artifact in the
// sink: 409 while the sweep runs, 410 when neither copy can be had.
func (e *SweepEngine) HandleResults(w http.ResponseWriter, r *http.Request) {
	view, ok := e.sweepView(w, r)
	if !ok {
		return
	}
	id := view.ID
	if !view.State.Terminal() {
		writeError(w, http.StatusConflict, fmt.Errorf("sweep %s is %s; results are served once it finishes", id, view.State))
		return
	}
	// The job's summary names the artifact; a sweep canceled before it
	// started has neither.
	sum, _ := view.Result.(*sweep.Summary)
	res, retained := e.lookup(id)
	if sum == nil || (!retained && e.sink == nil) {
		writeError(w, http.StatusGone, fmt.Errorf("sweep %s results are no longer retained", id))
		return
	}
	if !retained {
		var err error
		if res, err = e.sink.LoadSweep(sum.ArtifactID); err != nil {
			writeError(w, http.StatusGone, fmt.Errorf("sweep %s artifact %s unreadable: %v", id, sum.ArtifactID, err))
			return
		}
	}
	resp, err := sweep.Query(res, sum.ArtifactID, r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
