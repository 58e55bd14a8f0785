package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"uicwelfare/internal/progress"
	"uicwelfare/internal/store"
	"uicwelfare/internal/sweep"
	"uicwelfare/internal/telemetry"
)

// The experiment-sweep subsystem, single-node half. POST /v1/sweeps
// accepts a declarative grid spec (sweep.Spec), expands it into cells,
// and runs each cell as an ordinary pool job — through the same
// validation, admission control, sketch cache, and batcher as a client
// allocate, which is the point: a sweep is the paper's evaluation grid
// expressed as traffic, and the serving stack's coalescing tiers are
// what make the grid tractable (cells sharing a (graph, ε) group
// coalesce onto a build and its delta-builds; identical estimates
// coalesce onto one Monte-Carlo run). The sweep itself is a job of kind
// "sweep" in the same store, so SSE streaming, cancellation,
// retention, and the audit spill all apply unchanged.

// SweepStats is the /v1/stats view of the sweep subsystem's lifetime
// cell counters (also exported as welmax_sweep_cells_total{state}).
type SweepStats struct {
	CellsDone     int64 `json:"cells_done"`
	CellsFailed   int64 `json:"cells_failed"`
	CellsCanceled int64 `json:"cells_canceled"`
}

// sweepRecord is one finished sweep's in-memory result: the full
// per-cell rows GET /v1/sweeps/{id}/results serves without a disk
// round-trip, plus the artifact id they were persisted under.
type sweepRecord struct {
	artifactID string
	res        *store.SweepResult
}

// maxSweepRecords bounds the in-memory result index; older sweeps fall
// back to their disk artifact (or 410 without a data dir).
const maxSweepRecords = 32

func (s *Service) rememberSweep(jobID, artifactID string, res *store.SweepResult) {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	if _, exists := s.sweepResults[jobID]; !exists {
		s.sweepOrder = append(s.sweepOrder, jobID)
		if len(s.sweepOrder) > maxSweepRecords {
			delete(s.sweepResults, s.sweepOrder[0])
			s.sweepOrder = s.sweepOrder[1:]
		}
	}
	s.sweepResults[jobID] = &sweepRecord{artifactID: artifactID, res: res}
}

func (s *Service) lookupSweep(jobID string) (*sweepRecord, bool) {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	rec, ok := s.sweepResults[jobID]
	return rec, ok
}

// CellAllocateRequest maps one expanded grid cell onto the ordinary
// allocate request that executes it. Exported because the cluster
// router dispatches cells as allocate bodies to shard owners and must
// produce exactly the request the backend's own sweep path would.
func CellAllocateRequest(spec *sweep.Spec, c *sweep.Cell) *AllocateRequest {
	return &AllocateRequest{
		GraphID: c.GraphID,
		Algo:    c.Algo,
		Config:  c.Config,
		Items:   spec.Items,
		Budgets: c.Budgets,
		Eps:     c.Eps,
		Cascade: c.Cascade,
		Seed:    c.Seed,
		Runs:    spec.Runs,
		Workers: spec.Workers,
	}
}

// handleCreateSweep implements POST /v1/sweeps: expand the grid, reject
// structurally or semantically invalid specs synchronously with 400
// (every cell is validated against the registry before anything runs),
// and launch the sweep as a job of kind "sweep". Answers 202 with the
// sweep id — the same contract as the other async routes.
func (s *Service) handleCreateSweep(w http.ResponseWriter, r *http.Request) {
	var spec sweep.Spec
	if !decodeBody(w, r, &spec) {
		return
	}
	tr := s.newTrace(w, r)
	cells, err := sweep.Expand(&spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	for i := range cells {
		if _, err := s.validateAllocate(CellAllocateRequest(&spec, &cells[i])); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("cell %s: %w", cells[i].ID, err))
			return
		}
	}
	job := s.jobs.Create("sweep", tr.ID(), &spec)
	// The orchestrator runs on its own goroutine, not the worker pool:
	// cells occupy the pool, and a sweep occupying a worker while its
	// cells wait for one would deadlock a fully-subscribed pool.
	go s.runSweep(job.ID, tr, &spec, cells)
	writeJSON(w, http.StatusAccepted, map[string]any{
		"sweep_id": job.ID,
		"state":    JobQueued,
		"cells":    len(cells),
		"trace_id": tr.ID(),
	})
}

// runSweep is the sweep job's lifecycle wrapper (Start → execute →
// finishJob), mirroring what enqueue does for pool jobs.
func (s *Service) runSweep(jobID string, tr *telemetry.Trace, spec *sweep.Spec, cells []sweep.Cell) {
	ctx, ok := s.jobs.Start(jobID)
	if !ok {
		return // canceled while queued
	}
	started := time.Now()
	ctx = telemetry.NewContext(ctx, tr)
	summary, err := s.executeSweep(ctx, jobID, spec, cells)
	// A sweep spans multiple graphs; its trace record carries no single
	// graph label.
	s.finishJob(jobID, "sweep", "", tr, started, summary, err)
}

// executeSweep fans the cells out over the worker pool with bounded
// concurrency, gathers the rows, persists the result artifact, and
// returns the summary. A canceled sweep still lands its artifact — the
// finished cells' work is real and the partial result is often the
// point of canceling — but the job itself finishes canceled.
func (s *Service) executeSweep(ctx context.Context, jobID string, spec *sweep.Spec, cells []sweep.Cell) (*sweep.Summary, error) {
	started := time.Now()
	traceID := ""
	if tr := telemetry.FromContext(ctx); tr != nil {
		traceID = tr.ID()
	}
	rows := make([]store.SweepCell, len(cells))
	sem := make(chan struct{}, s.sweepCellWorkers)
	var wg sync.WaitGroup
	var completed atomic.Int64
	for i := range cells {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &cells[i]
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				rows[i] = s.cellSkeleton(c)
				rows[i].State = string(JobCanceled)
				rows[i].Error = "sweep canceled"
				s.finishCell(jobID, &rows[i], int(completed.Add(1)), len(cells))
				return
			}
			rows[i] = s.runCell(ctx, jobID, traceID, spec, c)
			s.finishCell(jobID, &rows[i], int(completed.Add(1)), len(cells))
		}(i)
	}
	wg.Wait()

	res := &store.SweepResult{
		SweepID:  jobID,
		Name:     spec.Name,
		TraceID:  traceID,
		SpecJSON: spec.Marshal(),
		Cells:    rows,
	}
	endArt := telemetry.StartSpan(ctx, "sweep_artifact")
	artifactID := store.SweepResultID(res)
	persisted := false
	if s.disk != nil {
		if id, err := s.disk.SaveSweep(res); err == nil {
			artifactID, persisted = id, true
		}
	}
	endArt()
	s.rememberSweep(jobID, artifactID, res)

	summary := &sweep.Summary{
		SweepID:    jobID,
		Name:       spec.Name,
		Cells:      len(rows),
		ArtifactID: artifactID,
		Persisted:  persisted,
		ElapsedMS:  time.Since(started).Milliseconds(),
	}
	for i := range rows {
		switch rows[i].State {
		case string(JobDone):
			summary.Done++
		case string(JobFailed):
			summary.Failed++
		case string(JobCanceled):
			summary.Canceled++
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return summary, nil
}

// cellSkeleton fills a row's grid coordinates (everything except the
// outcome).
func (s *Service) cellSkeleton(c *sweep.Cell) store.SweepCell {
	return store.SweepCell{
		Index:   c.Index,
		CellID:  c.ID,
		GraphID: c.GraphID,
		Algo:    c.Algo,
		Config:  c.Config,
		Cascade: c.Cascade,
		Eps:     c.Eps,
		Budgets: c.Budgets,
		Seed:    c.Seed,
		Node:    s.nodeID,
	}
}

// finishCell publishes a cell's terminal event on the sweep's SSE
// stream (Done/Total carry overall sweep progress) and feeds the
// lifetime counters behind welmax_sweep_cells_total{state}.
func (s *Service) finishCell(sweepJobID string, row *store.SweepCell, completed, total int) {
	switch row.State {
	case string(JobDone):
		s.sweepCellsDone.Add(1)
	case string(JobCanceled):
		s.sweepCellsCanceled.Add(1)
	default:
		s.sweepCellsFailed.Add(1)
	}
	s.jobs.Publish(sweepJobID, JobEvent{
		Type:      EventProgress,
		Stage:     "cell",
		Cell:      row.CellID,
		CellState: row.State,
		CellJob:   row.JobID,
		Node:      row.Node,
		Done:      completed,
		Total:     total,
	})
}

// Cell retry policy: transient refusals (full job queue, admission
// rejects that queue-with-deadline could not absorb) back off and
// retry a few times before the cell fails; deterministic failures
// (validation, a failed build) fail immediately.
const (
	maxCellAttempts  = 4
	cellRetryBackoff = 50 * time.Millisecond
)

// runCell executes one grid cell to a terminal row. The cell announces
// itself on the sweep stream ("running"), then goes through exactly the
// client path: validate → queue-with-deadline admission → pool job →
// AllocateCtx (tiered cache, batcher, estimate flight).
func (s *Service) runCell(ctx context.Context, sweepJobID, traceID string, spec *sweep.Spec, c *sweep.Cell) store.SweepCell {
	row := s.cellSkeleton(c)
	req := CellAllocateRequest(spec, c)
	s.jobs.Publish(sweepJobID, JobEvent{
		Type: EventProgress, Stage: "cell", Cell: c.ID, CellState: string(JobRunning), Node: s.nodeID,
	})
	started := time.Now()
	var lastErr error
	for attempt := 0; attempt < maxCellAttempts; attempt++ {
		if attempt > 0 {
			backoff := cellRetryBackoff << (attempt - 1)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				row.State = string(JobCanceled)
				row.Error = ctx.Err().Error()
				return row
			}
		}
		plan, err := s.validateAllocate(req)
		if err != nil {
			// Deterministic: the graph vanished mid-sweep or the spec is
			// stale. Retrying cannot help.
			row.State = string(JobFailed)
			row.Error = err.Error()
			row.ElapsedMS = time.Since(started).Milliseconds()
			return row
		}
		if aerr := s.admitOrWait(ctx, req.GraphID, plan); aerr != nil {
			lastErr = aerr
			continue
		}
		jobID, outcome, ok := s.submitCell(traceID, req)
		if !ok {
			lastErr = errors.New("job queue full")
			continue
		}
		row.JobID = jobID
		select {
		case out := <-outcome:
			row.ElapsedMS = time.Since(started).Milliseconds()
			if out.err != nil {
				if ctx.Err() != nil && errors.Is(out.err, context.Canceled) {
					row.State = string(JobCanceled)
				} else {
					row.State = string(JobFailed)
				}
				row.Error = out.err.Error()
				return row
			}
			row.State = string(JobDone)
			row.Algo = out.res.Algorithm
			row.SketchCached = out.res.SketchCached
			if out.res.Welfare != nil {
				row.HasWelfare = true
				row.WelfareMean = out.res.Welfare.Mean
				row.WelfareStdErr = out.res.Welfare.StdErr
				row.WelfareRuns = out.res.Welfare.Runs
			}
			return row
		case <-ctx.Done():
			// Sweep canceled while the cell ran: propagate to the cell job
			// and record the cell canceled without waiting for the worker.
			s.jobs.Cancel(jobID)
			row.State = string(JobCanceled)
			row.Error = ctx.Err().Error()
			row.ElapsedMS = time.Since(started).Milliseconds()
			return row
		}
	}
	row.State = string(JobFailed)
	if lastErr != nil {
		row.Error = fmt.Sprintf("gave up after %d attempts: %v", maxCellAttempts, lastErr)
	}
	row.ElapsedMS = time.Since(started).Milliseconds()
	return row
}

// cellOutcome is a finished cell job's result, delivered off the worker.
type cellOutcome struct {
	res *AllocateResult
	err error
}

// submitCell runs one cell as a pool job of kind "cell" under the
// sweep's trace id (so the whole grid greps by one id), with its own
// per-cell job record — in a cluster the job id's node prefix is how
// results prove which shard ran the cell. Reports ok = false when the
// pool queue is full.
func (s *Service) submitCell(traceID string, req *AllocateRequest) (string, <-chan cellOutcome, bool) {
	tr := telemetry.NewTrace(traceID, s.telemetryOn)
	job := s.jobs.Create("cell", tr.ID(), req)
	out := make(chan cellOutcome, 1)
	ok := s.pool.Submit(func() {
		ctx, ok := s.jobs.Start(job.ID)
		if !ok {
			out <- cellOutcome{err: context.Canceled}
			return
		}
		started := time.Now()
		ctx = telemetry.NewContext(ctx, tr)
		res, err := s.AllocateCtx(ctx, req, func(ev progress.Event) {
			s.jobs.Publish(job.ID, JobEvent{
				Type:       EventProgress,
				Stage:      string(ev.Stage),
				Round:      ev.Round,
				Done:       ev.Done,
				Total:      ev.Total,
				SeedPrefix: ev.SeedPrefix,
			})
		})
		s.finishJob(job.ID, "cell", req.GraphID, tr, started, res, err)
		out <- cellOutcome{res: res, err: err}
	})
	if !ok {
		s.jobs.Remove(job.ID)
		return "", nil, false
	}
	return job.ID, out, true
}

// sweepView resolves a sweep id to its job view, distinguishing
// "unknown job" from "that job is not a sweep" (both 404 to clients).
func (s *Service) sweepView(id string) (JobView, bool) {
	view, ok := s.jobs.Snapshot(id)
	if !ok || view.Kind != "sweep" {
		return JobView{}, false
	}
	return view, true
}

// sweepPageLimit / sweepPageMax bound GET /v1/sweeps pages.
const (
	sweepPageLimit = 50
	sweepPageMax   = 500
)

// PaginateSweeps filters a JobStore listing down to sweep jobs and
// pages it newest-first: limitRaw is the raw ?limit= value (default 50,
// capped at 500) and cursor is the id of the last sweep on the previous
// page. It returns the page and the cursor for the next one ("" when
// the listing is exhausted). Exported because the cluster router pages
// its own sweep listing through exactly this logic.
func PaginateSweeps(all []JobView, limitRaw, cursor string) ([]JobView, string, error) {
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
		found := false
		for i := range sweeps {
			if sweeps[i].ID == cursor {
				start, found = i+1, true
				break
			}
		}
		if !found {
			// The cursor's sweep aged out of retention (or never existed):
			// an explicit error beats silently restarting from the top.
			return nil, "", fmt.Errorf("unknown cursor %q", cursor)
		}
	}
	end := min(start+limit, len(sweeps))
	page := sweeps[start:end]
	next := ""
	if end < len(sweeps) && len(page) > 0 {
		next = page[len(page)-1].ID
	}
	return page, next, nil
}

// handleListSweeps implements GET /v1/sweeps: retained sweep jobs,
// newest-first, paginated by ?limit= and ?cursor= (the id of the last
// sweep on the previous page; the response's next_cursor when another
// page remains).
func (s *Service) handleListSweeps(w http.ResponseWriter, r *http.Request) {
	page, next, err := PaginateSweeps(s.jobs.List(""), r.URL.Query().Get("limit"), r.URL.Query().Get("cursor"))
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

// handleGetSweep implements GET /v1/sweeps/{id}.
func (s *Service) handleGetSweep(w http.ResponseWriter, r *http.Request) {
	view, ok := s.sweepView(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleCancelSweep implements DELETE /v1/sweeps/{id}: cancel a running
// sweep (in-flight cells are canceled, the partial artifact still
// lands) or delete a finished one's job record.
func (s *Service) handleCancelSweep(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.sweepView(id); !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", id))
		return
	}
	view, requested, _ := s.jobs.Cancel(id)
	if requested {
		writeJSON(w, http.StatusAccepted, view)
		return
	}
	s.jobs.Remove(id)
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

// handleSweepEvents implements GET /v1/sweeps/{id}/events: the sweep
// job's SSE stream — per-cell state transitions with overall progress,
// over exactly the job-events plumbing (same frames, same resync
// semantics, same trace-id stamping).
func (s *Service) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.sweepView(id); !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", id))
		return
	}
	StreamJobEvents(w, r, s.jobs, id)
}

// handleSweepResults implements GET /v1/sweeps/{id}/results: the
// finished sweep's per-cell rows with ?<dim>= filters and ?group_by=
// welfare aggregation (see sweep.Query). Served from the in-memory
// record when retained, else re-read from the content-addressed disk
// artifact.
func (s *Service) handleSweepResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	view, ok := s.sweepView(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", id))
		return
	}
	rec, ok := s.lookupSweep(id)
	if !ok {
		if !view.State.Terminal() {
			writeError(w, http.StatusConflict, fmt.Errorf("sweep %s is %s; results are served once it finishes", id, view.State))
			return
		}
		sum, okSum := view.Result.(*sweep.Summary)
		if !okSum || s.disk == nil {
			writeError(w, http.StatusGone, fmt.Errorf("sweep %s results are no longer retained", id))
			return
		}
		res, err := s.disk.LoadSweep(sum.ArtifactID)
		if err != nil {
			writeError(w, http.StatusGone, fmt.Errorf("sweep %s artifact %s unreadable: %v", id, sum.ArtifactID, err))
			return
		}
		rec = &sweepRecord{artifactID: sum.ArtifactID, res: res}
	}
	resp, err := sweep.Query(rec.res, rec.artifactID, r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
