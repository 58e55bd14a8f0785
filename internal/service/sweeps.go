package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"uicwelfare/internal/progress"
	"uicwelfare/internal/sweep"
	"uicwelfare/internal/telemetry"
)

// The single-node sweep runner: what a Service hands its SweepEngine.
// Each cell runs as an ordinary pool job — through the same validation,
// admission control and sketch resolver as a client allocate,
// which is the point: a sweep is the paper's evaluation grid expressed
// as traffic, and the serving stack's coalescing tiers are what make
// the grid tractable (cells sharing a (graph, ε) group coalesce onto a
// build and its delta-builds). A cell's welfare is estimated inline by
// AllocateCtx.

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

// newSweepEngine wires the service's runner, disk tier and job epilogue
// into a sweep engine over its job store.
func (s *Service) newSweepEngine() *SweepEngine {
	runner := SweepRunner{
		Backoff: 50 * time.Millisecond,
		// Every cell is validated against the registry before anything
		// runs, so one bad cell rejects the whole spec.
		Check: func(spec *sweep.Spec, cells []sweep.Cell) error {
			for i := range cells {
				if _, err := s.validateAllocate(CellAllocateRequest(spec, &cells[i])); err != nil {
					return fmt.Errorf("cell %s: %w", cells[i].ID, err)
				}
			}
			return nil
		},
		// Cells are ordinary pool jobs; running at most a pool's worth at
		// once keeps one sweep from monopolizing the queue.
		Begin: func(context.Context) SweepAttempt {
			slots := make(chan struct{}, s.pool.Workers())
			return func(ctx context.Context, c *SweepCellRun) (JobState, error) {
				return s.attemptCell(ctx, slots, c)
			}
		},
	}
	hooks := SweepHooks{
		Trace: s.newTrace,
		// A sweep spans multiple graphs; its trace record carries no single
		// graph label.
		Finish: func(jobID string, tr *telemetry.Trace, started time.Time, summary *sweep.Summary, err error) {
			s.finishJob(jobID, "sweep", "", tr, started, summary, err)
		},
	}
	var sink SweepSink // stays an untyped nil without a data dir
	if s.disk != nil {
		sink = s.disk
	}
	return NewSweepEngine(s.jobs, runner, sink, hooks)
}

// attemptCell makes one attempt at a cell through exactly the client
// path: validate → admission → pool job → AllocateCtx (the sketch
// resolver). The cell job is of kind "cell" and runs under the sweep's
// trace id, so the whole grid greps by one id; in a cluster the job
// id's node prefix is how results prove which shard ran the cell.
// Transient refusals (a full job queue, an admission reject) ask for a
// retry.
func (s *Service) attemptCell(ctx context.Context, slots chan struct{}, c *SweepCellRun) (JobState, error) {
	c.Row.Node = s.nodeID
	select {
	case slots <- struct{}{}:
		defer func() { <-slots }()
	case <-ctx.Done():
		return JobCanceled, nil
	}
	c.Running()
	req := CellAllocateRequest(c.Spec, c.Cell)
	plan, err := s.validateAllocate(req)
	if err != nil {
		// Deterministic: the graph vanished mid-sweep or the spec is
		// stale. Retrying cannot help.
		return JobFailed, err
	}
	if err := s.admit(ctx, req.GraphID, plan); err != nil {
		return JobQueued, err
	}
	// res is written by the worker before done sends on outcome.
	var res *AllocateResult
	outcome := make(chan error, 1)
	jobID, ok := s.submit("cell", req.GraphID, telemetry.NewTrace(c.TraceID, s.telemetryOn), req,
		func(ctx context.Context, report progress.Func) (any, error) {
			var err error
			res, err = s.AllocateCtx(ctx, req, report)
			return res, err
		},
		func(err error) { outcome <- err })
	if !ok {
		return JobQueued, errors.New("job queue full")
	}
	c.Row.JobID = jobID
	select {
	case err := <-outcome:
		if err == nil {
			c.SetResult(res)
			return JobDone, nil
		}
		if ctx.Err() != nil && errors.Is(err, context.Canceled) {
			return JobCanceled, nil
		}
		return JobFailed, err
	case <-ctx.Done():
		// Sweep canceled while the cell ran: propagate to the cell job
		// and record the cell canceled without waiting for the worker.
		s.jobs.Cancel(jobID)
		return JobCanceled, nil
	}
}
