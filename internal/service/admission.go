package service

import (
	"context"
	"fmt"
	"time"

	"uicwelfare/internal/batch"
	"uicwelfare/internal/core"
	"uicwelfare/internal/journal"
	"uicwelfare/internal/telemetry"
)

// AdmissionError reports a request refused by cost-based admission
// control: its predicted sketch cost exceeds the configured admission
// budget. The HTTP layer maps it to 429 with a retryable body — the
// same request may be admitted later, once warmer caches or a
// recalibrated cost model change the prediction, so clients should back
// off and retry rather than treat it as a hard failure.
type AdmissionError struct {
	// EstimatedBytes is the calibrated predicted resident cost of the
	// sketch work the request would trigger.
	EstimatedBytes int64
	// BudgetBytes is the configured admission budget it exceeded.
	BudgetBytes int64
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("predicted sketch cost %d bytes exceeds the admission budget of %d bytes (retry later, or shrink budgets / raise eps)",
		e.EstimatedBytes, e.BudgetBytes)
}

// EstimateCost prices a validated plan's sketch work: the planner's
// a-priori estimator (core.Meta.CostEstimator) scaled by the graph's
// learned observed/predicted ratio (falling back to the global model
// for graphs with no observed builds yet). Plans without an estimator
// price at zero (unpriceable planners bypass admission).
func (s *Service) EstimateCost(graphID string, plan *allocatePlan) int64 {
	if plan.meta.CostEstimator == nil {
		return 0
	}
	eps, ell := resolveEpsEll(plan.opts.Eps, plan.opts.Ell)
	raw := plan.meta.CostEstimator(plan.prob.G.N(), plan.prob.G.M(), eps, ell, plan.prob.Budgets)
	return s.costModels.Predict(graphID, raw)
}

// checkAdmission applies cost-based admission control to a validated
// allocate/warm plan, returning a non-nil *AdmissionError when the
// request would be refused right now. It is a pure check — callers that
// actually refuse (or give up waiting) count the reject themselves, so
// the queued path's periodic re-checks do not inflate the counter.
// Admission prices *new* sketch work only: with the exact-budget sketch
// already resident or in flight — or, under batching, an in-flight
// build or pending follow-up group whose merged vector already covers
// the request — serving it costs nothing extra, so it is admitted
// regardless of the prediction. A request that would *widen* a pending
// follow-up is still priced as a cold build of its own budgets, although
// the follow-up will only pay a θ-delta on the finished sketch.
func (s *Service) checkAdmission(graphID string, plan *allocatePlan) *AdmissionError {
	if s.admissionBytes <= 0 {
		return nil
	}
	if sp, ok := plan.planner.(core.SketchPlanner); ok {
		eps, ell := resolveEpsEll(plan.opts.Eps, plan.opts.Ell)
		family, cascade := plan.meta.SketchFamily, int(plan.opts.Cascade)
		budgets := sp.SketchBudgets(plan.prob)
		if s.cache.Resident(SketchKey(graphID, family, cascade, eps, ell, budgets)) {
			return nil
		}
		if bp, ok := sp.(core.BatchSketchPlanner); ok && s.batcher != nil {
			groupKey := SketchKey(graphID, family, cascade, eps, ell, nil)
			// An in-flight build or pending follow-up whose merged vector
			// covers the request, or a resident sketch from a previous
			// batch that dominates it, both serve it with no new work.
			if s.batcher.Covered(groupKey, budgets, bp.MergeBudgets) {
				return nil
			}
			if rec, ok := s.lookupMerged(groupKey); ok &&
				batch.Dominates(bp.MergeBudgets, rec.budgets, budgets) && s.cache.Resident(rec.key) {
				return nil
			}
		}
	}
	// Otherwise — including planners with no reusable sketch — price the
	// request's sketch work directly.
	if est := s.EstimateCost(graphID, plan); est > s.admissionBytes {
		return &AdmissionError{EstimatedBytes: est, BudgetBytes: s.admissionBytes}
	}
	return nil
}

// admitPlan is the immediate form of admission: check once, count the
// reject, answer. The benchmarks and tests that exercise raw admission
// semantics go through it.
func (s *Service) admitPlan(graphID string, plan *allocatePlan) *AdmissionError {
	aerr := s.checkAdmission(graphID, plan)
	if aerr != nil {
		s.admissionRejects.Add(1)
		s.recordReject(context.Background(), graphID, aerr, 0)
	}
	return aerr
}

// recordReject journals one admission reject with the predicted cost
// and any time the request spent queued before losing.
func (s *Service) recordReject(ctx context.Context, graphID string, aerr *AdmissionError, waited time.Duration) {
	s.flight.Record(journal.Event{
		Type:    journal.AdmissionReject,
		Graph:   graphID,
		TraceID: telemetry.FromContext(ctx).ID(),
		Bytes:   aerr.EstimatedBytes,
		WaitMS:  waited.Milliseconds(),
	})
}

// admissionRecheck is how often a queued request re-prices itself while
// holding a queue slot.
const admissionRecheck = 25 * time.Millisecond

// admitOrWait is queue-with-deadline admission: a request refused by
// checkAdmission whose predicted overshoot is small (estimate within
// the configured slack factor of the budget) holds a slot in a bounded
// FIFO and re-checks periodically — a finishing build recalibrates the
// cost model, a completing warm makes the sketch resident, a batch
// group forms a covering merged vector — instead of bouncing 429 off
// every client in a sweep's reject-retry loop. The wait ends at the
// deadline (counted as a queue timeout plus a reject), on ctx
// cancellation, or on admission. Requests far over budget, and all
// requests when the queue is disabled or full, reject immediately as
// before.
func (s *Service) admitOrWait(ctx context.Context, graphID string, plan *allocatePlan) *AdmissionError {
	aerr := s.checkAdmission(graphID, plan)
	if aerr == nil {
		return nil
	}
	slack := int64(float64(s.admissionBytes) * s.admissionSlack)
	if s.admissionQueue == nil || aerr.EstimatedBytes > slack {
		s.admissionRejects.Add(1)
		s.recordReject(ctx, graphID, aerr, 0)
		return aerr
	}
	select {
	case s.admissionQueue <- struct{}{}:
	default: // queue full: shed immediately
		s.admissionRejects.Add(1)
		s.recordReject(ctx, graphID, aerr, 0)
		return aerr
	}
	defer func() { <-s.admissionQueue }()
	s.admissionQueued.Add(1)
	queuedAt := time.Now()
	s.flight.Record(journal.Event{
		Type:    journal.AdmissionQueue,
		Graph:   graphID,
		TraceID: telemetry.FromContext(ctx).ID(),
		Bytes:   aerr.EstimatedBytes,
	})
	// Whatever the outcome, the time spent holding the slot is the
	// request's queue-wait resource.
	defer func() {
		telemetry.AddResource(ctx, telemetry.ResQueueWaitMS, time.Since(queuedAt).Milliseconds())
	}()

	deadline := time.NewTimer(s.admissionWait)
	defer deadline.Stop()
	tick := time.NewTicker(admissionRecheck)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			s.admissionRejects.Add(1)
			s.recordReject(ctx, graphID, aerr, time.Since(queuedAt))
			return aerr
		case <-deadline.C:
			s.admissionQueueTimeouts.Add(1)
			s.admissionRejects.Add(1)
			s.recordReject(ctx, graphID, aerr, time.Since(queuedAt))
			return aerr
		case <-tick.C:
			if next := s.checkAdmission(graphID, plan); next == nil {
				s.admissionQueueAdmitted.Add(1)
				return nil
			} else {
				aerr = next // report the freshest estimate on timeout
			}
		}
	}
}
