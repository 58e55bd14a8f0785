package service

import (
	"context"
	"fmt"

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
	eps, ell := ResolveEpsEll(plan.opts.Eps, plan.opts.Ell)
	raw := plan.meta.CostEstimator(plan.prob.G.N(), plan.prob.G.M(), eps, ell, plan.prob.Budgets)
	return s.costModels.Predict(graphID, raw)
}

// admit applies cost-based admission control to a validated
// allocate/warm plan. The allocate handler, the warm handler and a
// sweep cell all call it. A refusal is counted, journaled under the
// request's trace id and returned as the *AdmissionError the caller
// answers 429 (retryable) with.
// Admission prices *new* sketch work only: with the exact-budget sketch
// already resident or in flight, an in-flight build or pending
// follow-up group whose merged vector already covers the request, or a
// resident sketch from a previous batch that dominates it, serving it
// costs nothing extra, so it is admitted regardless of the prediction.
// A request that would *widen* a pending follow-up is still priced as a
// cold build of its own budgets, although the follow-up will only pay a
// θ-delta on the finished sketch.
func (s *Service) admit(ctx context.Context, graphID string, plan *allocatePlan) *AdmissionError {
	if s.admissionBytes <= 0 {
		return nil
	}
	if sp, ok := plan.planner.(core.SketchPlanner); ok {
		eps, ell := ResolveEpsEll(plan.opts.Eps, plan.opts.Ell)
		budgets := sp.SketchBudgets(plan.prob)
		key := SketchKey(graphID, plan.meta.SketchFamily, int(plan.opts.Cascade), eps, ell, budgets)
		groupKey := groupKeyOf(key)
		if s.cache.Resident(key) || s.batcher.Covered(groupKey, budgets, sp.MergeBudgets) {
			return nil
		}
		if _, ok := s.dominatingMerged(groupKey, sp.MergeBudgets, budgets); ok {
			return nil
		}
	}
	// Otherwise — including planners with no reusable sketch — price the
	// request's sketch work directly.
	est := s.EstimateCost(graphID, plan)
	if est <= s.admissionBytes {
		return nil
	}
	s.admissionRejects.Add(1)
	s.flight.Record(journal.Event{
		Type:    journal.AdmissionReject,
		Graph:   graphID,
		TraceID: telemetry.FromContext(ctx).ID(),
		Bytes:   est,
	})
	return &AdmissionError{EstimatedBytes: est, BudgetBytes: s.admissionBytes}
}
