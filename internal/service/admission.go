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

// admit applies cost-based admission control to a validated
// allocate/warm plan. The allocate handler, the warm handler and a
// sweep cell all call it. The resolver prices the plan's *new* sketch
// work (resolve.Resolver.Price: zero when a resident or in-flight
// sketch already serves it); a price over the admission budget is a
// refusal, counted, journaled under the request's trace id and returned
// as the *AdmissionError the caller answers 429 (retryable) with.
func (s *Service) admit(ctx context.Context, graphID string, plan *allocatePlan) *AdmissionError {
	if s.admissionBytes <= 0 {
		return nil
	}
	sp, _ := plan.planner.(core.SketchPlanner)
	req := s.sketchReq(graphID, sp, plan)
	est := s.res.Price(&req)
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
