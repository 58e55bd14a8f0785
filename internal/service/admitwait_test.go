package service

import (
	"context"
	"testing"
	"time"

	"uicwelfare/internal/core"
	"uicwelfare/internal/expr"
	"uicwelfare/internal/rrset"
)

// queueEnv builds a daemon with queue-with-deadline admission enabled
// and one registered graph, returning an over-budget allocate plan: ε at
// the floor prices far past the 1MB admission budget, so the plan only
// admits once something makes its sketch work free.
func queueEnv(t *testing.T, opts Options) (*Service, string, *allocatePlan) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	g, err := expr.GenerateByName("flixster", 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	entry, _, err := s.RegisterGraph("t", g)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.validateAllocate(&AllocateRequest{GraphID: entry.ID, Budgets: []int{10, 10}, Eps: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if aerr := s.checkAdmission(entry.ID, plan); aerr == nil {
		t.Fatal("fixture plan was admitted outright; it must be over budget")
	}
	return s, entry.ID, plan
}

// planKey derives the plan's sketch-cache key, the residency admission
// checks against.
func planKey(graphID string, plan *allocatePlan) string {
	sp := plan.planner.(core.SketchPlanner)
	eps, ell := ResolveEpsEll(plan.opts.Eps, plan.opts.Ell)
	return SketchKey(graphID, plan.meta.SketchFamily, int(plan.opts.Cascade), eps, ell, sp.SketchBudgets(plan.prob))
}

// TestAdmitOrWaitAdmitsWhenSketchLands is the queue's reason to exist: a
// request over budget by a small factor holds a queue slot, and when its
// sketch becomes resident mid-wait (here an injected Put, standing in
// for a finishing warm or a shipped import) it admits instead of 429ing.
func TestAdmitOrWaitAdmitsWhenSketchLands(t *testing.T) {
	s, id, plan := queueEnv(t, Options{
		AdmissionMB:    1,
		AdmissionQueue: 2,
		AdmissionWait:  10 * time.Second,
		AdmissionSlack: 1 << 30, // anything queues
		Workers:        1,
	})
	done := make(chan *AdmissionError, 1)
	go func() { done <- s.admitOrWait(context.Background(), id, plan) }()

	// The request must actually be waiting, not rejected, before the
	// sketch lands.
	deadline := time.Now().Add(5 * time.Second)
	for s.admissionQueued.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never entered the admission queue")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case aerr := <-done:
		t.Fatalf("queued request resolved early: %v", aerr)
	default:
	}
	s.cache.Put(planKey(id, plan), &rrset.Sketch{})

	select {
	case aerr := <-done:
		if aerr != nil {
			t.Fatalf("request not admitted after its sketch landed: %v", aerr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued request never admitted")
	}
	if got := s.admissionQueueAdmitted.Load(); got != 1 {
		t.Errorf("admission_queue_admitted = %d, want 1", got)
	}
	if got := s.admissionRejects.Load(); got != 0 {
		t.Errorf("admission_rejects = %d, want 0", got)
	}
}

// TestAdmitOrWaitDeadline: a queued request whose prediction never
// improves rejects at the deadline, counted as both a timeout and a
// reject.
func TestAdmitOrWaitDeadline(t *testing.T) {
	s, id, plan := queueEnv(t, Options{
		AdmissionMB:    1,
		AdmissionQueue: 1,
		AdmissionWait:  60 * time.Millisecond,
		AdmissionSlack: 1 << 30,
		Workers:        1,
	})
	aerr := s.admitOrWait(context.Background(), id, plan)
	if aerr == nil {
		t.Fatal("over-budget request admitted with nothing resident")
	}
	if s.admissionQueueTimeouts.Load() != 1 || s.admissionRejects.Load() != 1 {
		t.Errorf("timeouts=%d rejects=%d, want 1/1",
			s.admissionQueueTimeouts.Load(), s.admissionRejects.Load())
	}
}

// TestAdmitOrWaitSlackGate: a prediction beyond the slack factor is a
// hopeless wait — it sheds immediately without consuming a queue slot.
func TestAdmitOrWaitSlackGate(t *testing.T) {
	s, id, plan := queueEnv(t, Options{
		AdmissionMB:    1,
		AdmissionQueue: 1,
		AdmissionWait:  10 * time.Second,
		AdmissionSlack: 1.01, // the ε-floor plan is far more than 1% over
		Workers:        1,
	})
	start := time.Now()
	if aerr := s.admitOrWait(context.Background(), id, plan); aerr == nil {
		t.Fatal("far-over-budget request admitted")
	}
	if time.Since(start) > time.Second {
		t.Error("far-over-budget request waited instead of shedding")
	}
	if s.admissionQueued.Load() != 0 || s.admissionRejects.Load() != 1 {
		t.Errorf("queued=%d rejects=%d, want 0/1", s.admissionQueued.Load(), s.admissionRejects.Load())
	}
}

// TestAdmitOrWaitContextCancel: a caller abandoning its queued request
// (client disconnect, sweep cancel) unblocks promptly with the refusal.
func TestAdmitOrWaitContextCancel(t *testing.T) {
	s, id, plan := queueEnv(t, Options{
		AdmissionMB:    1,
		AdmissionQueue: 1,
		AdmissionWait:  10 * time.Second,
		AdmissionSlack: 1 << 30,
		Workers:        1,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *AdmissionError, 1)
	go func() { done <- s.admitOrWait(ctx, id, plan) }()
	deadline := time.Now().Add(5 * time.Second)
	for s.admissionQueued.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case aerr := <-done:
		if aerr == nil {
			t.Fatal("canceled wait reported admission")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled wait never returned")
	}
}
