package service

import (
	"context"
	"testing"

	"uicwelfare/internal/core"
	"uicwelfare/internal/expr"
	"uicwelfare/internal/rrset"
)

// TestAdmitBypassesResidentSketch: admission prices new sketch work
// only. A plan far over the admission budget is refused while nothing
// serves it, and admitted once its exact-key sketch is resident (here
// an injected Put, standing in for a finishing warm or a shipped
// import). Only the refusal counts as a reject.
func TestAdmitBypassesResidentSketch(t *testing.T) {
	s, err := New(Options{AdmissionMB: 1, Workers: 1})
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
	// ε at the floor prices far past the 1MB budget.
	plan, err := s.validateAllocate(&AllocateRequest{GraphID: entry.ID, Budgets: []int{10, 10}, Eps: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if aerr := s.admit(context.Background(), entry.ID, plan); aerr == nil {
		t.Fatal("over-budget plan admitted with nothing resident")
	}

	sp := plan.planner.(core.SketchPlanner)
	eps, ell := ResolveEpsEll(plan.opts.Eps, plan.opts.Ell)
	key := SketchKey(entry.ID, plan.meta.SketchFamily, int(plan.opts.Cascade), eps, ell, sp.SketchBudgets(plan.prob))
	s.cache.Put(key, &rrset.Sketch{})
	if aerr := s.admit(context.Background(), entry.ID, plan); aerr != nil {
		t.Fatalf("plan refused with its sketch resident: %v", aerr)
	}
	if got := s.admissionRejects.Load(); got != 1 {
		t.Errorf("admission_rejects = %d, want 1", got)
	}
}
