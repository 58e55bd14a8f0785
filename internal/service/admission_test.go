package service

import (
	"bytes"
	"context"
	"testing"

	"uicwelfare/internal/core"
	"uicwelfare/internal/expr"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/store"
)

// TestAdmitBypassesResidentSketch: admission prices new sketch work
// only. A plan far over the admission budget is refused while nothing
// serves it, and admitted once its exact-key sketch is resident (here
// an imported sketch, standing in for a finishing warm). Only the
// refusal counts as a reject.
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
	var stream bytes.Buffer
	if err := store.WriteSketchStreamEntry(&stream, key, &rrset.Sketch{Family: plan.meta.SketchFamily}); err != nil {
		t.Fatal(err)
	}
	if n, _, err := s.res.Import(entry.ID, entry.Graph, &stream); err != nil || n != 1 {
		t.Fatalf("import: %d sketches, err %v", n, err)
	}
	if aerr := s.admit(context.Background(), entry.ID, plan); aerr != nil {
		t.Fatalf("plan refused with its sketch resident: %v", aerr)
	}
	if got := s.admissionRejects.Load(); got != 1 {
		t.Errorf("admission_rejects = %d, want 1", got)
	}
}
