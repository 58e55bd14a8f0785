package service

import (
	"strings"
	"testing"

	"uicwelfare/internal/graph"
)

func TestAllocateInlineEstimatePairCap(t *testing.T) {
	svc, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	entry, _, err := svc.registry.Add("big", graph.FromEdges(7000, nil))
	if err != nil {
		t.Fatal(err)
	}
	req := &AllocateRequest{
		GraphID: entry.ID,
		Config:  "additive",
		Budgets: make([]int, 16),
	}
	for i := range req.Budgets {
		req.Budgets[i] = 7000 // 16 × 7000 = 112k pairs, over MaxSeedPairs
	}
	// Without an inline estimate the allocation itself is fine.
	if _, err := svc.validateAllocate(req); err != nil {
		t.Fatalf("runs=0: %v", err)
	}
	req.Runs = 1
	if _, err := svc.validateAllocate(req); err == nil || !strings.Contains(err.Error(), "seed pairs") {
		t.Fatalf("runs=1 over pair cap: err = %v", err)
	}
}
