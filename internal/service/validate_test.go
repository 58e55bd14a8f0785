package service

import (
	"context"
	"strings"
	"testing"
	"time"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/rrset"
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

func TestInvalidateGraphDropsInFlightBuilds(t *testing.T) {
	c := NewSketchCache(8, 0, 0, nil)
	gate := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = c.GetOrBuildCtx(context.Background(), "g1|prima|x", func() (*rrset.Sketch, error) {
			<-gate
			return &rrset.Sketch{}, nil
		})
	}()
	// Wait for the build to be registered, then invalidate mid-build.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Entries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("build never registered")
		}
		time.Sleep(time.Millisecond)
	}
	c.InvalidateGraph("g1")
	close(gate)
	<-done
	if n := c.Stats().Entries; n != 0 {
		t.Fatalf("in-flight sketch survived invalidation: %d entries", n)
	}
}
