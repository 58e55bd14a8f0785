package imm

import (
	"context"
	"testing"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
)

// TestExtendSketchDominatedSharesCollection: extending to k' <= K needs
// no new samples and shares the base collection read-only.
func TestExtendSketchDominatedSharesCollection(t *testing.T) {
	g := graph.BarabasiAlbert(250, 3, stats.NewRNG(205)).WeightedCascade()
	base, err := BuildSketchCtx(context.Background(), g, 10, rrset.Options{}, stats.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	ext, err := ExtendSketchCtx(context.Background(), g, base, 4, rrset.Options{}, stats.NewRNG(22))
	if err != nil {
		t.Fatal(err)
	}
	if ext.Col != base.Col {
		t.Fatal("dominated extension should share the base collection")
	}
	if ext.K != 10 {
		t.Fatalf("K = %d, want retained 10", ext.K)
	}
}

// TestExtendSketchRejections: degenerate and invalid-budget extensions
// error so callers fall back to a cold build.
func TestExtendSketchRejections(t *testing.T) {
	g := graph.BarabasiAlbert(100, 3, stats.NewRNG(206)).WeightedCascade()
	rng := stats.NewRNG(31)
	if _, err := ExtendSketchCtx(context.Background(), g, nil, 5, rrset.Options{}, rng); err == nil {
		t.Fatal("nil sketch extended")
	}
	base, err := BuildSketchCtx(context.Background(), g, 5, rrset.Options{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExtendSketchCtx(context.Background(), g, base, 0, rrset.Options{}, rng); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := ExtendSketchCtx(context.Background(), g, base, 100, rrset.Options{}, rng); err == nil {
		t.Fatal("whole-graph budget accepted")
	}
}
