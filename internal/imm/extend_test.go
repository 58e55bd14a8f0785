package imm

import (
	"context"
	"math"
	"testing"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
)

func evalSpread(g *graph.Graph, seeds []graph.NodeID, seed uint64) float64 {
	eval := rrset.NewCollection(g)
	_ = eval.GrowParallelCtx(context.Background(), 20000, stats.NewRNG(seed), 1, nil)
	return float64(g.N()) * eval.FractionCovered(seeds)
}

// TestExtendSketchMatchesColdBuild: an IMM sketch extended to a larger
// total budget must match a cold build at that budget — same selection
// size, spread within tolerance, base sketch untouched.
func TestExtendSketchMatchesColdBuild(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, stats.NewRNG(204)).WeightedCascade()
	opts := rrset.Options{Workers: 2}
	base, err := BuildSketchCtx(context.Background(), g, 5, opts, stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	baseLen := base.NumRRSets()

	const newK = 12
	ext, err := ExtendSketchCtx(context.Background(), g, base, newK, opts, stats.NewRNG(12))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := BuildSketchCtx(context.Background(), g, newK, opts, stats.NewRNG(13))
	if err != nil {
		t.Fatal(err)
	}

	if base.NumRRSets() != baseLen {
		t.Fatalf("extension mutated base sketch: %d sets, had %d", base.NumRRSets(), baseLen)
	}
	if ext.K != newK {
		t.Fatalf("extended K = %d, want %d", ext.K, newK)
	}
	if ext.NumRRSets() <= baseLen {
		t.Fatalf("extension did not grow the collection: %d <= %d", ext.NumRRSets(), baseLen)
	}
	eres, cres := ext.Select(), cold.Select()
	if len(eres.Seeds) != len(cres.Seeds) {
		t.Fatalf("selection sizes differ: extended %d vs cold %d", len(eres.Seeds), len(cres.Seeds))
	}
	es := evalSpread(g, eres.Seeds, 904)
	cs := evalSpread(g, cres.Seeds, 904)
	if math.Abs(es-cs) > 0.15*math.Max(es, cs)+1 {
		t.Errorf("extended spread %.2f vs cold %.2f beyond tolerance", es, cs)
	}
}

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
