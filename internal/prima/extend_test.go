package prima_test

import (
	"context"
	"math"
	"testing"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/prima"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/sketchtest"
	"uicwelfare/internal/stats"
)

// TestParallelBuildDeterministic: the whole PRIMA build is reproducible
// for a fixed (seed, workers) pair — identical final selection.
func TestParallelBuildDeterministic(t *testing.T) {
	g := graph.BarabasiAlbert(250, 3, stats.NewRNG(104)).WeightedCascade()
	opts := rrset.Options{Workers: 4}
	a, err := prima.BuildSketchCtx(context.Background(), g, []int{8, 4}, opts, stats.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := prima.BuildSketchCtx(context.Background(), g, []int{8, 4}, opts, stats.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := a.Select(), b.Select()
	if a.NumRRSets() != b.NumRRSets() {
		t.Fatalf("RR-set counts differ: %d vs %d", a.NumRRSets(), b.NumRRSets())
	}
	for i := range ra.Seeds {
		if ra.Seeds[i] != rb.Seeds[i] {
			t.Fatalf("nondeterministic parallel build: %v vs %v", ra.Seeds, rb.Seeds)
		}
	}
}

// TestExtendSketchMatchesColdBuild is satellite (d): extending a
// resident sketch to a larger budget vector must behave like a cold
// build at the extended parameters — same selection length, at least
// the cold build's RR-set count (the λ*-ratio sizing is conservative),
// and spread within the sampling tolerance.
func TestExtendSketchMatchesColdBuild(t *testing.T) {
	oldBudgets := []int{6, 3}
	newBudgets := []int{12, 6, 3}
	opts := rrset.Options{Eps: 0.4, Ell: 1, Workers: 2}
	for name, g := range sketchtest.Families() {
		base, err := prima.BuildSketchCtx(context.Background(), g, oldBudgets, opts, stats.NewRNG(11))
		if err != nil {
			t.Fatalf("%s: base build: %v", name, err)
		}
		baseLen := base.NumRRSets()

		ext, err := prima.ExtendSketchCtx(context.Background(), g, base, oldBudgets, opts, newBudgets, opts, stats.NewRNG(12))
		if err != nil {
			t.Fatalf("%s: extend: %v", name, err)
		}
		cold, err := prima.BuildSketchCtx(context.Background(), g, newBudgets, opts, stats.NewRNG(13))
		if err != nil {
			t.Fatalf("%s: cold build: %v", name, err)
		}

		// The original sketch must be untouched by the extension.
		if base.NumRRSets() != baseLen {
			t.Fatalf("%s: extension mutated the base sketch: %d sets, had %d", name, base.NumRRSets(), baseLen)
		}
		if ext.NumRRSets() < baseLen {
			t.Fatalf("%s: extended sketch shrank: %d < base %d", name, ext.NumRRSets(), baseLen)
		}
		if ext.K != 12 {
			t.Fatalf("%s: extended K = %d, want 12", name, ext.K)
		}

		eres, cres := ext.Select(), cold.Select()
		if len(eres.Seeds) != len(cres.Seeds) {
			t.Fatalf("%s: selection sizes differ: extended %d vs cold %d", name, len(eres.Seeds), len(cres.Seeds))
		}
		es := sketchtest.EvalSpread(g, eres.Seeds, 902)
		cs := sketchtest.EvalSpread(g, cres.Seeds, 902)
		if math.Abs(es-cs) > 0.15*math.Max(es, cs)+1 {
			t.Errorf("%s: extended spread %.2f vs cold %.2f beyond tolerance", name, es, cs)
		}
	}
}

// TestExtendSketchAppendsFewerThanCold: the whole point of extension —
// the sets appended must be fewer than a cold build would sample.
func TestExtendSketchAppendsFewerThanCold(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, stats.NewRNG(105)).WeightedCascade()
	opts := rrset.Options{Workers: 2}
	base, err := prima.BuildSketchCtx(context.Background(), g, []int{8, 4}, opts, stats.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	ext, err := prima.ExtendSketchCtx(context.Background(), g, base, []int{8, 4}, opts, []int{14, 8, 4}, opts, stats.NewRNG(22))
	if err != nil {
		t.Fatal(err)
	}
	appended := ext.NumRRSets() - base.NumRRSets()
	if appended <= 0 {
		t.Fatalf("extension appended %d sets, want > 0", appended)
	}
	if appended >= ext.NumRRSets() {
		t.Fatalf("extension appended %d of %d sets — no cheaper than a cold build", appended, ext.NumRRSets())
	}
}

// TestExtendSketchNoGrowthShares: extending to an already-dominated
// budget vector must not sample at all — the returned sketch shares the
// original collection read-only.
func TestExtendSketchNoGrowthShares(t *testing.T) {
	g := graph.BarabasiAlbert(250, 3, stats.NewRNG(106)).WeightedCascade()
	opts := rrset.Options{}
	base, err := prima.BuildSketchCtx(context.Background(), g, []int{10, 5}, opts, stats.NewRNG(31))
	if err != nil {
		t.Fatal(err)
	}
	ext, err := prima.ExtendSketchCtx(context.Background(), g, base, []int{10, 5}, opts, []int{5}, opts, stats.NewRNG(32))
	if err != nil {
		t.Fatal(err)
	}
	if ext.Col != base.Col {
		t.Fatal("dominated extension should share the base collection")
	}
	if ext.K != base.K {
		t.Fatalf("K = %d, want retained %d", ext.K, base.K)
	}
}

// TestExtendSketchRejections: degenerate sketches and loosened ε must
// refuse extension with ErrNotExtendable so callers fall back to a cold
// build.
func TestExtendSketchRejections(t *testing.T) {
	g := graph.BarabasiAlbert(100, 3, stats.NewRNG(107)).WeightedCascade()
	opts := rrset.Options{}
	rng := stats.NewRNG(41)

	if _, err := prima.ExtendSketchCtx(context.Background(), g, nil, []int{3}, opts, []int{5}, opts, rng); err == nil {
		t.Fatal("nil sketch extended")
	}
	degen, err := prima.BuildSketchCtx(context.Background(), g, []int{100}, opts, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prima.ExtendSketchCtx(context.Background(), g, degen, []int{100}, opts, []int{100}, opts, rng); err == nil {
		t.Fatal("degenerate all-nodes sketch extended")
	}

	base, err := prima.BuildSketchCtx(context.Background(), g, []int{5}, rrset.Options{Eps: 0.3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prima.ExtendSketchCtx(context.Background(), g, base, []int{5}, rrset.Options{Eps: 0.3}, []int{8}, rrset.Options{Eps: 0.5}, rng); err == nil {
		t.Fatal("loosened eps accepted")
	}
	// Tightening ε is growth, not rejection.
	tight, err := prima.ExtendSketchCtx(context.Background(), g, base, []int{5}, rrset.Options{Eps: 0.3}, []int{5}, rrset.Options{Eps: 0.2}, rng)
	if err != nil {
		t.Fatalf("tightened eps rejected: %v", err)
	}
	if tight.NumRRSets() < base.NumRRSets() {
		t.Fatalf("tightened sketch smaller than base: %d < %d", tight.NumRRSets(), base.NumRRSets())
	}
}

// TestExtendSketchCancellation: a canceled extension must return the
// context error and leave the base sketch intact.
func TestExtendSketchCancellation(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, stats.NewRNG(108)).WeightedCascade()
	opts := rrset.Options{Workers: 4}
	base, err := prima.BuildSketchCtx(context.Background(), g, []int{5}, opts, stats.NewRNG(51))
	if err != nil {
		t.Fatal(err)
	}
	baseLen := base.NumRRSets()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := prima.ExtendSketchCtx(ctx, g, base, []int{5}, opts, []int{40, 5}, opts, stats.NewRNG(52)); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if base.NumRRSets() != baseLen {
		t.Fatalf("canceled extension mutated the base sketch: %d sets, had %d", base.NumRRSets(), baseLen)
	}
}
