package prima_test

import (
	"context"
	"testing"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/prima"
	"uicwelfare/internal/rrset"
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

// TestExtendSketchRejections: degenerate sketches must refuse extension
// with ErrNotExtendable so callers fall back to a cold build. A loosened
// ε is no refusal: its θ rule asks for fewer sets than the base holds,
// so the base answers it.
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
	if loose, err := prima.ExtendSketchCtx(context.Background(), g, base, []int{5}, rrset.Options{Eps: 0.3}, []int{5}, rrset.Options{Eps: 0.5}, rng); err != nil || loose != base {
		t.Fatalf("loosened eps: %v; answered by the base: %t", err, loose == base)
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
