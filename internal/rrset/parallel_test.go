package rrset

import (
	"context"
	"testing"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/stats"
)

// growTestGraph is a graph big enough that parallel growth spans many
// chunks and every worker gets work.
func growTestGraph() *graph.Graph {
	rng := stats.NewRNG(1001)
	return graph.ErdosRenyi(200, 1200, rng).WeightedCascade()
}

func sameCollections(t *testing.T, a, b *Collection) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("set counts differ: %d vs %d", a.Len(), b.Len())
	}
	am, bm := a.Members(), b.Members()
	if len(am) != len(bm) {
		t.Fatalf("member counts differ: %d vs %d", len(am), len(bm))
	}
	for i := range am {
		if am[i] != bm[i] {
			t.Fatalf("members diverge at %d: %d vs %d", i, am[i], bm[i])
		}
	}
	ao, bo := a.Offsets(), b.Offsets()
	for i := range ao {
		if ao[i] != bo[i] {
			t.Fatalf("offsets diverge at %d: %d vs %d", i, ao[i], bo[i])
		}
	}
}

// TestGrowParallelDeterministicForFixedSeedAndWorkers is the
// reproducibility contract: for a fixed (seed, workers) pair the grown
// collection is byte-identical across runs regardless of goroutine
// scheduling.
func TestGrowParallelDeterministicForFixedSeedAndWorkers(t *testing.T) {
	g := growTestGraph()
	const target, workers = 2000, 4
	var runs [3]*Collection
	for i := range runs {
		c := NewCollection(g)
		if err := c.GrowParallelCtx(context.Background(), target, stats.NewRNG(7), workers, nil); err != nil {
			t.Fatal(err)
		}
		if c.Len() < target {
			t.Fatalf("run %d grew %d sets, want >= %d", i, c.Len(), target)
		}
		runs[i] = c
	}
	sameCollections(t, runs[0], runs[1])
	sameCollections(t, runs[0], runs[2])
}

// TestGrowIndependentOfWorkers is the one-grower contract: the grown
// sets depend only on (rng state, start, target), so every worker count
// yields the same Members, Offsets and EdgesVisited — across incremental
// grows, and for a clone grown on from a shared prefix, on each of the
// three sampler paths (samplerFamilies).
func TestGrowIndependentOfWorkers(t *testing.T) {
	families := samplerFamilies()
	if share := skipShare(families[0].g); share != 1 {
		t.Fatalf("ic-skip: %.2f of neighbourhoods skip-sampled, want all", share)
	}
	if share := skipShare(families[1].g); share <= 0 || share >= 1 {
		t.Fatalf("ic-mixed: %.2f of neighbourhoods skip-sampled, want a mix", share)
	}
	const mid, final = 700, 2300 // neither a chunk multiple
	ctx := context.Background()
	for _, f := range families {
		growW := func(c *Collection, target int64, rng *stats.RNG, workers int) {
			t.Helper()
			if err := c.GrowParallelCtx(ctx, target, rng, workers, nil); err != nil {
				t.Fatal(err)
			}
		}
		var ref, refClone *Collection
		for _, workers := range []int{1, 2, 3, 8} {
			c, rng := f.opts.NewCollection(f.g), stats.NewRNG(11)
			growW(c, mid, rng, workers)
			cl := c.Clone()
			growW(c, final, rng, workers)
			growW(cl, final, stats.NewRNG(12), workers)
			if c.Len() != final || cl.Len() != final {
				t.Fatalf("%s W=%d: grew %d / %d sets, want %d", f.name, workers, c.Len(), cl.Len(), final)
			}
			if ref == nil {
				ref, refClone = c, cl
				continue
			}
			sameCollections(t, ref, c)
			sameCollections(t, refClone, cl)
			if c.EdgesVisited() != ref.EdgesVisited() || cl.EdgesVisited() != refClone.EdgesVisited() {
				t.Fatalf("%s W=%d: EdgesVisited %d / %d, W=1 had %d / %d", f.name, workers,
					c.EdgesVisited(), cl.EdgesVisited(), ref.EdgesVisited(), refClone.EdgesVisited())
			}
		}
		// The clone continues exactly as the original would have under
		// the same stream: the start, not the history, fixes the chunks.
		direct := f.opts.NewCollection(f.g)
		growW(direct, mid, stats.NewRNG(11), 2)
		growW(direct, final, stats.NewRNG(12), 3)
		sameCollections(t, refClone, direct)
	}
}

// TestGrowParallelAdvancesCallerRNGOnce: a collection draws its stream
// base once, at its first grow — one Uint64 from the caller's rng — and
// never again: a later grow leaves the caller's stream where it was, so
// serial work interleaved with grows stays reproducible.
func TestGrowParallelAdvancesCallerRNGOnce(t *testing.T) {
	g := growTestGraph()
	rng := stats.NewRNG(31)
	c := NewCollection(g)
	if err := c.GrowParallelCtx(context.Background(), 600, rng, 4, nil); err != nil {
		t.Fatal(err)
	}
	ref := stats.NewRNG(31)
	ref.Uint64() // the base draw
	if err := c.GrowParallelCtx(context.Background(), 1300, rng, 4, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := rng.Uint64(), ref.Uint64(); got != want {
		t.Fatalf("caller stream advanced by more than the first grow's one draw: next=%d want %d", got, want)
	}
	// A seeded stream draws nothing, so its grows may pass a nil rng.
	seeded := NewCollection(g)
	seeded.SeedStream(stats.NewRNG(31).Uint64())
	if err := seeded.GrowParallelCtx(context.Background(), 1300, nil, 2, nil); err != nil {
		t.Fatal(err)
	}
	sameCollections(t, seeded, c)
}

// TestGrowParallelCancellationLeavesCollectionUntouched: a context
// canceled before (or during) the grow must leave Members/Offsets
// exactly as they were — no partial merge.
func TestGrowParallelCancellationLeavesCollectionUntouched(t *testing.T) {
	g := growTestGraph()
	c := NewCollection(g)
	if err := c.GrowParallelCtx(context.Background(), 400, stats.NewRNG(5), 2, nil); err != nil {
		t.Fatal(err)
	}
	wantLen, wantMembers := c.Len(), len(c.Members())

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.GrowParallelCtx(ctx, 5000, stats.NewRNG(6), 4, nil); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c.Len() != wantLen || len(c.Members()) != wantMembers {
		t.Fatalf("canceled grow mutated collection: %d sets / %d members, want %d / %d",
			c.Len(), len(c.Members()), wantLen, wantMembers)
	}
	// The collection must still be growable after a canceled attempt.
	if err := c.GrowParallelCtx(context.Background(), int64(wantLen)+300, stats.NewRNG(7), 4, nil); err != nil {
		t.Fatal(err)
	}
	if c.Len() < wantLen+300 {
		t.Fatalf("post-cancel grow stalled at %d sets", c.Len())
	}
}

// TestGrowParallelProgressMonotone: the report callback must observe a
// non-decreasing done count that finishes exactly at the final length.
func TestGrowParallelProgressMonotone(t *testing.T) {
	g := growTestGraph()
	c := NewCollection(g)
	last := int64(-1)
	calls := 0
	err := c.GrowParallelCtx(context.Background(), 2100, stats.NewRNG(13), 4, func(done, target int64) {
		calls++
		if done < last {
			t.Errorf("progress went backwards: %d after %d", done, last)
		}
		if target != 2100 {
			t.Errorf("target = %d, want 2100", target)
		}
		last = done
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("report never called")
	}
	if last != int64(c.Len()) {
		t.Fatalf("final reported done = %d, want collection length %d", last, c.Len())
	}
}

// TestGrowParallelEdgesVisited: the width statistic must accumulate
// across parallel workers and keep accumulating on a later one-worker
// grow.
func TestGrowParallelEdgesVisited(t *testing.T) {
	g := growTestGraph()
	c := NewCollection(g)
	if err := c.GrowParallelCtx(context.Background(), 800, stats.NewRNG(17), 4, nil); err != nil {
		t.Fatal(err)
	}
	afterPar := c.EdgesVisited()
	if afterPar == 0 {
		t.Fatal("EdgesVisited not tracked through parallel workers")
	}
	if err := c.GrowParallelCtx(context.Background(), 1100, stats.NewRNG(18), 1, nil); err != nil {
		t.Fatal(err)
	}
	if c.EdgesVisited() <= afterPar {
		t.Fatalf("EdgesVisited did not keep accumulating: %d then %d", afterPar, c.EdgesVisited())
	}
}

// TestCloneIsolation: growing a clone must not perturb the original's
// storage, inverted index, or greedy selection — the contract that lets
// ExtendSketch run while the resident sketch serves readers.
func TestCloneIsolation(t *testing.T) {
	g := growTestGraph()
	orig := NewCollection(g)
	if err := orig.GrowParallelCtx(context.Background(), 900, stats.NewRNG(19), 2, nil); err != nil {
		t.Fatal(err)
	}
	wantLen := orig.Len()
	wantMembers := append([]graph.NodeID(nil), orig.Members()...)
	wantSeeds, wantCov := orig.NodeSelection(10)
	wantSeedsCopy := append([]graph.NodeID(nil), wantSeeds...)

	cl := orig.Clone()
	sameCollections(t, orig, cl)
	if err := cl.GrowParallelCtx(context.Background(), 2500, stats.NewRNG(20), 4, nil); err != nil {
		t.Fatal(err)
	}
	if cl.Len() < 2500 {
		t.Fatalf("clone grew to %d, want >= 2500", cl.Len())
	}

	if orig.Len() != wantLen {
		t.Fatalf("original length changed: %d, want %d", orig.Len(), wantLen)
	}
	for i, v := range orig.Members() {
		if v != wantMembers[i] {
			t.Fatalf("original members changed at %d", i)
		}
	}
	gotSeeds, gotCov := orig.NodeSelection(10)
	if gotCov != wantCov {
		t.Fatalf("original coverage changed: %g, want %g", gotCov, wantCov)
	}
	for i := range gotSeeds {
		if gotSeeds[i] != wantSeedsCopy[i] {
			t.Fatalf("original selection changed at %d: %d vs %d", i, gotSeeds[i], wantSeedsCopy[i])
		}
	}
	// The clone's width statistic must have carried over and grown.
	if cl.EdgesVisited() <= orig.EdgesVisited() {
		t.Fatalf("clone EdgesVisited %d did not grow past original %d", cl.EdgesVisited(), orig.EdgesVisited())
	}
}

// TestGrowParallelSelectionQuality: collections grown from different
// seeds are statistically interchangeable — greedy coverage at the same
// budget must agree within a loose tolerance.
func TestGrowParallelSelectionQuality(t *testing.T) {
	g := growTestGraph()
	one := NewCollection(g)
	if err := one.GrowParallelCtx(context.Background(), 3000, stats.NewRNG(29), 1, nil); err != nil {
		t.Fatal(err)
	}
	par := NewCollection(g)
	if err := par.GrowParallelCtx(context.Background(), 3000, stats.NewRNG(37), 4, nil); err != nil {
		t.Fatal(err)
	}
	_, covS := one.NodeSelection(8)
	_, covP := par.NodeSelection(8)
	if diff := covS - covP; diff > 0.1 || diff < -0.1 {
		t.Fatalf("coverage diverges: one worker %g vs four %g", covS, covP)
	}
}
