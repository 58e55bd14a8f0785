package rrset

import (
	"context"
	"slices"
	"testing"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/stats"
)

// appendIndex builds the inverted index the way the collection used to:
// scan the sets in id order and append each id to its members' lists.
func appendIndex(c *Collection) [][]int32 {
	idx := make([][]int32, c.N())
	for i := 0; i < c.Len(); i++ {
		for _, v := range c.Set(i) {
			idx[v] = append(idx[v], int32(i))
		}
	}
	return idx
}

func checkIndex(t *testing.T, when string, c *Collection) {
	t.Helper()
	want := appendIndex(c)
	for v := graph.NodeID(0); int(v) < c.N(); v++ {
		if got := c.Covering(v); !slices.Equal(got, want[v]) {
			t.Fatalf("%s: Covering(%d) = %v, append-built index has %v", when, v, got, want[v])
		}
	}
}

// TestCSRIndexMatchesAppendBuiltIndex: after every operation that
// changes the sets, the CSR index the next read builds gives, for every
// node, Covering(v) equal to the append-built list — same ids, ascending.
func TestCSRIndexMatchesAppendBuiltIndex(t *testing.T) {
	g := growTestGraph()
	ctx := context.Background()

	c := NewCollection(g)
	checkIndex(t, "empty", c)
	grow(t, c, 700, stats.NewRNG(1))
	checkIndex(t, "one-worker grow", c)
	grow(t, c, 1500, stats.NewRNG(2))
	checkIndex(t, "second one-worker grow", c)

	for _, workers := range []int{1, 2, 4} {
		p := NewCollection(g)
		rng := stats.NewRNG(3)
		for _, target := range []int64{900, 2600} {
			if err := p.GrowParallelCtx(ctx, target, rng, workers, nil); err != nil {
				t.Fatal(err)
			}
			checkIndex(t, "parallel grow", p)
		}
	}

	c.Reset()
	checkIndex(t, "reset", c)
	if err := c.GrowParallelCtx(ctx, 400, stats.NewRNG(4), 2, nil); err != nil {
		t.Fatal(err)
	}
	checkIndex(t, "reset + regrow", c)

	r, err := Restore(g, slices.Clone(c.Members()), slices.Clone(c.Offsets()))
	if err != nil {
		t.Fatal(err)
	}
	checkIndex(t, "restore", r)

	cl := c.Clone()
	checkIndex(t, "clone", cl)
	if err := cl.GrowParallelCtx(ctx, 1000, stats.NewRNG(5), 2, nil); err != nil {
		t.Fatal(err)
	}
	checkIndex(t, "clone + extend", cl)
	checkIndex(t, "original after clone + extend", c)

	// A canceled grow leaves the collection unchanged, at every worker
	// count; the index must still describe exactly the sets it had.
	for _, workers := range []int{1, 3} {
		before := slices.Clone(c.Offsets())
		canceled, cancel := context.WithCancel(ctx)
		if err := c.GrowParallelCtx(canceled, 5000, stats.NewRNG(6), workers, func(int64, int64) { cancel() }); err == nil {
			t.Fatal("canceled grow returned nil")
		}
		if !slices.Equal(c.Offsets(), before) {
			t.Fatalf("W=%d: canceled grow left %d sets, had %d", workers, c.Len(), len(before)-1)
		}
		checkIndex(t, "canceled grow", c)
	}
}

// fixedSets generates a deterministic Members/Offsets pair — distinct
// members per set, ids skewed towards 0 — without going through the
// sampler.
func fixedSets(n, sets int) (members []graph.NodeID, offsets []int64) {
	x := uint32(12345)
	next := func() int { x = x*1664525 + 1013904223; return int(x >> 8) }
	offsets = []int64{0}
	for i := 0; i < sets; i++ {
		size := 1 + next()%6
		start := len(members)
	fill:
		for len(members)-start < size {
			v := graph.NodeID(next() % n * (next() % n) / n)
			for _, m := range members[start:] {
				if m == v {
					continue fill
				}
			}
			members = append(members, v)
		}
		offsets = append(offsets, int64(len(members)))
	}
	return members, offsets
}

// TestNodeSelectionUnchangedOnFixedSets pins NodeSelection on a fixed
// Members/Offsets pair to the ordering the append-built index produced
// (recorded before the index became CSR): the index layout must not
// change a single pick or tie-break.
func TestNodeSelectionUnchangedOnFixedSets(t *testing.T) {
	members, offsets := fixedSets(60, 400)
	c, err := Restore(graph.Line(60, 1), members, offsets)
	if err != nil {
		t.Fatal(err)
	}
	seeds, covered := c.NodeSelection(12)
	want := []graph.NodeID{0, 4, 2, 9, 7, 3, 6, 22, 10, 1, 8, 5}
	if !slices.Equal(seeds, want) || covered != 0.8675 {
		t.Fatalf("NodeSelection = %v (%.4f), recorded %v (0.8675)", seeds, covered, want)
	}
}

// TestReleaseScratchKeepsCollectionGrowable: a collection whose sampling
// scratch was released (what sketch builders do before a sketch goes
// resident) grows on exactly as one that kept it, width statistic
// included.
func TestReleaseScratchKeepsCollectionGrowable(t *testing.T) {
	g := growTestGraph()
	ctx := context.Background()
	for _, workers := range []int{1, 3} {
		kept, released := NewCollection(g), NewCollection(g)
		rk, rr := stats.NewRNG(9), stats.NewRNG(9)
		for _, target := range []int64{600, 1700} {
			if err := kept.GrowParallelCtx(ctx, target, rk, workers, nil); err != nil {
				t.Fatal(err)
			}
			if err := released.GrowParallelCtx(ctx, target, rr, workers, nil); err != nil {
				t.Fatal(err)
			}
			released.ReleaseScratch()
		}
		sameCollections(t, kept, released)
		if kept.EdgesVisited() != released.EdgesVisited() {
			t.Errorf("workers %d: EdgesVisited %d vs %d after releases", workers, kept.EdgesVisited(), released.EdgesVisited())
		}
		if kept.ResidentBytes() != released.ResidentBytes() {
			t.Errorf("workers %d: ResidentBytes %d vs %d", workers, kept.ResidentBytes(), released.ResidentBytes())
		}
	}
}

func TestResidentBytes(t *testing.T) {
	g := growTestGraph()
	c := NewCollection(g)
	grow(t, c, 500, stats.NewRNG(1))
	want := 8*c.TotalSize() + 8*int64(c.Len()+1) + 8*int64(g.N()+1)
	if got := c.ResidentBytes(); got != want {
		t.Errorf("ResidentBytes = %d, want %d (8/member + 8/set boundary + 8/index start)", got, want)
	}
}
