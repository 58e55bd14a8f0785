package rrset

import (
	"context"
	"math"
	"testing"

	"uicwelfare/internal/diffusion"
	"uicwelfare/internal/graph"
	"uicwelfare/internal/stats"
)

// grow grows c to target sets on one worker.
func grow(t testing.TB, c *Collection, target int64, rng *stats.RNG) {
	t.Helper()
	if err := c.GrowParallelCtx(context.Background(), target, rng, 1, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleFromDeterministicLine(t *testing.T) {
	// line 0 -> 1 -> 2 with p=1: RR set from root 2 is {2,1,0}
	g := graph.Line(3, 1)
	s := NewSampler(g)
	rng := stats.NewRNG(1)
	set := s.SampleFrom(2, rng, nil)
	if len(set) != 3 {
		t.Fatalf("RR set = %v", set)
	}
	if set[0] != 2 {
		t.Errorf("root must come first: %v", set)
	}
}

func TestSampleFromZeroProb(t *testing.T) {
	g := graph.Line(3, 0)
	s := NewSampler(g)
	rng := stats.NewRNG(1)
	set := s.SampleFrom(2, rng, nil)
	if len(set) != 1 || set[0] != 2 {
		t.Errorf("RR set = %v, want just the root", set)
	}
}

func TestRRIdentityEstimatesSpread(t *testing.T) {
	// n * E[S hits RR] must approximate sigma(S)
	rng := stats.NewRNG(2)
	g := graph.ErdosRenyi(40, 160, rng).WeightedCascade()
	seeds := []graph.NodeID{0, 7}
	exactish := diffusion.Spread(g, seeds, rng, 100000)

	s := NewSampler(g)
	const samples = 200000
	hits := 0
	inSeed := map[graph.NodeID]bool{0: true, 7: true}
	var buf []graph.NodeID
	for i := 0; i < samples; i++ {
		buf = s.Sample(rng, buf[:0])
		for _, v := range buf {
			if inSeed[v] {
				hits++
				break
			}
		}
	}
	est := float64(g.N()) * float64(hits) / samples
	if math.Abs(est-exactish) > 0.15*exactish+0.1 {
		t.Errorf("RR estimate %v vs MC spread %v", est, exactish)
	}
}

func TestNodeCoinBlocksTraversal(t *testing.T) {
	// with node coin 0 on node 1, RR sets from root 2 on a p=1 line
	// never include 1 or 0
	g := graph.Line(3, 1)
	s := NewSampler(g)
	s.NodeCoin = func(v graph.NodeID) float64 {
		if v == 1 {
			return 0
		}
		return 1
	}
	rng := stats.NewRNG(3)
	for i := 0; i < 50; i++ {
		set := s.SampleFrom(2, rng, nil)
		if len(set) != 1 || set[0] != 2 {
			t.Fatalf("node coin ignored: %v", set)
		}
	}
}

func TestNodeCoinOnRoot(t *testing.T) {
	g := graph.Line(2, 1)
	s := NewSampler(g)
	s.NodeCoin = func(graph.NodeID) float64 { return 0 }
	rng := stats.NewRNG(4)
	set := s.SampleFrom(1, rng, nil)
	if len(set) != 0 {
		t.Errorf("root failing its coin must give empty RR set, got %v", set)
	}
}

func TestEdgesVisitedAccumulates(t *testing.T) {
	g := graph.Line(3, 1)
	s := NewSampler(g)
	rng := stats.NewRNG(5)
	s.SampleFrom(2, rng, nil)
	if s.EdgesVisited == 0 {
		t.Error("EdgesVisited not tracked")
	}
}

func TestCollectionAddAndSet(t *testing.T) {
	g := graph.Line(3, 1)
	c := NewCollection(g)
	rng := stats.NewRNG(6)
	grow(t, c, 10, rng)
	if c.Len() != 10 {
		t.Fatalf("len=%d", c.Len())
	}
	total := int64(0)
	for i := 0; i < c.Len(); i++ {
		set := c.Set(i)
		if len(set) == 0 {
			t.Fatalf("empty RR set on p=1 line")
		}
		total += int64(len(set))
	}
	if total != c.TotalSize() {
		t.Errorf("TotalSize %d != sum %d", c.TotalSize(), total)
	}
}

func TestCollectionInvertedIndex(t *testing.T) {
	g := graph.Line(3, 1)
	c := NewCollection(g)
	rng := stats.NewRNG(7)
	grow(t, c, 20, rng)
	// rebuild index by scanning sets and compare with the index
	count := make(map[graph.NodeID]int)
	for i := 0; i < c.Len(); i++ {
		for _, v := range c.Set(i) {
			count[v]++
		}
	}
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		if len(c.Covering(v)) != count[v] {
			t.Errorf("node %d: index %d vs scan %d", v, len(c.Covering(v)), count[v])
		}
	}
}

func TestCoverageOf(t *testing.T) {
	g := graph.Line(3, 1)
	c := NewCollection(g)
	rng := stats.NewRNG(8)
	grow(t, c, 50, rng)
	// node 0 reaches everything on a p=1 line, so it covers every set
	if got := c.CoverageOf([]graph.NodeID{0}); got != c.Len() {
		t.Errorf("coverage of node 0 = %d, want %d", got, c.Len())
	}
	if f := c.FractionCovered([]graph.NodeID{0}); f != 1 {
		t.Errorf("fraction = %v", f)
	}
}

func TestCollectionReset(t *testing.T) {
	g := graph.Line(3, 1)
	c := NewCollection(g)
	rng := stats.NewRNG(9)
	grow(t, c, 5, rng)
	c.Reset()
	if c.Len() != 0 || c.TotalSize() != 0 {
		t.Errorf("reset failed: len=%d", c.Len())
	}
	if c.CoverageOf([]graph.NodeID{0}) != 0 {
		t.Errorf("stale coverage after reset")
	}
	grow(t, c, 5, rng)
	if c.Len() != 5 {
		t.Errorf("regrow failed")
	}
}

func TestNodeSelectionPicksSourceOnLine(t *testing.T) {
	g := graph.Line(4, 1)
	c := NewCollection(g)
	rng := stats.NewRNG(10)
	grow(t, c, 200, rng)
	seeds, covered := c.NodeSelection(1)
	if len(seeds) != 1 || seeds[0] != 0 {
		t.Errorf("selected %v, want {0}", seeds)
	}
	if covered != 1 {
		t.Errorf("node 0 covers all sets on a p=1 line, got %v", covered)
	}
}

func TestNodeSelectionPrefixProperty(t *testing.T) {
	rng := stats.NewRNG(11)
	g := graph.ErdosRenyi(60, 240, rng).WeightedCascade()
	c := NewCollection(g)
	grow(t, c, 2000, rng)
	s5, _ := c.NodeSelection(5)
	s10, _ := c.NodeSelection(10)
	for i := range s5 {
		if s5[i] != s10[i] {
			t.Fatalf("greedy prefix broken at %d: %v vs %v", i, s5, s10)
		}
	}
}

func TestNodeSelectionCoverageMatchesRecount(t *testing.T) {
	rng := stats.NewRNG(12)
	g := graph.ErdosRenyi(50, 200, rng).WeightedCascade()
	c := NewCollection(g)
	grow(t, c, 1000, rng)
	seeds, covered := c.NodeSelection(7)
	recount := c.FractionCovered(seeds)
	if math.Abs(covered-recount) > 1e-12 {
		t.Errorf("incremental coverage %v vs recount %v", covered, recount)
	}
}

func TestNodeSelectionGreedyIsExactGreedy(t *testing.T) {
	// compare against a naive argmax greedy implementation
	rng := stats.NewRNG(13)
	g := graph.ErdosRenyi(30, 120, rng).WeightedCascade()
	c := NewCollection(g)
	grow(t, c, 500, rng)
	seeds, _ := c.NodeSelection(4)

	// naive greedy
	covered := make([]bool, c.Len())
	var naive []graph.NodeID
	for it := 0; it < 4; it++ {
		bestGain, best := -1, graph.NodeID(-1)
		for v := graph.NodeID(0); int(v) < g.N(); v++ {
			gain := 0
			for _, id := range c.Covering(v) {
				if !covered[id] {
					gain++
				}
			}
			if gain > bestGain {
				bestGain, best = gain, v
			}
		}
		naive = append(naive, best)
		for _, id := range c.Covering(best) {
			covered[id] = true
		}
	}
	// coverage of both selections must be equal (seed identity may differ
	// on ties)
	if c.CoverageOf(seeds) != c.CoverageOf(naive) {
		t.Errorf("lazy greedy coverage %d != naive %d (%v vs %v)",
			c.CoverageOf(seeds), c.CoverageOf(naive), seeds, naive)
	}
}

func TestNodeSelectionBudgetOverflow(t *testing.T) {
	g := graph.Line(3, 1)
	c := NewCollection(g)
	rng := stats.NewRNG(14)
	grow(t, c, 10, rng)
	seeds, covered := c.NodeSelection(10)
	if len(seeds) != 3 {
		t.Errorf("selected %d seeds from 3-node graph", len(seeds))
	}
	if covered != 1 {
		t.Errorf("full selection must cover everything")
	}
}

func TestNodeSelectionEmptyCollection(t *testing.T) {
	g := graph.Line(3, 1)
	c := NewCollection(g)
	seeds, covered := c.NodeSelection(2)
	if covered != 0 {
		t.Errorf("coverage %v on empty collection", covered)
	}
	if len(seeds) > 2 {
		t.Errorf("too many seeds: %v", seeds)
	}
}
