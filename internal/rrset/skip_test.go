package rrset

import (
	"math"
	"testing"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/stats"
)

// refSampleFrom is the reference RR sampler the skip sampler must match
// in distribution: one coin per in-edge (IC) or one cumulative scan per
// node (LT), no use of the graph's skip table.
func refSampleFrom(g *graph.Graph, root graph.NodeID, rng *stats.RNG, cascade graph.Cascade, coin func(graph.NodeID) float64, dst []graph.NodeID) []graph.NodeID {
	visited := map[graph.NodeID]bool{root: true}
	if coin != nil && !rng.Bool(coin(root)) {
		return dst
	}
	head := len(dst)
	dst = append(dst, root)
	reach := func(u graph.NodeID) {
		if visited[u] {
			return
		}
		visited[u] = true
		if coin != nil && !rng.Bool(coin(u)) {
			return
		}
		dst = append(dst, u)
	}
	for ; head < len(dst); head++ {
		srcs, ps := g.InEdges(dst[head])
		if cascade == graph.CascadeLT {
			r, cum := rng.Float64(), 0.0
			for i, p := range ps {
				if cum += float64(p); r < cum {
					reach(srcs[i])
					break
				}
			}
			if head+1 < len(dst) {
				continue
			}
			return dst
		}
		for i, u := range srcs {
			if rng.Bool(float64(ps[i])) {
				reach(u)
			}
		}
	}
	return dst
}

// skipShare reports the fraction of nodes with in-edges whose
// neighbourhood the graph marks for skip sampling.
func skipShare(g *graph.Graph) float64 {
	skip, withIn := 0, 0
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		if g.InDegree(v) > 0 {
			withIn++
			if g.InSkip(v) != 0 {
				skip++
			}
		}
	}
	return float64(skip) / float64(withIn)
}

// mixedProbGraph gives even-numbered targets one shared in-probability
// and odd-numbered targets two alternating ones, so skip and per-edge
// neighbourhoods sit side by side in one walk.
func mixedProbGraph() *graph.Graph {
	rng := stats.NewRNG(77)
	base := graph.ErdosRenyi(120, 3000, rng)
	b := graph.NewBuilder(base.N())
	for u := graph.NodeID(0); int(u) < base.N(); u++ {
		ts, _ := base.OutEdges(u)
		for i, v := range ts {
			p := 0.03
			if v%2 == 1 {
				p = []float64{0.01, 0.06}[i%2]
			}
			b.AddEdge(u, v, p)
		}
	}
	return b.Build()
}

// TestSkipSamplerMatchesPerEdgeReference is the distributional
// equivalence contract: on every kind of neighbourhood the sampler
// distinguishes, per-node inclusion frequencies (χ² over nodes) and the
// mean set size agree with the per-edge reference sampler.
func TestSkipSamplerMatchesPerEdgeReference(t *testing.T) {
	hubs := graph.PreferentialDirected(300, 6, stats.NewRNG(41)).WeightedCascade()
	dense := graph.ErdosRenyi(150, 6000, stats.NewRNG(42)).UniformProb(0.02)
	halfCoin := func(v graph.NodeID) float64 {
		if v%3 == 0 {
			return 0.4
		}
		return 0.9
	}
	cases := []struct {
		name    string
		g       *graph.Graph
		cascade graph.Cascade
		coin    func(graph.NodeID) float64
		// wantSkip: 1 = every neighbourhood skip-sampled, 0 = none,
		// 0.5 = some of each.
		wantSkip float64
	}{
		{"weighted-cascade", hubs, graph.CascadeIC, nil, 0.5},
		{"uniform-prob", dense, graph.CascadeIC, nil, 1},
		{"mixed-prob", mixedProbGraph(), graph.CascadeIC, nil, 0.5},
		{"node-coin", hubs, graph.CascadeIC, halfCoin, 0.5},
		{"indegree-one", graph.Line(6, 0.3), graph.CascadeIC, nil, 0},
		{"lt-weighted-cascade", hubs, graph.CascadeLT, nil, 0.5},
		{"lt-node-coin", hubs, graph.CascadeLT, halfCoin, 0.5},
	}
	samples := 150000
	if testing.Short() {
		samples = 40000 // the -race CPU matrix runs this three times
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			switch share := skipShare(tc.g); {
			case tc.wantSkip == 1 && share != 1, tc.wantSkip == 0 && share != 0,
				tc.wantSkip == 0.5 && (share == 0 || share == 1):
				t.Fatalf("skip-sampled share of neighbourhoods = %.2f, the case wants %v", share, tc.wantSkip)
			}
			n := tc.g.N()
			s := NewSampler(tc.g)
			s.Cascade, s.NodeCoin = tc.cascade, tc.coin
			got, ref := make([]float64, n), make([]float64, n)
			var gotSize, refSize stats.Summary
			rngGot, rngRef := stats.NewRNG(1), stats.NewRNG(2)
			var buf []graph.NodeID
			for i := 0; i < samples; i++ {
				buf = s.Sample(rngGot, buf[:0])
				gotSize.Add(float64(len(buf)))
				for _, v := range buf {
					got[v]++
				}
				buf = refSampleFrom(tc.g, graph.NodeID(rngRef.Intn(n)), rngRef, tc.cascade, tc.coin, buf[:0])
				refSize.Add(float64(len(buf)))
				for _, v := range buf {
					ref[v]++
				}
			}
			// Two-sample χ² over nodes: each term is a squared z-score of
			// the difference of two equal-size binomial counts.
			chi, dof, draws := 0.0, 0, float64(samples)
			for v := 0; v < n; v++ {
				pool := (got[v] + ref[v]) / (2 * draws)
				if pool == 0 || pool == 1 {
					continue
				}
				d := got[v] - ref[v]
				chi += d * d / (2 * draws * pool * (1 - pool))
				dof++
			}
			if limit := float64(dof) + 5*math.Sqrt(2*float64(dof)); chi > limit {
				t.Errorf("inclusion frequencies diverge: χ² = %.1f over %d nodes (limit %.1f)", chi, dof, limit)
			}
			se := math.Hypot(gotSize.StdErr(), refSize.StdErr())
			if diff := math.Abs(gotSize.Mean() - refSize.Mean()); diff > 4*se {
				t.Errorf("mean set size %.4f vs reference %.4f (diff %.4f > 4σ = %.4f)", gotSize.Mean(), refSize.Mean(), diff, 4*se)
			}
		})
	}
}

// fanIn returns d sources pointing at node 0 with probability p each.
func fanIn(d int, p float64) *graph.Graph {
	b := graph.NewBuilder(d + 1)
	for u := 1; u <= d; u++ {
		b.AddEdge(graph.NodeID(u), 0, p)
	}
	return b.Build()
}

func TestSkipSamplerEdgeCases(t *testing.T) {
	rng := stats.NewRNG(5)

	// p = 1: no skip table entry, every in-neighbour is taken.
	g := fanIn(40, 1)
	if g.InSkip(0) != 0 {
		t.Fatalf("p = 1 neighbourhood marked for skipping")
	}
	if set := NewSampler(g).SampleFrom(0, rng, nil); len(set) != 41 {
		t.Errorf("p = 1 fan-in sampled %d members, want all 41", len(set))
	}

	// p = 0: nothing is taken and nothing is skipped over.
	g = fanIn(40, 0)
	if g.InSkip(0) != 0 {
		t.Fatalf("p = 0 neighbourhood marked for skipping")
	}
	if set := NewSampler(g).SampleFrom(0, rng, nil); len(set) != 1 {
		t.Errorf("p = 0 fan-in sampled %v, want just the root", set)
	}

	// p tiny: the first skip is ~1e30 edges long; it must read as "no
	// live edge" rather than overflow an int into a bogus index.
	g = fanIn(40, 1e-30)
	if g.InSkip(0) == 0 {
		t.Fatalf("tiny-p fan-in of 40 not marked for skipping")
	}
	s := NewSampler(g)
	for i := 0; i < 1000; i++ {
		if set := s.SampleFrom(0, rng, nil); len(set) != 1 {
			t.Fatalf("tiny-p fan-in sampled %v, want just the root", set)
		}
	}
	if s.EdgesVisited != 1000*40 {
		t.Errorf("EdgesVisited = %d, want the full width 40 per expansion", s.EdgesVisited)
	}
}

func TestLiveSkip(t *testing.T) {
	inv := 1 / math.Log1p(-0.25) // p = 0.25
	for _, tc := range []struct {
		u    float64
		rem  int
		want int
	}{
		{0, 10, 10},     // ln 0 = −∞: no live edge left
		{0.9999, 10, 0}, // u > 1−p: the very next edge is live
		{0.5, 10, 2},
		{0.5, 2, 2},  // skip == rem: none left
		{0.5, 0, 0},  // empty remainder
		{0.01, 5, 5}, // skip beyond rem is capped
	} {
		if got := liveSkip(tc.u, inv, tc.rem); got != tc.want {
			t.Errorf("liveSkip(%g, p=0.25, rem=%d) = %d, want %d", tc.u, tc.rem, got, tc.want)
		}
	}
	// The smallest positive draw gives a long but finite skip.
	if got := liveSkip(math.SmallestNonzeroFloat64, inv, 1<<30); got < 2000 || got > 3000 {
		t.Errorf("liveSkip(smallest positive u) = %d, want ≈ 744/0.2877", got)
	}
	// A skip factor near zero (p → 1) and one near −∞ (p → 0) stay in range.
	if got := liveSkip(0.5, 1/math.Log1p(-1e-300), 7); got != 7 {
		t.Errorf("p → 0: liveSkip = %d, want the cap 7", got)
	}
	if got := liveSkip(0.5, 1/math.Log1p(-(1-1e-16)), 7); got != 0 {
		t.Errorf("p → 1: liveSkip = %d, want 0", got)
	}
}
