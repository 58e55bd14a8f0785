package imm

import (
	"math"
	"testing"

	"uicwelfare/internal/diffusion"
	"uicwelfare/internal/graph"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
)

func TestIMMPicksHubOnStar(t *testing.T) {
	g := graph.Star(50, 0.9)
	rng := stats.NewRNG(1)
	res := Run(g, 1, rrset.Options{Eps: 0.5, Ell: 1}, rng)
	if len(res.Seeds) != 1 || res.Seeds[0] != 0 {
		t.Errorf("IMM picked %v, want hub", res.Seeds)
	}
	if res.NumRRSets == 0 {
		t.Error("no RR sets recorded")
	}
	// spread of hub = 1 + 49*0.9 = 45.1
	if math.Abs(res.SpreadEst-45.1) > 5 {
		t.Errorf("spread estimate %v, want ~45.1", res.SpreadEst)
	}
}

func TestIMMApproximationVsGreedyMC(t *testing.T) {
	rng := stats.NewRNG(2)
	g := graph.ErdosRenyi(80, 400, rng).WeightedCascade()
	res := Run(g, 4, rrset.Options{Eps: 0.3, Ell: 1}, rng)
	if len(res.Seeds) != 4 {
		t.Fatalf("got %d seeds", len(res.Seeds))
	}
	immSpread := diffusion.Spread(g, res.Seeds, rng, 40000)

	greedy := diffusion.GreedySpreadMC(g, 4, 1000, rng)
	greedySpread := diffusion.Spread(g, greedy, rng, 40000)

	// Greedy-MC is itself near-optimal, so IMM must reach at least
	// (1-1/e-eps) of it with slack for MC noise.
	floor := (1 - 1/math.E - 0.3) * greedySpread
	if immSpread < floor {
		t.Errorf("IMM spread %v below floor %v (greedy %v)", immSpread, floor, greedySpread)
	}
}

func TestIMMSeedsAreDistinct(t *testing.T) {
	rng := stats.NewRNG(3)
	g := graph.ErdosRenyi(60, 300, rng).WeightedCascade()
	res := Run(g, 10, rrset.Options{}, rng)
	seen := map[graph.NodeID]bool{}
	for _, s := range res.Seeds {
		if seen[s] {
			t.Fatalf("duplicate seed %d in %v", s, res.Seeds)
		}
		seen[s] = true
	}
}

func TestIMMBudgetAtLeastN(t *testing.T) {
	g := graph.Line(5, 0.5)
	rng := stats.NewRNG(4)
	res := Run(g, 10, rrset.Options{}, rng)
	if len(res.Seeds) != 5 || res.SpreadEst != 5 {
		t.Errorf("full-graph budget: %+v", res)
	}
}

func TestIMMZeroBudget(t *testing.T) {
	g := graph.Line(5, 0.5)
	rng := stats.NewRNG(5)
	res := Run(g, 0, rrset.Options{}, rng)
	if len(res.Seeds) != 0 {
		t.Errorf("zero budget returned seeds: %v", res.Seeds)
	}
}

func TestIMMDeterministicGivenSeed(t *testing.T) {
	g := graph.Star(30, 0.5)
	a := Run(g, 3, rrset.Options{}, stats.NewRNG(42))
	b := Run(g, 3, rrset.Options{}, stats.NewRNG(42))
	if len(a.Seeds) != len(b.Seeds) {
		t.Fatal("nondeterministic size")
	}
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] {
			t.Fatalf("nondeterministic seeds: %v vs %v", a.Seeds, b.Seeds)
		}
	}
	if a.NumRRSets != b.NumRRSets {
		t.Errorf("nondeterministic RR counts: %d vs %d", a.NumRRSets, b.NumRRSets)
	}
}

func TestIMMNodeCoinReducesSpreadEst(t *testing.T) {
	g := graph.Star(100, 0.9)
	rng := stats.NewRNG(6)
	full := Run(g, 1, rrset.Options{}, rng)
	damped := Run(g, 1, rrset.Options{NodeCoin: func(graph.NodeID) float64 { return 0.3 }}, stats.NewRNG(6))
	if damped.SpreadEst >= full.SpreadEst {
		t.Errorf("node coin did not damp spread: %v vs %v", damped.SpreadEst, full.SpreadEst)
	}
}

func TestTIMGeneratesMoreRRSetsThanIMM(t *testing.T) {
	rng := stats.NewRNG(7)
	g := graph.ErdosRenyi(200, 1200, rng).WeightedCascade()
	immRes := Run(g, 10, rrset.Options{}, stats.NewRNG(8))
	timRes := RunTIM(g, 10, rrset.Options{}, stats.NewRNG(9))
	if timRes.NumRRSets <= immRes.NumRRSets {
		t.Errorf("TIM (%d) should need more RR sets than IMM (%d)",
			timRes.NumRRSets, immRes.NumRRSets)
	}
}

func TestTIMPicksHubOnStar(t *testing.T) {
	g := graph.Star(50, 0.9)
	rng := stats.NewRNG(10)
	res := RunTIM(g, 1, rrset.Options{}, rng)
	if len(res.Seeds) != 1 || res.Seeds[0] != 0 {
		t.Errorf("TIM picked %v", res.Seeds)
	}
}

func TestTIMQualityVsGreedy(t *testing.T) {
	rng := stats.NewRNG(11)
	g := graph.ErdosRenyi(80, 400, rng).WeightedCascade()
	res := RunTIM(g, 4, rrset.Options{Eps: 0.3}, rng)
	timSpread := diffusion.Spread(g, res.Seeds, rng, 40000)
	greedy := diffusion.GreedySpreadMC(g, 4, 800, rng)
	greedySpread := diffusion.Spread(g, greedy, rng, 40000)
	if timSpread < (1-1/math.E-0.3)*greedySpread {
		t.Errorf("TIM spread %v too low vs greedy %v", timSpread, greedySpread)
	}
}
