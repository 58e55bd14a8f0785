package prima_test

import (
	"math"
	"testing"

	"uicwelfare/internal/diffusion"
	"uicwelfare/internal/graph"
	"uicwelfare/internal/imm"
	"uicwelfare/internal/prima"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
)

func TestSelectReturnsMaxBudgetSeeds(t *testing.T) {
	rng := stats.NewRNG(1)
	g := graph.ErdosRenyi(100, 500, rng).WeightedCascade()
	res := prima.Select(g, []int{5, 15, 10}, rrset.Options{}, rng)
	if len(res.Seeds) != 15 {
		t.Errorf("got %d seeds, want max budget 15", len(res.Seeds))
	}
}

func TestSelectSeedsDistinct(t *testing.T) {
	rng := stats.NewRNG(2)
	g := graph.ErdosRenyi(100, 500, rng).WeightedCascade()
	res := prima.Select(g, []int{20}, rrset.Options{}, rng)
	seen := map[graph.NodeID]bool{}
	for _, s := range res.Seeds {
		if seen[s] {
			t.Fatalf("duplicate seed %d", s)
		}
		seen[s] = true
	}
}

func TestPrefixPreservingProperty(t *testing.T) {
	// For every budget in the vector, the top-b_i prefix must achieve
	// spread within (1-1/e-eps) of a strong reference (greedy MC). The
	// greedy picks one node per step and never reads its budget, so one
	// run at the top budget yields every budget's reference as a prefix.
	rng := stats.NewRNG(3)
	g := graph.ErdosRenyi(80, 400, rng).WeightedCascade()
	budgets := []int{8, 4, 2}
	res := prima.Select(g, budgets, rrset.Options{Eps: 0.3, Ell: 1}, rng)
	if len(res.Seeds) != 8 {
		t.Fatalf("got %d seeds", len(res.Seeds))
	}
	ref := diffusion.GreedySpreadMC(g, budgets[0], 600, rng)
	for _, b := range budgets {
		prefix := res.Seeds[:b]
		got := diffusion.Spread(g, prefix, rng, 30000)
		refSpread := diffusion.Spread(g, ref[:b], rng, 30000)
		if got < (1-1/math.E-0.3)*refSpread {
			t.Errorf("budget %d: prefix spread %v below floor of reference %v", b, got, refSpread)
		}
	}
}

func TestSelectRRSetCountComparableToIMM(t *testing.T) {
	// Table 6: PRIMA's final collection is the same order of magnitude as
	// the largest per-budget IMM run (ell' differs by log|b|/log n).
	rng := stats.NewRNG(7)
	g := graph.ErdosRenyi(150, 900, rng).WeightedCascade()
	budgets := []int{10, 5, 2}
	pres := prima.Select(g, budgets, rrset.Options{}, stats.NewRNG(8))
	maxIMM := 0
	for _, b := range budgets {
		r := imm.Run(g, b, rrset.Options{}, stats.NewRNG(9))
		if r.NumRRSets > maxIMM {
			maxIMM = r.NumRRSets
		}
	}
	if pres.NumRRSets < maxIMM/3 || pres.NumRRSets > maxIMM*3 {
		t.Errorf("PRIMA RR sets %d not comparable to max IMM %d", pres.NumRRSets, maxIMM)
	}
}

func TestSelectDeterministic(t *testing.T) {
	g := graph.Star(60, 0.5)
	a := prima.Select(g, []int{3, 1}, rrset.Options{}, stats.NewRNG(42))
	b := prima.Select(g, []int{3, 1}, rrset.Options{}, stats.NewRNG(42))
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] {
			t.Fatalf("nondeterministic: %v vs %v", a.Seeds, b.Seeds)
		}
	}
}

func TestSelectUniformBudgets(t *testing.T) {
	rng := stats.NewRNG(10)
	g := graph.ErdosRenyi(80, 400, rng).WeightedCascade()
	res := prima.Select(g, []int{5, 5, 5}, rrset.Options{}, rng)
	if len(res.Seeds) != 5 {
		t.Errorf("uniform budgets: got %d seeds", len(res.Seeds))
	}
}

func TestSelectBudgetLargerThanGraph(t *testing.T) {
	g := graph.Line(4, 0.5)
	rng := stats.NewRNG(11)
	res := prima.Select(g, []int{100}, rrset.Options{}, rng)
	if len(res.Seeds) != 4 {
		t.Errorf("clamped budget: %d seeds", len(res.Seeds))
	}
}

func TestSelectEmptyAndZeroBudgets(t *testing.T) {
	g := graph.Line(4, 0.5)
	rng := stats.NewRNG(12)
	if res := prima.Select(g, nil, rrset.Options{}, rng); len(res.Seeds) != 0 {
		t.Errorf("nil budgets returned seeds")
	}
	if res := prima.Select(g, []int{0, 0}, rrset.Options{}, rng); len(res.Seeds) != 0 {
		t.Errorf("zero budgets returned seeds")
	}
}

func TestSelectHubFirstOnStar(t *testing.T) {
	g := graph.Star(50, 0.9)
	rng := stats.NewRNG(13)
	res := prima.Select(g, []int{3, 1}, rrset.Options{}, rng)
	if res.Seeds[0] != 0 {
		t.Errorf("hub not first in ordering: %v", res.Seeds)
	}
}
