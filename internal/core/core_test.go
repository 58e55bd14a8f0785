package core

import (
	"context"
	"math"
	"testing"

	"uicwelfare/internal/blocks"
	"uicwelfare/internal/diffusion"
	"uicwelfare/internal/graph"
	"uicwelfare/internal/itemset"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/uic"
	"uicwelfare/internal/utility"
)

func testGraph(n, m int, seed uint64) *graph.Graph {
	rng := stats.NewRNG(seed)
	return graph.ErdosRenyi(n, m, rng).WeightedCascade()
}

// plan runs the named planner through the registry, failing the test
// on an error.
func plan(t *testing.T, name string, p *Problem, opts Options, rng *stats.RNG) Result {
	t.Helper()
	res, err := Plan(context.Background(), name, p, opts, rng)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

func TestNewProblemValidation(t *testing.T) {
	g := testGraph(10, 30, 1)
	m := utility.Config1()
	if _, err := NewProblem(g, m, []int{1}); err == nil {
		t.Error("budget length mismatch accepted")
	}
	if _, err := NewProblem(g, m, []int{1, -1}); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := NewProblem(nil, m, []int{1, 1}); err == nil {
		t.Error("nil graph accepted")
	}
	p, err := NewProblem(g, m, []int{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if p.MaxBudget() != 5 || p.TotalBudget() != 8 {
		t.Errorf("budgets: max %d total %d", p.MaxBudget(), p.TotalBudget())
	}
}

func TestBudgetOrder(t *testing.T) {
	g := testGraph(10, 30, 2)
	m := utility.Config5(4)
	p := MustProblem(g, m, []int{10, 40, 20, 40})
	order := p.BudgetOrder()
	want := []int{1, 3, 2, 0} // ties toward smaller index
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCheckAllocation(t *testing.T) {
	g := testGraph(10, 30, 3)
	m := utility.Config1()
	p := MustProblem(g, m, []int{2, 1})

	good := uic.NewAllocation(2)
	good.Assign(0, 0)
	good.Assign(1, 0)
	good.Assign(0, 1)
	if err := p.CheckAllocation(good); err != nil {
		t.Errorf("valid allocation rejected: %v", err)
	}

	over := uic.NewAllocation(2)
	over.Assign(0, 1)
	over.Assign(1, 1)
	if err := p.CheckAllocation(over); err == nil {
		t.Error("over-budget allocation accepted")
	}

	dup := uic.NewAllocation(2)
	dup.Assign(0, 0)
	dup.Assign(0, 0)
	if err := p.CheckAllocation(dup); err == nil {
		t.Error("duplicate seed accepted")
	}

	bad := uic.NewAllocation(2)
	bad.Assign(99, 0)
	if err := p.CheckAllocation(bad); err == nil {
		t.Error("out-of-range node accepted")
	}
}

func TestBundleGRDStructure(t *testing.T) {
	g := testGraph(80, 400, 4)
	m := utility.Config1()
	p := MustProblem(g, m, []int{7, 3})
	res := plan(t, AlgoBundleGRD, p, Options{}, stats.NewRNG(5))
	if err := p.CheckAllocation(res.Alloc); err != nil {
		t.Fatalf("bundleGRD violated budgets: %v", err)
	}
	if len(res.Alloc.Seeds[0]) != 7 || len(res.Alloc.Seeds[1]) != 3 {
		t.Fatalf("seed counts %d/%d", len(res.Alloc.Seeds[0]), len(res.Alloc.Seeds[1]))
	}
	// prefix nesting: smaller-budget item's seeds are a prefix of the
	// larger-budget item's seeds
	for i, v := range res.Alloc.Seeds[1] {
		if res.Alloc.Seeds[0][i] != v {
			t.Fatalf("prefix nesting broken: %v vs %v", res.Alloc.Seeds[0], res.Alloc.Seeds[1])
		}
	}
	if res.IMMInvocations != 1 {
		t.Errorf("bundleGRD should make exactly one PRIMA call")
	}
}

func TestBundleGRDIsParameterFree(t *testing.T) {
	// identical budgets and graph, different utility models: the greedy
	// allocation must be identical (the algorithm never reads utilities)
	g := testGraph(60, 240, 6)
	p1 := MustProblem(g, utility.Config1(), []int{5, 2})
	p2 := MustProblem(g, utility.Config3(), []int{5, 2})
	r1 := plan(t, AlgoBundleGRD, p1, Options{}, stats.NewRNG(7))
	r2 := plan(t, AlgoBundleGRD, p2, Options{}, stats.NewRNG(7))
	for i := range r1.SeedOrder {
		if r1.SeedOrder[i] != r2.SeedOrder[i] {
			t.Fatal("allocation depends on utilities; it must not")
		}
	}
}

func TestItemDisjointStructure(t *testing.T) {
	g := testGraph(80, 400, 8)
	m := utility.Config1()
	p := MustProblem(g, m, []int{5, 3})
	res := plan(t, AlgoItemDisjoint, p, Options{}, stats.NewRNG(9))
	if err := p.CheckAllocation(res.Alloc); err != nil {
		t.Fatalf("item-disj violated budgets: %v", err)
	}
	if len(res.Alloc.Seeds[0]) != 5 || len(res.Alloc.Seeds[1]) != 3 {
		t.Fatalf("seed counts %d/%d", len(res.Alloc.Seeds[0]), len(res.Alloc.Seeds[1]))
	}
	// seeds must be disjoint across items
	seen := map[graph.NodeID]bool{}
	for _, seeds := range res.Alloc.Seeds {
		for _, v := range seeds {
			if seen[v] {
				t.Fatalf("node %d carries two items in item-disj", v)
			}
			seen[v] = true
		}
	}
}

func TestBundleDisjointConfig1SeparateBundles(t *testing.T) {
	// config1: both items have non-negative deterministic utility, so
	// each forms its own singleton bundle with disjoint fresh seeds —
	// the setting where the paper calls item-disj and bundle-disj
	// equivalent.
	g := testGraph(80, 400, 10)
	p := MustProblem(g, utility.Config1(), []int{4, 4})
	res := plan(t, AlgoBundleDisjoint, p, Options{}, stats.NewRNG(11))
	if err := p.CheckAllocation(res.Alloc); err != nil {
		t.Fatalf("bundle-disj violated budgets: %v", err)
	}
	seen := map[graph.NodeID]bool{}
	for _, seeds := range res.Alloc.Seeds {
		for _, v := range seeds {
			if seen[v] {
				t.Fatalf("config1 bundles overlap at node %d", v)
			}
			seen[v] = true
		}
	}
	if res.IMMInvocations < 2 {
		t.Errorf("bundle-disj should invoke IMM per bundle, got %d calls", res.IMMInvocations)
	}
}

func TestBundleDisjointConfig3CoLocates(t *testing.T) {
	// config3: i2 has negative deterministic utility and cannot form a
	// bundle; its budget is recycled onto i1's seeds — the setting where
	// the paper calls bundleGRD and bundle-disj equivalent.
	g := testGraph(80, 400, 12)
	p := MustProblem(g, utility.Config3(), []int{4, 4})
	res := plan(t, AlgoBundleDisjoint, p, Options{}, stats.NewRNG(13))
	if err := p.CheckAllocation(res.Alloc); err != nil {
		t.Fatalf("bundle-disj violated budgets: %v", err)
	}
	s0 := map[graph.NodeID]bool{}
	for _, v := range res.Alloc.Seeds[0] {
		s0[v] = true
	}
	for _, v := range res.Alloc.Seeds[1] {
		if !s0[v] {
			t.Fatalf("i2 seed %d not co-located with i1 (seeds %v vs %v)",
				v, res.Alloc.Seeds[0], res.Alloc.Seeds[1])
		}
	}
}

func TestBundleGRDBeatsItemDisjointOnConfig3(t *testing.T) {
	// with a negative-utility item, item-disj wastes i2's budget entirely
	g := testGraph(150, 900, 14)
	m := utility.Config3()
	p := MustProblem(g, m, []int{10, 10})
	rng := stats.NewRNG(15)

	grd := plan(t, AlgoBundleGRD, p, Options{}, rng)
	disj := plan(t, AlgoItemDisjoint, p, Options{}, rng)

	sim := uic.NewSimulator(g, m)
	const runs = 30000
	wGrd := sim.EstimateWelfare(grd.Alloc, stats.NewRNG(16), runs)
	wDisj := sim.EstimateWelfare(disj.Alloc, stats.NewRNG(17), runs)
	if wGrd.Mean <= wDisj.Mean {
		t.Errorf("bundleGRD %.2f should beat item-disj %.2f on config3",
			wGrd.Mean, wDisj.Mean)
	}
}

func TestBundleGRDApproximatesBruteForceOPT(t *testing.T) {
	// tiny instance where OPT is enumerable: bundleGRD must reach well
	// within (1-1/e-eps) of the optimum (in practice it is near-optimal)
	g := graph.FromEdges(6, [][3]float64{
		{0, 1, 0.8}, {0, 2, 0.8}, {1, 3, 0.6}, {2, 4, 0.6}, {4, 5, 0.5},
	})
	m := utility.Config3()
	p := MustProblem(g, m, []int{1, 1})
	rng := stats.NewRNG(18)

	_, optWelfare := BruteForceOPT(p, 4000, rng)
	grd := plan(t, AlgoBundleGRD, p, Options{Eps: 0.3}, rng)
	sim := uic.NewSimulator(g, m)
	grdWelfare := sim.EstimateWelfare(grd.Alloc, stats.NewRNG(19), 20000).Mean

	floor := (1 - 1/math.E - 0.3) * optWelfare
	if grdWelfare < floor {
		t.Errorf("bundleGRD welfare %v below floor %v (OPT %v)", grdWelfare, floor, optWelfare)
	}
}

func TestBruteForceOPTPanicsOnLargeInstance(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	g := testGraph(200, 600, 20)
	p := MustProblem(g, utility.Config1(), []int{10, 10})
	BruteForceOPT(p, 10, stats.NewRNG(21))
}

func TestLemma4SeedAdoptionIsFullBlockPrefix(t *testing.T) {
	// under the greedy allocation, a seed at rank r adopts exactly the
	// union of the full blocks before the first non-full one
	rng := stats.NewRNG(22)
	for trial := 0; trial < 40; trial++ {
		m := utility.Config8(4, rng)
		budgets := make([]int, 4)
		for i := range budgets {
			budgets[i] = 1 + rng.Intn(20)
		}
		noise := m.SampleNoise(rng)
		util := m.UtilityTable(noise, nil)
		blk, err := blocks.Generate(blocks.Instance{Util: util, Budgets: budgets})
		if err != nil {
			t.Fatal(err)
		}
		maxB := 0
		for _, b := range budgets {
			if b > maxB {
				maxB = b
			}
		}
		for r := 0; r < maxB; r++ {
			var allocated itemset.Set
			for i, b := range budgets {
				if b > r {
					allocated = allocated.Add(i)
				}
			}
			got := utility.Adopt(util, allocated, itemset.Empty)
			// expected: union of blocks while e_j > r
			want := itemset.Empty
			for j := 0; j < blk.T(); j++ {
				if blk.EffBudget[j] <= r {
					break
				}
				want = want.Union(blk.Seq[j])
			}
			if got != want {
				t.Fatalf("trial %d rank %d: adopted %v, want %v (blocks %v, eff %v, alloc %v)",
					trial, r, got, want, blk.Seq, blk.EffBudget, allocated)
			}
		}
	}
}

func TestLemma5WelfareDecomposition(t *testing.T) {
	// ρ_{W^N}(Grd) = Σ_i σ(S^GrdE_{B_i}) · Δ_i
	rng := stats.NewRNG(23)
	g := testGraph(60, 300, 24)
	m := utility.Config8(3, stats.NewRNG(25))
	budgets := []int{8, 5, 2}
	p := MustProblem(g, m, budgets)
	grd := plan(t, AlgoBundleGRD, p, Options{}, rng)

	noise := m.SampleNoise(rng)
	util := m.UtilityTable(noise, nil)
	blk, err := blocks.Generate(blocks.Instance{Util: util, Budgets: budgets})
	if err != nil {
		t.Fatal(err)
	}

	// left side: Monte-Carlo welfare under the fixed noise world
	sim := uic.NewSimulator(g, m)
	const runs = 40000
	lhs := sim.WelfareGivenNoise(grd.Alloc, noise, stats.NewRNG(26), runs)

	// right side: spread of effective seed prefixes times deltas
	rhs := 0.0
	for i := 0; i < blk.T(); i++ {
		e := blk.EffBudget[i]
		if e > len(grd.SeedOrder) {
			e = len(grd.SeedOrder)
		}
		spread := diffusion.Spread(g, grd.SeedOrder[:e], stats.NewRNG(27), runs)
		rhs += spread * blk.Deltas[i]
	}
	if blk.T() == 0 {
		rhs = 0
	}
	tol := 0.05*math.Max(math.Abs(lhs), math.Abs(rhs)) + 0.3
	if math.Abs(lhs-rhs) > tol {
		t.Errorf("Lemma 5 decomposition: simulated %v vs block accounting %v", lhs, rhs)
	}
}

func TestZeroBudgetsProduceEmptyAllocation(t *testing.T) {
	g := testGraph(20, 60, 28)
	m := utility.Config1()
	p := MustProblem(g, m, []int{0, 0})
	for name, res := range map[string]Result{
		"bundleGRD":   plan(t, AlgoBundleGRD, p, Options{}, stats.NewRNG(29)),
		"item-disj":   plan(t, AlgoItemDisjoint, p, Options{}, stats.NewRNG(30)),
		"bundle-disj": plan(t, AlgoBundleDisjoint, p, Options{}, stats.NewRNG(31)),
	} {
		if res.Alloc.Pairs() != 0 {
			t.Errorf("%s allocated %d pairs with zero budgets", name, res.Alloc.Pairs())
		}
	}
}

func TestAllAlgorithmsRespectBudgetsOnRealParams(t *testing.T) {
	g := testGraph(100, 500, 32)
	m := utility.RealParams()
	p := MustProblem(g, m, []int{30, 30, 20, 10, 10})
	for name, res := range map[string]Result{
		"bundleGRD":   plan(t, AlgoBundleGRD, p, Options{}, stats.NewRNG(33)),
		"item-disj":   plan(t, AlgoItemDisjoint, p, Options{}, stats.NewRNG(34)),
		"bundle-disj": plan(t, AlgoBundleDisjoint, p, Options{}, stats.NewRNG(35)),
	} {
		if err := p.CheckAllocation(res.Alloc); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestBundleDisjointRealParamsFindsBundle(t *testing.T) {
	// RealParams' minimal non-negative bundle is {ps, c, 2 games}
	g := testGraph(100, 500, 36)
	m := utility.RealParams()
	p := MustProblem(g, m, []int{30, 30, 20, 10, 10})
	b := minimalNonNegativeBundle(p, p.Budgets)
	if b.Size() != 4 || !b.Has(0) || !b.Has(1) {
		t.Errorf("minimal bundle %v, want ps+c+two games", b)
	}
}

func TestItemDisjointZeroWelfareOnAllNegative(t *testing.T) {
	// when every singleton has negative deterministic utility, item-disj
	// produces (near) zero welfare — the degenerate case §4.3.2 mentions
	g := testGraph(60, 300, 37)
	m := utility.RealParams() // every singleton negative
	p := MustProblem(g, m, []int{5, 5, 5, 5, 5})
	res := plan(t, AlgoItemDisjoint, p, Options{}, stats.NewRNG(38))
	sim := uic.NewSimulator(g, m)
	w := sim.EstimateWelfare(res.Alloc, stats.NewRNG(39), 5000)
	if w.Mean > 1e-9 {
		t.Errorf("item-disj welfare %v on all-negative singletons, want 0", w.Mean)
	}
}
