package oracle

import (
	"math"
	"testing"

	"uicwelfare/internal/core"
	"uicwelfare/internal/diffusion"
	"uicwelfare/internal/graph"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/uic"
	"uicwelfare/internal/utility"
)

func testGraph(seed uint64) *graph.Graph {
	rng := stats.NewRNG(seed)
	return graph.ErdosRenyi(120, 700, rng).WeightedCascade()
}

func TestBuildAndQuery(t *testing.T) {
	g := testGraph(1)
	rng := stats.NewRNG(2)
	o, err := Build(g, 16, Options{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if o.MaxBudget() != 16 {
		t.Fatalf("max budget %d", o.MaxBudget())
	}
	s4, err := o.Seeds(4)
	if err != nil || len(s4) != 4 {
		t.Fatalf("Seeds(4) = %v, %v", s4, err)
	}
	s8, _ := o.Seeds(8)
	for i := range s4 {
		if s8[i] != s4[i] {
			t.Fatal("prefix property broken across queries")
		}
	}
	if _, err := o.Seeds(17); err == nil {
		t.Error("budget above max accepted")
	}
	if _, err := o.Seeds(-1); err == nil {
		t.Error("negative budget accepted")
	}
}

func TestSpreadMonotoneAndAccurate(t *testing.T) {
	g := testGraph(3)
	rng := stats.NewRNG(4)
	o, err := Build(g, 12, Options{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for b := 0; b <= 12; b++ {
		s, err := o.Spread(b)
		if err != nil {
			t.Fatal(err)
		}
		if s < prev-1e-9 {
			t.Fatalf("spread not monotone at %d: %v < %v", b, s, prev)
		}
		prev = s
	}
	// accuracy: compare the budget-8 estimate with forward MC
	seeds, _ := o.Seeds(8)
	mc := diffusion.Spread(g, seeds, rng, 40000)
	est, _ := o.Spread(8)
	if math.Abs(est-mc) > 0.1*mc+0.5 {
		t.Errorf("oracle spread %v vs MC %v", est, mc)
	}
}

func TestAllocateMatchesBundleGRDShape(t *testing.T) {
	g := testGraph(5)
	rng := stats.NewRNG(6)
	o, err := Build(g, 10, Options{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	m := utility.Config1()
	alloc, err := o.Allocate([]int{10, 4})
	if err != nil {
		t.Fatal(err)
	}
	p := core.MustProblem(g, m, []int{10, 4})
	if err := p.CheckAllocation(alloc); err != nil {
		t.Fatalf("oracle allocation invalid: %v", err)
	}
	// prefix nesting as in Algorithm 1
	for i, v := range alloc.Seeds[1] {
		if alloc.Seeds[0][i] != v {
			t.Fatal("oracle allocation lost prefix nesting")
		}
	}
	if _, err := o.Allocate([]int{11}); err == nil {
		t.Error("over-max budget accepted")
	}
}

func TestOracleQualityVsDirectBundleGRD(t *testing.T) {
	// welfare from the oracle's cached ordering must match a fresh
	// bundleGRD run statistically
	g := testGraph(7)
	m := utility.Config3()
	budgets := []int{8, 8}
	o, err := Build(g, 8, Options{}, stats.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	oAlloc, _ := o.Allocate(budgets)
	p := core.MustProblem(g, m, budgets)
	direct := core.BundleGRD(p, core.Options{}, stats.NewRNG(9))

	simO := uic.NewSimulator(g, m).EstimateWelfare(oAlloc, stats.NewRNG(10), 20000).Mean
	simD := uic.NewSimulator(g, m).EstimateWelfare(direct.Alloc, stats.NewRNG(10), 20000).Mean
	if math.Abs(simO-simD) > 0.15*math.Max(simO, simD)+0.5 {
		t.Errorf("oracle welfare %v vs direct bundleGRD %v", simO, simD)
	}
}

func TestBuildValidation(t *testing.T) {
	g := testGraph(10)
	if _, err := Build(g, 0, Options{}, stats.NewRNG(11)); err == nil {
		t.Error("zero max budget accepted")
	}
	// budget above n clamps
	o, err := Build(graph.Line(5, 0.5), 100, Options{}, stats.NewRNG(12))
	if err != nil {
		t.Fatal(err)
	}
	if o.MaxBudget() != 5 {
		t.Errorf("clamped max budget %d", o.MaxBudget())
	}
}

func TestOracleLTMode(t *testing.T) {
	g := testGraph(13)
	o, err := Build(g, 6, Options{Cascade: graph.CascadeLT}, stats.NewRNG(14))
	if err != nil {
		t.Fatal(err)
	}
	if o.MaxBudget() != 6 {
		t.Errorf("LT oracle max budget %d", o.MaxBudget())
	}
	if s, _ := o.Spread(6); s <= 0 {
		t.Errorf("LT spread %v", s)
	}
}

// TestSpreadMatchesExactEnumeration: on a 12-node graph whose hub
// neighbourhood is skip-sampled, the oracle's RR-based spread of every
// prefix agrees with exact live-edge enumeration — the RR identity holds
// through the skip sampler, the CSR index and the oracle's coverage scan.
func TestSpreadMatchesExactEnumeration(t *testing.T) {
	b := graph.NewBuilder(12)
	for u := 1; u <= 10; u++ {
		b.AddEdge(graph.NodeID(u), 0, 0.1)
	}
	b.AddEdge(0, 11, 0.5)
	b.AddEdge(11, 1, 0.4)
	b.AddEdge(11, 2, 0.4)
	b.AddEdge(3, 4, 0.7)
	b.AddEdge(5, 4, 0.2)
	g := b.Build()
	if g.InSkip(0) == 0 {
		t.Fatal("hub neighbourhood not skip-sampled; the test would not exercise the skip path")
	}
	const samples = 200000
	o, err := Build(g, 6, Options{SpreadSamples: samples}, stats.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= o.MaxBudget(); k++ {
		seeds, _ := o.Seeds(k)
		est, _ := o.Spread(k)
		exact := diffusion.ExactSpread(g, seeds)
		frac := exact / float64(g.N())
		tol := 4 * float64(g.N()) * math.Sqrt(frac*(1-frac)/samples)
		if math.Abs(est-exact) > tol {
			t.Errorf("budget %d seeds %v: oracle spread %.4f vs exact %.4f (4σ = %.4f)", k, seeds, est, exact, tol)
		}
	}
}
