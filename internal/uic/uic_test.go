package uic

import (
	"math"
	"testing"

	"uicwelfare/internal/diffusion"
	"uicwelfare/internal/graph"
	"uicwelfare/internal/itemset"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/utility"
)

// figure2Model builds the utility setting of the paper's Fig. 2 example:
// U(i1) > 0, U(i2) < 0, U({i1,i2}) > U(i1), zero noise.
func figure2Model() *utility.Model {
	// V(i1)=3,P(i1)=1 -> U=2; V(i2)=1,P(i2)=2 -> U=-1; V both=6,P=3 -> U=3
	val, err := utility.NewTableValuation(2, []float64{0, 3, 1, 6})
	if err != nil {
		panic(err)
	}
	return utility.MustModel(val,
		[]float64{1, 2},
		[]stats.Dist{stats.PointMass{}, stats.PointMass{}})
}

// figure2Graph: v1 -> v2, v1 -> v3, v2 -> v3 (ids 0, 1, 2).
func figure2Graph() *graph.Graph {
	return graph.FromEdges(3, [][3]float64{
		{0, 1, 0.5}, {0, 2, 0.5}, {1, 2, 0.5},
	})
}

func TestFigure2Walkthrough(t *testing.T) {
	g := figure2Graph()
	m := figure2Model()
	sim := NewSimulator(g, m)

	// the example's edge world: (v1,v2) live, (v1,v3) blocked, (v2,v3) live
	world := diffusion.NewLiveEdgeWorld(g, func(u, v graph.NodeID) bool {
		return !(u == 0 && v == 2)
	})
	alloc := NewAllocation(2)
	alloc.Assign(0, 0) // v1 seeded with i1
	alloc.Assign(2, 1) // v3 seeded with i2

	welfare := sim.RunInWorld(alloc, world, []float64{0, 0})

	if got := sim.Adopted(0); got != itemset.New(0) {
		t.Errorf("v1 adopted %v, want {i1}", got)
	}
	if got := sim.Adopted(1); got != itemset.New(0) {
		t.Errorf("v2 adopted %v, want {i1}", got)
	}
	if got := sim.Adopted(2); got != itemset.New(0, 1) {
		t.Errorf("v3 adopted %v, want {i1,i2}", got)
	}
	// welfare = U(i1) + U(i1) + U({i1,i2}) = 2 + 2 + 3
	if math.Abs(welfare-7) > 1e-12 {
		t.Errorf("welfare = %v, want 7", welfare)
	}
}

func TestFigure2BlockedEverything(t *testing.T) {
	g := figure2Graph()
	m := figure2Model()
	sim := NewSimulator(g, m)
	world := diffusion.NewLiveEdgeWorld(g, func(u, v graph.NodeID) bool { return false })
	alloc := NewAllocation(2)
	alloc.Assign(0, 0)
	alloc.Assign(2, 1)
	welfare := sim.RunInWorld(alloc, world, []float64{0, 0})
	// only v1 adopts i1; v3 desires i2 but rejects it
	if math.Abs(welfare-2) > 1e-12 {
		t.Errorf("welfare = %v, want 2", welfare)
	}
	if got := sim.Adopted(2); !got.IsEmpty() {
		t.Errorf("v3 adopted %v with all edges blocked", got)
	}
}

func TestSeedsAreRationalUsers(t *testing.T) {
	// a seed allocated only a negative-utility item adopts nothing
	m := utility.Config3() // U(i2) = -1 deterministic
	g := graph.Line(2, 1)
	sim := NewSimulator(g, m)
	alloc := NewAllocation(2)
	alloc.Assign(0, 1) // seed node 0 with item i2
	world := diffusion.NewLiveEdgeWorld(g, func(u, v graph.NodeID) bool { return true })
	welfare := sim.RunInWorld(alloc, world, []float64{0, 0})
	if welfare != 0 {
		t.Errorf("welfare = %v, want 0", welfare)
	}
	if !sim.Adopted(0).IsEmpty() {
		t.Errorf("seed adopted negative-utility item: %v", sim.Adopted(0))
	}
}

func TestSeedAdoptsSubsetOfAllocation(t *testing.T) {
	// seed gets both items of config3; zero noise: adopts the bundle
	m := utility.Config3()
	g := graph.Line(1, 1)
	sim := NewSimulator(g, m)
	alloc := NewAllocation(2)
	alloc.Assign(0, 0)
	alloc.Assign(0, 1)
	world := diffusion.NewLiveEdgeWorld(g, func(u, v graph.NodeID) bool { return true })
	welfare := sim.RunInWorld(alloc, world, []float64{0, 0})
	if got := sim.Adopted(0); got != itemset.New(0, 1) {
		t.Errorf("adopted %v, want bundle", got)
	}
	if math.Abs(welfare-1) > 1e-12 {
		t.Errorf("welfare %v, want 1", welfare)
	}
}

func TestLemma3Reachability(t *testing.T) {
	// in any fixed world, every node reachable from an adopter of item i
	// adopts i as well (supermodular valuations)
	rng := stats.NewRNG(1)
	for trial := 0; trial < 30; trial++ {
		g := graph.ErdosRenyi(25, 80, rng)
		m := utility.Config8(3, rng)
		sim := NewSimulator(g, m)
		world := diffusion.SampleLiveEdgeWorld(g.UniformProb(0.5), rng)
		noise := m.SampleNoise(rng)
		alloc := NewAllocation(3)
		for i := 0; i < 3; i++ {
			for s := 0; s < 3; s++ {
				alloc.Assign(graph.NodeID(rng.Intn(25)), i)
			}
		}
		sim.RunInWorld(alloc, world, noise)
		for v := graph.NodeID(0); int(v) < g.N(); v++ {
			av := sim.Adopted(v)
			if av.IsEmpty() {
				continue
			}
			reach := world.Reachable([]graph.NodeID{v})
			for w := graph.NodeID(0); int(w) < g.N(); w++ {
				if !reach[w] {
					continue
				}
				if !av.SubsetOf(sim.Adopted(w)) {
					t.Fatalf("trial %d: node %d adopted %v but reachable node %d adopted %v",
						trial, v, av, w, sim.Adopted(w))
				}
			}
		}
	}
}

func TestTheorem1MonotonicityPerWorld(t *testing.T) {
	// ρ_W(𝒮) <= ρ_W(𝒮') for 𝒮 ⊆ 𝒮', in every possible world
	rng := stats.NewRNG(2)
	for trial := 0; trial < 30; trial++ {
		g := graph.ErdosRenyi(20, 60, rng)
		m := utility.Config8(3, rng)
		sim := NewSimulator(g, m)
		world := diffusion.SampleLiveEdgeWorld(g.UniformProb(0.6), rng)
		noise := m.SampleNoise(rng)

		small := NewAllocation(3)
		for i := 0; i < 3; i++ {
			small.Assign(graph.NodeID(rng.Intn(20)), i)
		}
		big := small.Clone()
		for i := 0; i < 3; i++ {
			big.Assign(graph.NodeID(rng.Intn(20)), i)
		}
		ws := sim.RunInWorld(small, world, noise)
		wb := sim.RunInWorld(big, world, noise)
		if wb < ws-1e-9 {
			t.Fatalf("trial %d: welfare not monotone: %v -> %v", trial, ws, wb)
		}
	}
}

func TestTheorem1NotSubmodular(t *testing.T) {
	// the paper's counterexample: one node, two items, each with negative
	// deterministic utility, positive together; bounded noise.
	val, err := utility.NewTableValuation(2, []float64{0, 1, 1, 5})
	if err != nil {
		t.Fatal(err)
	}
	// P = 2 each: U(i1) = U(i2) = -1; U(both) = +1.
	// noise bounded by |V - P| = 1
	m := utility.MustModel(val, []float64{2, 2}, []stats.Dist{
		stats.TruncatedGaussian{Mu: 0, Sigma: 0.5, Lo: -1, Hi: 1},
		stats.TruncatedGaussian{Mu: 0, Sigma: 0.5, Lo: -1, Hi: 1},
	})
	g := graph.Line(1, 1)
	rng := stats.NewRNG(3)
	sim := NewSimulator(g, m)

	empty := NewAllocation(2)
	s1 := NewAllocation(2)
	s1.Assign(0, 0) // (u, i1)
	s1i2 := NewAllocation(2)
	s1i2.Assign(0, 1) // (u, i2)
	both := NewAllocation(2)
	both.Assign(0, 0)
	both.Assign(0, 1)

	const runs = 60000
	rhoEmpty := sim.EstimateWelfare(empty, rng, runs).Mean
	rhoI2 := sim.EstimateWelfare(s1i2, rng, runs).Mean
	rhoI1 := sim.EstimateWelfare(s1, rng, runs).Mean
	rhoBoth := sim.EstimateWelfare(both, rng, runs).Mean

	gainAtEmpty := rhoI2 - rhoEmpty // must be ~0
	gainAtS1 := rhoBoth - rhoI1     // must be clearly positive
	if math.Abs(gainAtEmpty) > 0.02 {
		t.Errorf("marginal of (u,i2) at ∅ = %v, want 0", gainAtEmpty)
	}
	if gainAtS1 < 0.5 {
		t.Errorf("marginal of (u,i2) at {(u,i1)} = %v, want ~1", gainAtS1)
	}
	if gainAtS1 <= gainAtEmpty {
		t.Errorf("submodularity not violated: %v <= %v", gainAtS1, gainAtEmpty)
	}
}

func TestTheorem1NotSupermodular(t *testing.T) {
	// two nodes v1 -> v2 with p=1, one item with positive deterministic
	// utility: the second seed placement adds nothing.
	val, err := utility.NewTableValuation(1, []float64{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	m := utility.MustModel(val, []float64{1}, []stats.Dist{
		stats.TruncatedGaussian{Mu: 0, Sigma: 1, Lo: -2, Hi: 2},
	})
	g := graph.Line(2, 1)
	rng := stats.NewRNG(4)
	sim := NewSimulator(g, m)

	empty := NewAllocation(1)
	sPrime := NewAllocation(1)
	sPrime.Assign(0, 0)
	v2only := NewAllocation(1)
	v2only.Assign(1, 0)
	sPrimePlus := sPrime.Clone()
	sPrimePlus.Assign(1, 0)

	const runs = 60000
	gainAtEmpty := sim.EstimateWelfare(v2only, rng, runs).Mean -
		sim.EstimateWelfare(empty, rng, runs).Mean
	gainAtSPrime := sim.EstimateWelfare(sPrimePlus, rng, runs).Mean -
		sim.EstimateWelfare(sPrime, rng, runs).Mean

	if gainAtEmpty < 1.5 { // E[U(i)] = 2
		t.Errorf("marginal at ∅ = %v, want ~2", gainAtEmpty)
	}
	if math.Abs(gainAtSPrime) > 0.05 {
		t.Errorf("marginal at 𝒮' = %v, want 0", gainAtSPrime)
	}
	if gainAtSPrime >= gainAtEmpty {
		t.Errorf("supermodularity not violated: %v >= %v", gainAtSPrime, gainAtEmpty)
	}
}

func TestWelfareDeterministicLineFullAdoption(t *testing.T) {
	// one item with U=1 deterministic, line of 5 nodes with p=1, seed at
	// head: welfare = 5
	val, _ := utility.NewTableValuation(1, []float64{0, 2})
	m := utility.MustModel(val, []float64{1}, []stats.Dist{stats.PointMass{}})
	g := graph.Line(5, 1)
	sim := NewSimulator(g, m)
	alloc := NewAllocation(1)
	alloc.Assign(0, 0)
	rng := stats.NewRNG(5)
	got := sim.EstimateWelfare(alloc, rng, 10).Mean
	if math.Abs(got-5) > 1e-12 {
		t.Errorf("welfare = %v, want 5", got)
	}
}

func TestWelfareEmptyAllocation(t *testing.T) {
	m := utility.Config1()
	g := graph.Line(3, 1)
	sim := NewSimulator(g, m)
	rng := stats.NewRNG(6)
	if w := sim.EstimateWelfare(NewAllocation(2), rng, 100).Mean; w != 0 {
		t.Errorf("empty allocation welfare %v", w)
	}
}

func TestWelfareMatchesICSpecialCase(t *testing.T) {
	// Proposition 1's reduction: one item, V=1, P -> 0+ (use tiny price),
	// zero noise: welfare = expected spread.
	val, _ := utility.NewTableValuation(1, []float64{0, 1})
	m := utility.MustModel(val, []float64{1e-9}, []stats.Dist{stats.PointMass{}})
	rng := stats.NewRNG(7)
	g := graph.ErdosRenyi(40, 160, rng).WeightedCascade()
	sim := NewSimulator(g, m)
	alloc := NewAllocation(1)
	alloc.Assign(3, 0)
	alloc.Assign(11, 0)

	welfare := sim.EstimateWelfare(alloc, rng, 60000).Mean
	spread := diffusion.Spread(g, []graph.NodeID{3, 11}, rng, 60000)
	if math.Abs(welfare-spread) > 0.05*spread+0.05 {
		t.Errorf("UIC welfare %v vs IC spread %v", welfare, spread)
	}
}

func TestComplementBoostIncreasesAdoption(t *testing.T) {
	// seeding the complement raises adoption of a negative-utility item
	m := utility.Config3()
	rng := stats.NewRNG(8)
	g := graph.ErdosRenyi(50, 200, rng).WeightedCascade()
	sim := NewSimulator(g, m)

	only2 := NewAllocation(2)
	both := NewAllocation(2)
	for s := 0; s < 5; s++ {
		v := graph.NodeID(rng.Intn(50))
		only2.Assign(v, 1)
		both.Assign(v, 1)
		both.Assign(v, 0)
	}
	c2 := sim.AdoptionCounts(only2, rng, 20000)[1]
	cBoth := sim.AdoptionCounts(both, rng, 20000)[1]
	if cBoth <= c2 {
		t.Errorf("bundling did not boost i2 adoption: %v vs %v", cBoth, c2)
	}
}

func TestAllocationHelpers(t *testing.T) {
	a := NewAllocation(2)
	a.Assign(1, 0)
	a.Assign(2, 0)
	a.Assign(1, 1)
	if a.K() != 2 || a.Pairs() != 3 {
		t.Errorf("K=%d Pairs=%d", a.K(), a.Pairs())
	}
	nodes := a.SeedNodes()
	if len(nodes) != 2 {
		t.Errorf("seed nodes %v", nodes)
	}
	items := a.ItemsOf()
	if items[1] != itemset.New(0, 1) || items[2] != itemset.New(0) {
		t.Errorf("ItemsOf = %v", items)
	}
	c := a.Clone()
	c.Assign(3, 1)
	if a.Pairs() != 3 {
		t.Error("clone aliases original")
	}
}

func TestAllocationUnion(t *testing.T) {
	a := NewAllocation(2)
	a.Assign(1, 0)
	b := NewAllocation(2)
	b.Assign(1, 0) // duplicate pair
	b.Assign(2, 1)
	u := Union(a, b)
	if u.Pairs() != 2 {
		t.Errorf("union pairs = %d, want 2 (dedup)", u.Pairs())
	}
}

func TestUnionPanicsOnMismatchedK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on mismatched item counts")
		}
	}()
	Union(NewAllocation(1), NewAllocation(2))
}

func TestEstimateWelfareParallelMatchesSequential(t *testing.T) {
	m := utility.Config1()
	rng := stats.NewRNG(9)
	g := graph.ErdosRenyi(60, 240, rng).WeightedCascade()
	alloc := NewAllocation(2)
	for s := 0; s < 5; s++ {
		alloc.Assign(graph.NodeID(s), 0)
		alloc.Assign(graph.NodeID(s), 1)
	}
	seq := NewSimulator(g, m).EstimateWelfare(alloc, stats.NewRNG(10), 20000)
	par := EstimateWelfareParallelCascade(g, m, graph.CascadeIC, alloc, stats.NewRNG(11), 20000, 4)
	if par.Runs != 20000 {
		t.Errorf("parallel ran %d", par.Runs)
	}
	if math.Abs(seq.Mean-par.Mean) > 4*(seq.StdErr+par.StdErr)+1e-9 {
		t.Errorf("parallel %v vs sequential %v (stderr %v/%v)",
			par.Mean, seq.Mean, par.StdErr, seq.StdErr)
	}
}

func TestSimulatorReuseIsClean(t *testing.T) {
	// state from a previous run must not leak into the next
	m := figure2Model()
	g := figure2Graph()
	sim := NewSimulator(g, m)
	rng := stats.NewRNG(12)
	alloc := NewAllocation(2)
	alloc.Assign(0, 0)
	w1 := sim.EstimateWelfare(alloc, rng, 500).Mean
	// now run an empty allocation; welfare must be exactly 0
	if w := sim.EstimateWelfare(NewAllocation(2), rng, 500).Mean; w != 0 {
		t.Errorf("leaked state: empty allocation welfare %v after %v", w, w1)
	}
}

func TestRunOnceDeterministicGivenSeed(t *testing.T) {
	m := utility.Config1()
	rng1 := stats.NewRNG(13)
	g := graph.ErdosRenyi(30, 120, rng1).WeightedCascade()
	alloc := NewAllocation(2)
	alloc.Assign(0, 0)
	alloc.Assign(1, 1)
	a := NewSimulator(g, m).EstimateWelfare(alloc, stats.NewRNG(99), 100).Mean
	b := NewSimulator(g, m).EstimateWelfare(alloc, stats.NewRNG(99), 100).Mean
	if a != b {
		t.Errorf("nondeterministic: %v vs %v", a, b)
	}
}

func TestWelfareGivenNoiseSeparatesWorlds(t *testing.T) {
	// with strongly positive noise on i2, config3's i2 becomes adoptable
	m := utility.Config3()
	g := graph.Line(1, 1)
	sim := NewSimulator(g, m)
	alloc := NewAllocation(2)
	alloc.Assign(0, 1)
	rng := stats.NewRNG(14)
	low := sim.WelfareGivenNoise(alloc, []float64{0, -0.5}, rng, 100)
	high := sim.WelfareGivenNoise(alloc, []float64{0, 2}, rng, 100)
	if low != 0 {
		t.Errorf("negative-noise world welfare %v, want 0", low)
	}
	if math.Abs(high-1) > 1e-12 { // U(i2) = -1 + 2 = 1
		t.Errorf("positive-noise world welfare %v, want 1", high)
	}
}
