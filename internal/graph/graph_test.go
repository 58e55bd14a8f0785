package graph

import (
	"math"
	"strings"
	"testing"

	"uicwelfare/internal/stats"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(0, 2, 0.25)
	b.AddEdge(1, 2, 1.0)
	g := b.Build()
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if g.OutDegree(0) != 2 || g.OutDegree(1) != 1 || g.OutDegree(2) != 0 {
		t.Errorf("out degrees wrong")
	}
	if g.InDegree(2) != 2 || g.InDegree(0) != 0 {
		t.Errorf("in degrees wrong")
	}
	if p, ok := g.Prob(0, 1); !ok || p != 0.5 {
		t.Errorf("Prob(0,1) = %v,%v", p, ok)
	}
	if _, ok := g.Prob(2, 0); ok {
		t.Errorf("nonexistent edge found")
	}
}

func TestBuilderDropsSelfLoops(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 0, 0.5)
	b.AddEdge(0, 1, 0.5)
	g := b.Build()
	if g.M() != 1 {
		t.Errorf("self loop not dropped: m=%d", g.M())
	}
}

func TestBuilderDedupKeepsMaxProb(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1, 0.3)
	b.AddEdge(0, 1, 0.7)
	b.AddEdge(0, 1, 0.5)
	g := b.Build()
	if g.M() != 1 {
		t.Fatalf("m=%d", g.M())
	}
	if p, _ := g.Prob(0, 1); p != float64(float32(0.7)) {
		t.Errorf("dedup kept p=%v, want 0.7", p)
	}
}

func TestBuilderPanicsOnBadInput(t *testing.T) {
	cases := []func(){
		func() { NewBuilder(2).AddEdge(0, 2, 0.5) },
		func() { NewBuilder(2).AddEdge(-1, 0, 0.5) },
		func() { NewBuilder(2).AddEdge(0, 1, 1.5) },
		func() { NewBuilder(2).AddEdge(0, 1, -0.1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestInOutConsistency(t *testing.T) {
	rng := stats.NewRNG(1)
	g := ErdosRenyi(50, 300, rng)
	// every out-edge must appear exactly once as an in-edge
	type edge struct{ u, v NodeID }
	out := map[edge]float32{}
	for u := NodeID(0); int(u) < g.N(); u++ {
		ts, ps := g.OutEdges(u)
		for i, v := range ts {
			out[edge{u, v}] = ps[i]
		}
	}
	in := map[edge]float32{}
	for v := NodeID(0); int(v) < g.N(); v++ {
		ss, ps := g.InEdges(v)
		for i, u := range ss {
			in[edge{u, v}] = ps[i]
		}
	}
	if len(out) != len(in) || len(out) != g.M() {
		t.Fatalf("edge sets differ: out=%d in=%d m=%d", len(out), len(in), g.M())
	}
	for e, p := range out {
		if in[e] != p {
			t.Fatalf("edge %v probability mismatch", e)
		}
	}
}

func TestInEdgePositions(t *testing.T) {
	g := FromEdges(4, [][3]float64{{0, 2, 0.1}, {1, 2, 0.2}, {3, 2, 0.3}, {0, 1, 0.4}})
	srcs, ps := g.InEdges(2)
	pos := g.InEdgePositions(2)
	if len(srcs) != 3 {
		t.Fatalf("indeg(2)=%d", len(srcs))
	}
	for i := range srcs {
		// the out-edge at global position pos[i] must be (srcs[i] -> 2)
		u := srcs[i]
		base := g.OutEdgeBase(u)
		ts, ops := g.OutEdges(u)
		off := pos[i] - base
		if off < 0 || int(off) >= len(ts) || ts[off] != 2 || ops[off] != ps[i] {
			t.Errorf("in-edge %d: position %d does not map back to (%d,2)", i, pos[i], u)
		}
	}
}

func TestWeightedCascade(t *testing.T) {
	g := FromEdges(3, [][3]float64{{0, 2, 0}, {1, 2, 0}, {0, 1, 0}})
	wc := g.WeightedCascade()
	if p, _ := wc.Prob(0, 2); p != 0.5 {
		t.Errorf("p(0,2) = %v, want 0.5 (indeg 2)", p)
	}
	if p, _ := wc.Prob(0, 1); p != 1.0 {
		t.Errorf("p(0,1) = %v, want 1 (indeg 1)", p)
	}
	// original untouched
	if p, _ := g.Prob(0, 2); p != 0 {
		t.Errorf("WeightedCascade mutated original")
	}
	// in-probs must agree with out-probs
	_, ips := wc.InEdges(2)
	for _, p := range ips {
		if p != 0.5 {
			t.Errorf("in-prob %v, want 0.5", p)
		}
	}
}

func TestUniformProb(t *testing.T) {
	g := FromEdges(3, [][3]float64{{0, 1, 0.9}, {1, 2, 0.8}})
	u := g.UniformProb(0.01)
	if p, _ := u.Prob(0, 1); p != float64(float32(0.01)) {
		t.Errorf("p = %v", p)
	}
	if p, _ := g.Prob(0, 1); p != float64(float32(0.9)) {
		t.Errorf("original mutated")
	}
}

// TestInSkipTable: every constructor fills the skip table from the
// probabilities the graph actually carries — 1/ln(1−p) on a uniform
// neighbourhood with p ∈ (0,1) that is long enough to pay, 0 elsewhere.
func TestInSkipTable(t *testing.T) {
	b := NewBuilder(64)
	for u := 1; u <= 40; u++ {
		b.AddEdge(NodeID(u), 0, 0.05) // uniform, long: skip
	}
	for u := 1; u <= 3; u++ {
		b.AddEdge(NodeID(u), 41, 0.05) // uniform, short: coin
	}
	for u := 1; u <= 40; u++ {
		b.AddEdge(NodeID(u), 42, 0.05+0.01*float64(u%2)) // mixed: coin
	}
	for u := 1; u <= 40; u++ {
		b.AddEdge(NodeID(u), 43, 1) // p = 1: take all
		b.AddEdge(NodeID(u), 44, 0) // p = 0: take none
		b.AddEdge(NodeID(u), 45, 0.5)
	}
	g := b.Build()
	want := func(p float32) float64 { return 1 / math.Log1p(-float64(p)) }
	check := func(name string, g *Graph, v NodeID, w float64) {
		t.Helper()
		if got := g.InSkip(v); got != w {
			t.Errorf("%s: InSkip(%d) = %v, want %v", name, v, got, w)
		}
	}
	viaCSR, err := FromCSR(g.N(), g.outIndex, g.outTo, g.outProb)
	if err != nil {
		t.Fatal(err)
	}
	for name, gr := range map[string]*Graph{"Build": g, "FromCSR": viaCSR} {
		check(name, gr, 0, want(0.05))
		check(name, gr, 41, 0)
		check(name, gr, 42, 0)
		check(name, gr, 43, 0)
		check(name, gr, 44, 0)
		check(name, gr, 45, 0) // d·p + 1 = 21 draws for 40 coins: not worth a log each
		check(name, gr, 50, 0) // no in-edges
	}
	// Derived graphs carry their own table, not the parent's.
	wc := g.WeightedCascade()
	for _, v := range []NodeID{0, 42, 43, 44, 45} {
		check("WeightedCascade", wc, v, want(float32(1.0/40)))
	}
	check("WeightedCascade", wc, 41, 0)
	up := g.UniformProb(0.02)
	check("UniformProb", up, 42, want(0.02))
	check("UniformProb", up, 41, 0)
	check("Build after derivations", g, 42, 0)
}

func TestReadEdgeList(t *testing.T) {
	input := `# comment
% another comment
10 20 0.5
20 30
10 30 0.25

30 10 1.0
`
	g, err := ReadEdgeList(strings.NewReader(input), false)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 4 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	// 10 -> id 0, 20 -> id 1, 30 -> id 2 (first appearance order)
	if p, ok := g.Prob(0, 1); !ok || p != 0.5 {
		t.Errorf("edge (10,20) wrong: %v %v", p, ok)
	}
	if p, ok := g.Prob(1, 2); !ok || p != 0 {
		t.Errorf("default prob wrong: %v %v", p, ok)
	}
}

func TestReadEdgeListUndirected(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1 0.5\n"), true)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatalf("m=%d, want 2", g.M())
	}
	if _, ok := g.Prob(1, 0); !ok {
		t.Error("reverse edge missing")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	bad := []string{
		"0\n",
		"a b\n",
		"0 b\n",
		"0 1 2.5\n",
		"0 1 x\n",
	}
	for _, in := range bad {
		if _, err := ReadEdgeList(strings.NewReader(in), false); err == nil {
			t.Errorf("input %q did not error", in)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	rng := stats.NewRNG(2)
	g := ErdosRenyi(30, 120, rng).WeightedCascade()
	var sb strings.Builder
	if err := WriteEdgeList(&sb, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(strings.NewReader(sb.String()), false)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip changed size: %v -> %v", g, g2)
	}
}

func TestErdosRenyiSize(t *testing.T) {
	rng := stats.NewRNG(3)
	g := ErdosRenyi(100, 500, rng)
	if g.N() != 100 {
		t.Errorf("n=%d", g.N())
	}
	if g.M() < 450 || g.M() > 500 {
		t.Errorf("m=%d, want ~500", g.M())
	}
}

func TestBarabasiAlbertProperties(t *testing.T) {
	rng := stats.NewRNG(4)
	g := BarabasiAlbert(500, 3, rng)
	if g.N() != 500 {
		t.Fatalf("n=%d", g.N())
	}
	st := ComputeStats(g)
	if !st.Symmetric {
		t.Error("BA graph should be symmetric (undirected)")
	}
	// average degree ~ 2k for BA
	if st.AvgDegree < 4 || st.AvgDegree > 8 {
		t.Errorf("avg degree %v, want ~6", st.AvgDegree)
	}
	// heavy tail: max degree far above average
	if float64(st.MaxOutDeg) < 3*st.AvgDegree {
		t.Errorf("max degree %d not heavy-tailed (avg %v)", st.MaxOutDeg, st.AvgDegree)
	}
}

func TestPreferentialDirectedProperties(t *testing.T) {
	rng := stats.NewRNG(5)
	g := PreferentialDirected(1000, 5, rng)
	if g.N() != 1000 {
		t.Fatalf("n=%d", g.N())
	}
	st := ComputeStats(g)
	if st.Symmetric {
		t.Error("directed generator should not be symmetric")
	}
	if st.AvgDegree < 3 || st.AvgDegree > 10 {
		t.Errorf("avg degree %v", st.AvgDegree)
	}
	if float64(st.MaxInDeg) < 5*st.AvgDegree {
		t.Errorf("in-degree not heavy tailed: max %d avg %v", st.MaxInDeg, st.AvgDegree)
	}
}

func TestWattsStrogatz(t *testing.T) {
	rng := stats.NewRNG(6)
	g := WattsStrogatz(200, 4, 0.1, rng)
	if g.N() != 200 {
		t.Fatalf("n=%d", g.N())
	}
	st := ComputeStats(g)
	if !st.Symmetric {
		t.Error("WS graph should be symmetric")
	}
	if st.AvgDegree < 3 || st.AvgDegree > 5 {
		t.Errorf("avg degree %v, want ~4", st.AvgDegree)
	}
}

func TestLineStarComplete(t *testing.T) {
	l := Line(4, 0.5)
	if l.M() != 3 || l.OutDegree(3) != 0 {
		t.Errorf("line wrong: %v", l)
	}
	s := Star(5, 0.3)
	if s.M() != 4 || s.OutDegree(0) != 4 {
		t.Errorf("star wrong: %v", s)
	}
	c := Complete(4, 1)
	if c.M() != 12 {
		t.Errorf("complete wrong: %v", c)
	}
}

func TestSCCOnKnownGraph(t *testing.T) {
	// two 2-cycles connected by a one-way edge, plus an isolated node
	g := FromEdges(5, [][3]float64{
		{0, 1, 1}, {1, 0, 1},
		{1, 2, 1},
		{2, 3, 1}, {3, 2, 1},
	})
	comp, count := SCC(g)
	if count != 3 {
		t.Fatalf("count=%d, want 3", count)
	}
	if comp[0] != comp[1] {
		t.Error("0 and 1 should share a component")
	}
	if comp[2] != comp[3] {
		t.Error("2 and 3 should share a component")
	}
	if comp[0] == comp[2] || comp[0] == comp[4] || comp[2] == comp[4] {
		t.Error("distinct SCCs merged")
	}
}

func TestLargestSCC(t *testing.T) {
	// triangle cycle {0,1,2} plus tail 3->4
	g := FromEdges(5, [][3]float64{
		{0, 1, 0.5}, {1, 2, 0.5}, {2, 0, 0.5},
		{3, 4, 0.5},
	})
	sub, mapping := LargestSCC(g)
	if sub.N() != 3 || sub.M() != 3 {
		t.Fatalf("largest SCC n=%d m=%d", sub.N(), sub.M())
	}
	for _, old := range mapping {
		if old > 2 {
			t.Errorf("node %d should not be in largest SCC", old)
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := FromEdges(4, [][3]float64{{0, 1, 0.5}, {1, 2, 0.5}, {2, 3, 0.5}, {3, 0, 0.5}})
	sub, mapping := InducedSubgraph(g, func(v NodeID) bool { return v != 2 })
	if sub.N() != 3 {
		t.Fatalf("n=%d", sub.N())
	}
	// surviving edges: 0->1 and 3->0
	if sub.M() != 2 {
		t.Errorf("m=%d, want 2", sub.M())
	}
	if len(mapping) != 3 {
		t.Errorf("mapping size %d", len(mapping))
	}
}

func TestBFSPrefix(t *testing.T) {
	g := Line(10, 1)
	sub, mapping := BFSPrefix(g, 4)
	if sub.N() != 4 {
		t.Fatalf("n=%d", sub.N())
	}
	// the prefix of a line from node 0 is 0..3 with 3 edges
	if sub.M() != 3 {
		t.Errorf("m=%d", sub.M())
	}
	for i, old := range mapping {
		if int(old) != i {
			t.Errorf("mapping[%d]=%d", i, old)
		}
	}
}

func TestBFSPrefixWholeGraph(t *testing.T) {
	g := Line(5, 1)
	sub, _ := BFSPrefix(g, 100)
	if sub.N() != 5 || sub.M() != 4 {
		t.Errorf("whole-graph prefix wrong: %v", sub)
	}
}

func TestBFSPrefixDisconnected(t *testing.T) {
	// two disjoint edges; asking for 3 nodes must pull from both components
	g := FromEdges(4, [][3]float64{{0, 1, 1}, {2, 3, 1}})
	sub, _ := BFSPrefix(g, 3)
	if sub.N() != 3 {
		t.Errorf("n=%d, want 3", sub.N())
	}
}

func TestComputeStats(t *testing.T) {
	g := FromEdges(3, [][3]float64{{0, 1, 1}, {1, 0, 1}, {1, 2, 1}})
	st := ComputeStats(g)
	if st.Nodes != 3 || st.Edges != 3 {
		t.Errorf("stats %+v", st)
	}
	if st.Symmetric {
		t.Error("graph is not symmetric (edge 1->2 has no reverse)")
	}
	if st.MaxOutDeg != 2 || st.MaxInDeg != 1 {
		t.Errorf("max degrees %d/%d", st.MaxOutDeg, st.MaxInDeg)
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := Star(4, 1)
	h := DegreeHistogram(g)
	// hub has degree 3; three leaves have degree 0
	if h[0] != 3 || h[3] != 1 {
		t.Errorf("histogram %v", h)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.N() != 0 || g.M() != 0 || g.AvgDegree() != 0 {
		t.Error("empty graph misbehaves")
	}
	comp, count := SCC(g)
	if len(comp) != 0 || count != 0 {
		t.Error("SCC on empty graph")
	}
}
