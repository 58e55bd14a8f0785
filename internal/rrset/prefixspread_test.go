package rrset

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"uicwelfare/internal/diffusion"
	"uicwelfare/internal/graph"
	"uicwelfare/internal/stats"
)

// spreadSketch grows a collection of sets on g under opts and wraps it
// as a budget-k sketch, as a family build would leave it.
func spreadSketch(t *testing.T, g *graph.Graph, opts Options, sets int64, k int, seed uint64) *Sketch {
	t.Helper()
	col := opts.NewCollection(g)
	if err := opts.Grow(context.Background(), col, sets, 1, stats.NewRNG(seed)); err != nil {
		t.Fatal(err)
	}
	return &Sketch{Col: col, K: k}
}

// TestPrefixSpreadMatchesExactEnumeration: on a 12-node graph whose hub
// neighbourhood is skip-sampled, the spread PrefixSpread reads off R₂
// for every prefix agrees with exact live-edge enumeration within 4σ —
// the RR identity holds through the skip sampler and the index-free
// prefix-coverage pass.
func TestPrefixSpreadMatchesExactEnumeration(t *testing.T) {
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
	// R₂ has as many sets as Col.
	const samples = 200000
	sk := spreadSketch(t, g, Options{}, samples, 6, 21)
	spread, err := sk.PrefixSpread(context.Background(), Options{}, stats.NewRNG(22))
	if err != nil {
		t.Fatal(err)
	}
	order := sk.Select().Seeds
	if len(spread) != len(order)+1 || spread[0] != 0 {
		t.Fatalf("%d estimates for %d seeds, σ̂[0] = %v", len(spread), len(order), spread[0])
	}
	for k := 1; k <= len(order); k++ {
		exact := diffusion.ExactSpread(g, order[:k])
		frac := exact / float64(g.N())
		tol := 4 * float64(g.N()) * math.Sqrt(frac*(1-frac)/samples)
		if math.Abs(spread[k]-exact) > tol {
			t.Errorf("budget %d seeds %v: σ̂ %.4f vs exact %.4f (4σ = %.4f)", k, order[:k], spread[k], exact, tol)
		}
	}
}

// TestPrefixSpreadMonotoneAndAccurate: on an ER(120, 700) weighted-
// cascade graph with a PRIMA-sized collection, the prefix spreads never
// fall, and the budget-8 estimate agrees with forward Monte Carlo.
func TestPrefixSpreadMonotoneAndAccurate(t *testing.T) {
	g := graph.ErdosRenyi(120, 700, stats.NewRNG(3)).WeightedCascade()
	sk := spreadSketch(t, g, Options{}, 2000, 12, 4)
	spread, err := sk.PrefixSpread(context.Background(), Options{}, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(spread) != 13 {
		t.Fatalf("%d estimates for budget 12", len(spread))
	}
	for b := 1; b < len(spread); b++ {
		if spread[b] < spread[b-1] {
			t.Fatalf("spread not monotone at %d: %v < %v", b, spread[b], spread[b-1])
		}
	}
	mc := diffusion.Spread(g, sk.Select().Seeds[:8], stats.NewRNG(6), 40000)
	if math.Abs(spread[8]-mc) > 0.1*mc+0.5 {
		t.Errorf("σ̂ %v vs MC %v", spread[8], mc)
	}
}

// TestPrefixSpreadLT: R₂ samples under the options' cascade, so an LT
// sketch reads a positive LT spread.
func TestPrefixSpreadLT(t *testing.T) {
	g := graph.ErdosRenyi(120, 700, stats.NewRNG(13)).WeightedCascade()
	lt := Options{Cascade: graph.CascadeLT}
	sk := spreadSketch(t, g, lt, 2000, 6, 14)
	spread, err := sk.PrefixSpread(context.Background(), lt, stats.NewRNG(15))
	if err != nil {
		t.Fatal(err)
	}
	if s := spread[len(spread)-1]; s <= 0 {
		t.Errorf("LT spread %v", s)
	}
}

// TestPrefixSpreadIndependentOfWorkers: R₂ depends on the RNG, never on
// the grow parallelism, so the estimates are equal at W = 1 and W = 2.
func TestPrefixSpreadIndependentOfWorkers(t *testing.T) {
	g := graph.ErdosRenyi(120, 700, stats.NewRNG(7)).WeightedCascade()
	sk := spreadSketch(t, g, Options{}, 3000, 10, 8)
	var got [][]float64
	for _, w := range []int{1, 2} {
		spread, err := sk.PrefixSpread(context.Background(), Options{Workers: w}, stats.NewRNG(9))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, spread)
	}
	if !slices.Equal(got[0], got[1]) {
		t.Errorf("W=1 %v, W=2 %v", got[0], got[1])
	}
}

// TestPrefixSpreadCanceled: a canceled context stops R₂'s grow and
// comes back as ctx.Err().
func TestPrefixSpreadCanceled(t *testing.T) {
	sk := spreadSketch(t, graph.Line(40, 0.5), Options{}, 1000, 3, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sk.PrefixSpread(ctx, Options{}, stats.NewRNG(2)); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestPrefixSpreadDegenerate: a sketch with no sets to size R₂ by —
// all-nodes, no collection, an empty collection — is refused.
func TestPrefixSpreadDegenerate(t *testing.T) {
	g := graph.Line(40, 0.5)
	for name, sk := range map[string]*Sketch{
		"all-nodes":        {K: 40, AllNodes: 40},
		"no collection":    {K: 3},
		"empty collection": {Col: NewCollection(g), K: 3},
	} {
		if _, err := sk.PrefixSpread(context.Background(), Options{}, stats.NewRNG(1)); err == nil {
			t.Errorf("%s sketch: no error", name)
		}
	}
}
