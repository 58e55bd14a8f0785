// Package oracle provides an influence/allocation oracle in the spirit
// the paper motivates PRIMA with (§2.1, the SKIM discussion): build one
// prefix-preserving seed ordering up to a maximum budget, then answer
// any number of budget queries — single-item seed sets, spread
// estimates, or full bundleGRD allocations — without touching the graph
// again. Query time is O(answer size).
package oracle

import (
	"fmt"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/prima"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/uic"
)

// Oracle holds a prefix-preserving seed ordering of length MaxBudget and
// per-prefix spread estimates.
type Oracle struct {
	g *graph.Graph
	// order is the PRIMA seed ranking; every prefix of size b <= max is a
	// (1-1/e-ε)-approximate seed set for budget b.
	order []graph.NodeID
	// spread[b] estimates sigma of the top-b prefix (spread[0] = 0).
	spread []float64
	// NumRRSets records the build effort.
	NumRRSets int
}

// Options configures the build.
type Options struct {
	Eps     float64
	Ell     float64
	Cascade graph.Cascade
	// SpreadSamples sizes the per-prefix spread estimation collection
	// (default 20000 RR sets).
	SpreadSamples int
}

// Build constructs the oracle for budgets up to maxBudget. All budgets in
// later queries must be <= maxBudget. PRIMA receives a geometric budget
// ladder (1, 2, 4, ..., maxBudget): the prefix-preserving guarantee holds
// exactly at the rungs, costs only a log factor in the union bound, and
// greedy prefixes interpolate smoothly between rungs.
func Build(g *graph.Graph, maxBudget int, opts Options, rng *stats.RNG) (*Oracle, error) {
	if maxBudget < 1 {
		return nil, fmt.Errorf("oracle: maxBudget %d < 1", maxBudget)
	}
	if maxBudget > g.N() {
		maxBudget = g.N()
	}
	if opts.SpreadSamples <= 0 {
		opts.SpreadSamples = 20000
	}
	var ladder []int
	for b := 1; b < maxBudget; b *= 2 {
		ladder = append(ladder, b)
	}
	ladder = append(ladder, maxBudget)

	res := prima.Select(g, ladder, prima.Options{Eps: opts.Eps, Ell: opts.Ell, Cascade: opts.Cascade}, rng)
	o := &Oracle{g: g, order: res.Seeds, NumRRSets: res.NumRRSets}

	// Per-prefix spread estimates from one fresh RR collection: the
	// estimator sigma(S) = n·F_R(S) is valid for every S simultaneously.
	col := rrset.NewCollection(g)
	col.Sampler().Cascade = opts.Cascade
	col.Grow(int64(opts.SpreadSamples), rng)
	o.spread = make([]float64, len(o.order)+1)
	for b, hit := range col.PrefixCoverage(o.order) {
		o.spread[b+1] = float64(g.N()) * float64(hit) / float64(col.Len())
	}
	return o, nil
}

// MaxBudget returns the largest budget the oracle can answer.
func (o *Oracle) MaxBudget() int { return len(o.order) }

// Seeds answers a single-budget query: the top-b seed nodes.
func (o *Oracle) Seeds(b int) ([]graph.NodeID, error) {
	if b < 0 || b > len(o.order) {
		return nil, fmt.Errorf("oracle: budget %d outside [0, %d]", b, len(o.order))
	}
	return o.order[:b], nil
}

// Spread answers an expected-spread query for the top-b prefix.
func (o *Oracle) Spread(b int) (float64, error) {
	if b < 0 || b > len(o.order) {
		return 0, fmt.Errorf("oracle: budget %d outside [0, %d]", b, len(o.order))
	}
	return o.spread[b], nil
}

// Allocate answers a bundleGRD allocation query for an arbitrary budget
// vector (each entry <= MaxBudget) without recomputation: item i gets the
// top-b_i prefix, exactly as Algorithm 1 would.
func (o *Oracle) Allocate(budgets []int) (*uic.Allocation, error) {
	alloc := uic.NewAllocation(len(budgets))
	for i, b := range budgets {
		if b < 0 || b > len(o.order) {
			return nil, fmt.Errorf("oracle: item %d budget %d outside [0, %d]", i, b, len(o.order))
		}
		for _, v := range o.order[:b] {
			alloc.Assign(v, i)
		}
	}
	return alloc, nil
}
