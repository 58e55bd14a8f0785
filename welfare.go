// Package welfare is the public API of the UIC welfare-maximization
// library — a from-scratch Go reproduction of Banerjee, Chen &
// Lakshmanan, "Maximizing Welfare in Social Networks under a Utility
// Driven Influence Diffusion Model" (SIGMOD 2019).
//
// The library models viral marketing of mutually complementary products:
// items propagate through a social network under the UIC diffusion model,
// users adopt the utility-maximizing bundle from what they have been
// exposed to, and the network host allocates limited seed budgets per
// item to maximize expected social welfare. The flagship algorithm,
// BundleGRD, achieves a (1-1/e-ε)-approximation despite the objective
// being neither submodular nor supermodular, and never needs to know the
// item utilities.
//
// Quick start:
//
//	g, err := welfare.GenerateNetwork("flixster", 1.0, 1)
//	if err != nil {
//	    log.Fatal(err)
//	}
//	m := welfare.Config1() // two complementary items (Table 3)
//	p, _ := welfare.NewProblem(g, m, []int{50, 50})
//	res, _ := welfare.Run(context.Background(), p,
//	    welfare.WithAlgorithm(welfare.AlgoBundleGRD),
//	    welfare.WithRuns(10000))
//	fmt.Printf("expected social welfare: %.1f ± %.1f\n",
//	    res.Welfare.Mean, res.Welfare.StdErr)
//
// Run dispatches through a pluggable planner registry (see Algorithms,
// core.Register) and accepts a context for cancellation plus a progress
// callback (WithProgress) for long sketch builds and estimates.
//
// Subpackages under internal/ hold the substrates (graph, IC diffusion,
// RR sets, IMM/TIM, PRIMA, Com-IC, BDHS, auctions); this package
// re-exports the surface a downstream user needs.
package welfare

import (
	"uicwelfare/internal/core"
	"uicwelfare/internal/graph"
	"uicwelfare/internal/itemset"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/uic"
	"uicwelfare/internal/utility"
)

// Re-exported core types. Aliases keep the internal packages as the
// single source of truth while giving users one import.
type (
	// Graph is a compact directed social network with per-edge influence
	// probabilities.
	Graph = graph.Graph
	// NodeID identifies a node (0..N-1).
	NodeID = graph.NodeID
	// ItemSet is a bitmask set over the item universe.
	ItemSet = itemset.Set
	// Model bundles valuation, prices and noise: U(S) = V(S)-P(S)+N(S).
	Model = utility.Model
	// Valuation is a set-valued item valuation function.
	Valuation = utility.Valuation
	// Allocation maps items to their seed nodes.
	Allocation = uic.Allocation
	// Problem is a WelMax instance (graph, model, per-item budgets).
	Problem = core.Problem
	// Result is an allocation plus effort statistics.
	Result = core.Result
	// RNG is the deterministic random generator used everywhere.
	RNG = stats.RNG
	// WelfareEstimate is a Monte-Carlo estimate of expected welfare.
	WelfareEstimate = uic.WelfareEstimate
	// Simulator runs UIC diffusions directly for advanced use.
	Simulator = uic.Simulator
	// GAP holds Com-IC adoption probabilities derived via Eq. 12.
	GAP = utility.GAP
)

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed uint64) *RNG { return stats.NewRNG(seed) }

// NewItemSet builds an ItemSet from item indices.
func NewItemSet(items ...int) ItemSet { return itemset.New(items...) }

// LoadGraph reads a whitespace edge list ("u v [p]" lines) from disk. Set
// undirected to insert each edge in both directions. Call
// WeightedCascade on the result if the file carries no probabilities.
func LoadGraph(path string, undirected bool) (*Graph, error) {
	return graph.LoadEdgeList(path, undirected)
}

// NewProblem assembles a WelMax instance after validating budgets.
func NewProblem(g *Graph, m *Model, budgets []int) (*Problem, error) {
	return core.NewProblem(g, m, budgets)
}

// NewModel assembles a utility model from a valuation, additive prices
// and zero-mean per-item noise.
func NewModel(val Valuation, prices []float64, noise []NoiseDist) (*Model, error) {
	return utility.NewModel(val, prices, noise)
}

// NoiseDist is a probability distribution usable as an item's noise term.
type NoiseDist = stats.Dist

// GaussianNoise returns the zero-mean Gaussian noise N(0, sigma^2) the
// paper uses throughout its experiments.
func GaussianNoise(sigma float64) NoiseDist { return stats.Noise(sigma) }

// TableValuation wraps an explicit 2^k-entry value table.
func TableValuation(k int, vals []float64) (Valuation, error) {
	return utility.NewTableValuation(k, vals)
}

// NewSimulator builds a UIC diffusion simulator for direct use.
func NewSimulator(g *Graph, m *Model) *Simulator { return uic.NewSimulator(g, m) }

// EstimateWelfare Monte-Carlo-estimates the expected social welfare of an
// allocation under the problem's model.
func EstimateWelfare(p *Problem, alloc *Allocation, rng *RNG, runs int) WelfareEstimate {
	return uic.NewSimulator(p.G, p.Model).EstimateWelfare(alloc, rng, runs)
}

// Ready-made experimental configurations from the paper.

// Config1 is Table 3's configuration 1/2 (two items, both with
// non-negative deterministic utility).
func Config1() *Model { return utility.Config1() }

// Config3 is Table 3's configuration 3/4 (one item with negative
// deterministic utility).
func Config3() *Model { return utility.Config3() }

// ConfigAdditive is Table 4's configuration 5: k independent items with
// unit utility each.
func ConfigAdditive(k int) *Model { return utility.Config5(k) }

// ConfigCone is Table 4's configurations 6-7: a core item is required
// for positive utility.
func ConfigCone(k, core int) *Model { return utility.ConfigCone(k, core) }

// ConfigLevelwise is Table 4's configuration 8: a random supermodular
// valuation built level-by-level (Eq. 13).
func ConfigLevelwise(k int, rng *RNG) *Model { return utility.Config8(k, rng) }

// RealParams is the 5-item PlayStation-bundle model of Table 5, learned
// from real bidding data in the paper.
func RealParams() *Model { return utility.RealParams() }

// RealParamsSmoothed is the nearest supermodular variant of RealParams.
func RealParamsSmoothed() *Model { return utility.RealParamsSmoothed() }

// GAPFromModel converts a two-item model to Com-IC adoption
// probabilities via Eq. 12.
func GAPFromModel(m *Model) (GAP, error) { return utility.GAPFromModel(m) }

// IsSupermodular exhaustively verifies supermodularity of a valuation
// (feasible for small item universes).
func IsSupermodular(v Valuation) bool { return utility.IsSupermodular(v) }

// IsMonotone exhaustively verifies monotonicity of a valuation.
func IsMonotone(v Valuation) bool { return utility.IsMonotone(v) }
