package welfare

import (
	"uicwelfare/internal/graph"
	"uicwelfare/internal/uic"
	"uicwelfare/internal/utility"
)

// Extensions beyond the paper's core experiments, each called out in its
// §5 discussion: triggering models other than IC, submodular bundle
// prices, and personalized noise.

// Cascade selects the diffusion model: CascadeIC (default) or CascadeLT.
type Cascade = graph.Cascade

// The two built-in triggering models. All of the paper's results carry
// over from IC to LT (§5); pass WithCascade to Run and set
// Simulator.Cascade to switch.
const (
	CascadeIC = graph.CascadeIC
	CascadeLT = graph.CascadeLT
)

// PriceFunc is a set-valued bundle price (P(∅)=0, positive elsewhere).
type PriceFunc = utility.PriceFunc

// VolumeDiscount builds a submodular bundle price: additive base prices
// minus d per item pair, floored at minFrac of the additive price.
// Supermodular valuation minus submodular price stays supermodular, so
// bundleGRD's guarantee is preserved (§5).
func VolumeDiscount(base []float64, d, minFrac float64) PriceFunc {
	return utility.VolumeDiscount(base, d, minFrac)
}

// NewModelWithPrice assembles a model with a custom (e.g. submodular)
// bundle price. perItem must list the singleton prices P({i}).
func NewModelWithPrice(val Valuation, price PriceFunc, perItem []float64, noise []NoiseDist) (*Model, error) {
	return utility.NewModelWithPrice(val, price, perItem, noise)
}

// PersonalizedSimulator is the Simulator of the §5 extension where every
// node draws its own noise world: NewPersonalizedSimulator returns a
// Simulator whose RunOnce and EstimateWelfare draw a node's noise the
// first time the node needs it. The approximation guarantee of
// bundleGRD does not carry over (the tests demonstrate the reachability
// failure); the simulator supports empirical study of the model.
type PersonalizedSimulator = uic.Simulator

// NewPersonalizedSimulator builds a personalized-noise simulator.
func NewPersonalizedSimulator(g *Graph, m *Model) *PersonalizedSimulator {
	return uic.NewPersonalizedSim(g, m)
}
