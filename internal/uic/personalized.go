package uic

import (
	"uicwelfare/internal/graph"
	"uicwelfare/internal/utility"
)

// NewPersonalizedSim builds a simulator for the §5 extension of UIC in
// which every node draws its own noise world: U_v(S) = V(S) - P(S) +
// Σ_{i∈S} N_v(i), modeling individual rather than population-level
// valuation uncertainty. Its RunOnce (and so EstimateWelfare) draws a
// node's noise the first time the node needs its utility table;
// RunOnceWithNoise and RunInWorld still apply their given noise world to
// every node. The paper notes bundleGRD's approximation guarantee does
// NOT survive this extension (and the tests demonstrate a reachability
// violation); the simulator exists to study the model empirically.
func NewPersonalizedSim(g *graph.Graph, m *utility.Model) *Simulator {
	s := NewSimulator(g, m)
	s.nodeUtil = make([][]float64, g.N())
	s.hasUtil = make([]bool, g.N())
	return s
}
