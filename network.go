package welfare

import (
	"fmt"

	"uicwelfare/internal/expr"
	"uicwelfare/internal/graph"
)

// NetworkNames lists the built-in synthetic stand-ins for the paper's
// datasets (Table 2): flixster, douban-book, douban-movie, twitter,
// orkut.
func NetworkNames() []string {
	names := make([]string, len(expr.Networks))
	for i, ns := range expr.Networks {
		names[i] = ns.Name
	}
	return names
}

// GenerateNetwork synthesizes one of the built-in stand-in networks at
// the given scale (non-positive defaults to 1.0 = default size; seed 0
// defaults to 1) with weighted-cascade edge probabilities. An unknown
// name is an error listing the valid names.
func GenerateNetwork(name string, scale float64, seed uint64) (*Graph, error) {
	g, err := expr.GenerateByName(name, scale, seed)
	if err != nil {
		return nil, fmt.Errorf("%w (have %v)", err, NetworkNames())
	}
	return g, nil
}

// BuildGraph assembles a directed graph from explicit (u, v, p) triples.
func BuildGraph(n int, edges [][3]float64) *Graph { return graph.FromEdges(n, edges) }

// ErdosRenyi generates a directed G(n, m) random graph (probabilities
// unset; call WeightedCascade or UniformProb on the result).
func ErdosRenyi(n, m int, rng *RNG) *Graph { return graph.ErdosRenyi(n, m, rng) }

// BarabasiAlbert generates an undirected preferential-attachment graph.
func BarabasiAlbert(n, k int, rng *RNG) *Graph { return graph.BarabasiAlbert(n, k, rng) }

// PreferentialDirected generates a directed heavy-tailed graph with
// partial reciprocity, the stand-in shape for follower networks.
func PreferentialDirected(n, k int, rng *RNG) *Graph {
	return graph.PreferentialDirected(n, k, rng)
}
