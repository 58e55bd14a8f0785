// Package expr is the experiment harness: one driver per table and
// figure of the paper's evaluation (§4.3), each returning printable rows.
// The cmd/experiments binary and the root bench suite wrap these drivers
// at different scales. Networks are synthetic stand-ins for the paper's
// five datasets: the crawls themselves are not bundled, so each is a
// seeded preferential-attachment graph with the dataset's direction and
// node count (Twitter and Orkut scaled down to 20k nodes), denser for the
// denser datasets. The paper's claims compare algorithms on the same
// network, which a heavy-tailed stand-in of the right shape preserves. Influence probabilities default to the weighted cascade
// 1/indeg(v) exactly as in the paper.
package expr

import (
	"fmt"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/stats"
)

// NetworkSpec describes one of the paper's datasets (Table 2) and how its
// synthetic stand-in is generated.
type NetworkSpec struct {
	Name       string
	PaperNodes int
	PaperEdges int
	Directed   bool
	// DefaultNodes is the stand-in size used by the CLI at scale 1. The
	// two giant networks (Twitter, Orkut) are scaled down to laptop size;
	// the three smaller ones are generated at full size.
	DefaultNodes int
	// AttachK controls generator density (edges per new node).
	AttachK int
}

// Networks lists the five datasets of Table 2 in paper order.
var Networks = []NetworkSpec{
	{Name: "flixster", PaperNodes: 7600, PaperEdges: 71700, Directed: false, DefaultNodes: 7600, AttachK: 5},
	{Name: "douban-book", PaperNodes: 23300, PaperEdges: 141000, Directed: true, DefaultNodes: 23300, AttachK: 5},
	{Name: "douban-movie", PaperNodes: 34900, PaperEdges: 274000, Directed: true, DefaultNodes: 34900, AttachK: 6},
	{Name: "twitter", PaperNodes: 41700000, PaperEdges: 1470000000, Directed: true, DefaultNodes: 20000, AttachK: 12},
	{Name: "orkut", PaperNodes: 3070000, PaperEdges: 234000000, Directed: false, DefaultNodes: 20000, AttachK: 14},
}

// NetworkByName returns the spec with the given name.
func NetworkByName(name string) (NetworkSpec, error) {
	for _, ns := range Networks {
		if ns.Name == name {
			return ns, nil
		}
	}
	return NetworkSpec{}, fmt.Errorf("expr: unknown network %q", name)
}

// GenerateByName synthesizes the named stand-in network (non-positive
// scale defaults to 1.0, seed 0 defaults to 1), returning an error for
// an unknown name — the single generation path behind
// welfare.GenerateNetwork, the service, and the CLI, so bad input is a
// 400/usage error everywhere instead of a panic.
func GenerateByName(name string, scale float64, seed uint64) (*graph.Graph, error) {
	spec, err := NetworkByName(name)
	if err != nil {
		return nil, err
	}
	if scale <= 0 {
		scale = 1.0
	}
	if seed == 0 {
		seed = 1
	}
	return spec.Generate(scale, seed), nil
}

// Generate synthesizes the stand-in network at the given scale (1.0 =
// DefaultNodes) with weighted-cascade probabilities. The same (spec,
// scale, seed) always yields the same graph.
func (ns NetworkSpec) Generate(scale float64, seed uint64) *graph.Graph {
	n := int(float64(ns.DefaultNodes) * scale)
	if n < 100 {
		n = 100
	}
	rng := stats.NewRNG(seed ^ hashName(ns.Name))
	var g *graph.Graph
	if ns.Directed {
		g = graph.PreferentialDirected(n, ns.AttachK, rng)
	} else {
		g = graph.BarabasiAlbert(n, ns.AttachK, rng)
	}
	return g.WeightedCascade()
}

func hashName(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Table2Row reports one network's statistics next to the paper's values.
type Table2Row struct {
	Name       string
	PaperNodes int
	PaperEdges int
	Nodes      int
	Edges      int
	AvgDegree  float64
	Type       string
}

// Table2 generates every stand-in network and tabulates its statistics —
// the reproduction of Table 2.
func Table2(scale float64, seed uint64) []Table2Row {
	rows := make([]Table2Row, 0, len(Networks))
	for _, ns := range Networks {
		g := ns.Generate(scale, seed)
		st := graph.ComputeStats(g)
		typ := "directed"
		if !ns.Directed {
			typ = "undirected"
		}
		rows = append(rows, Table2Row{
			Name:       ns.Name,
			PaperNodes: ns.PaperNodes,
			PaperEdges: ns.PaperEdges,
			Nodes:      st.Nodes,
			Edges:      st.Edges,
			AvgDegree:  st.AvgDegree,
			Type:       typ,
		})
	}
	return rows
}
