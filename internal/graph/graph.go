// Package graph provides the social-network substrate: a compact
// compressed-sparse-row directed graph with per-edge influence
// probabilities, loaders for edge-list files, synthetic generators standing
// in for the paper's real datasets, and structural utilities (SCC
// extraction, BFS-induced subgraphs, degree statistics).
package graph

import (
	"fmt"
	"math"
)

// NodeID identifies a node; nodes are numbered 0..N-1.
type NodeID = int32

// Graph is an immutable directed graph in CSR form with both out- and
// in-adjacency, plus an influence probability per edge. Build one with a
// Builder or a generator. An undirected social network is represented as a
// symmetric directed graph (each undirected edge stored in both
// directions), matching how the IC model treats undirected inputs.
type Graph struct {
	n int
	m int // number of directed edges stored

	outIndex []int64
	outTo    []NodeID
	outProb  []float32

	inIndex []int64
	inFrom  []NodeID
	inProb  []float32

	// inEdgePos[j] is the position in the out-edge arrays of the j-th
	// in-edge, so edge state (tested/live) can be shared between forward
	// and reverse traversals.
	inEdgePos []int64

	// inSkip[v] is 1/ln(1−p) when every in-edge of v carries the same
	// probability p ∈ (0,1) and the list is long enough for geometric
	// skipping to beat one coin per edge (skipPays), else 0. See InSkip.
	inSkip []float64
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of directed edges.
func (g *Graph) M() int { return g.m }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v NodeID) int {
	return int(g.outIndex[v+1] - g.outIndex[v])
}

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v NodeID) int {
	return int(g.inIndex[v+1] - g.inIndex[v])
}

// OutEdges returns the targets and probabilities of v's out-edges. The
// slices alias the graph's internal storage and must not be modified. The
// edge (v, targets[i]) has global edge position OutEdgeBase(v)+i.
func (g *Graph) OutEdges(v NodeID) (targets []NodeID, probs []float32) {
	lo, hi := g.outIndex[v], g.outIndex[v+1]
	return g.outTo[lo:hi], g.outProb[lo:hi]
}

// OutEdgeBase returns the global position of v's first out-edge, used to
// index per-edge state arrays.
func (g *Graph) OutEdgeBase(v NodeID) int64 { return g.outIndex[v] }

// InEdges returns the sources and probabilities of v's in-edges. The
// slices alias internal storage and must not be modified.
func (g *Graph) InEdges(v NodeID) (sources []NodeID, probs []float32) {
	lo, hi := g.inIndex[v], g.inIndex[v+1]
	return g.inFrom[lo:hi], g.inProb[lo:hi]
}

// InSkip returns v's geometric-skip factor: 1/ln(1−p) (a negative
// number) when all of v's in-edges share one probability p ∈ (0,1) and
// the list is long enough that jumping between live edges is cheaper
// than flipping a coin per edge, else 0. On a non-zero factor the number
// of dead in-edges before the next live one is ⌊ln U · InSkip(v)⌋ for
// uniform U, and under the LT model in-edge ⌊r/p⌋ is the trigger for a
// uniform r — the reverse samplers of internal/rrset use both. The table
// is a property of the immutable graph, computed once at construction.
func (g *Graph) InSkip(v NodeID) float64 { return g.inSkip[v] }

// skipDrawCost is the cost of one geometric-skip draw (RNG output +
// math.Log, ≈ 24 ns) in units of one per-edge coin (RNG output +
// compare, ≈ 5 ns), as measured on the RR sampler's inner loops: on
// weighted-cascade stars the two break even at in-degree 8–10.
const skipDrawCost = 4

// skipPays reports whether geometric skipping over d in-edges of
// probability p — d·p + 1 expected draws — is cheaper than d coins.
func skipPays(d int, p float64) bool {
	return float64(d) > skipDrawCost*(float64(d)*p+1)
}

// buildInSkip fills the per-node skip table from the in-adjacency.
func (g *Graph) buildInSkip() {
	g.inSkip = make([]float64, g.n)
	for v := range g.inSkip {
		ps := g.inProb[g.inIndex[v]:g.inIndex[v+1]]
		if len(ps) == 0 || !(ps[0] > 0 && ps[0] < 1) {
			continue
		}
		uniform := true
		for _, q := range ps[1:] {
			if q != ps[0] {
				uniform = false
				break
			}
		}
		if p := float64(ps[0]); uniform && skipPays(len(ps), p) {
			g.inSkip[v] = 1 / math.Log1p(-p)
		}
	}
}

// InEdgePositions returns, for each in-edge of v, the global out-edge
// position of the same edge.
func (g *Graph) InEdgePositions(v NodeID) []int64 {
	lo, hi := g.inIndex[v], g.inIndex[v+1]
	return g.inEdgePos[lo:hi]
}

// Prob returns the influence probability of edge (u, v), and whether the
// edge exists. It is a linear scan of u's out-list and intended for tests
// and small graphs.
func (g *Graph) Prob(u, v NodeID) (float64, bool) {
	ts, ps := g.OutEdges(u)
	for i, t := range ts {
		if t == v {
			return float64(ps[i]), true
		}
	}
	return 0, false
}

// AvgDegree returns the average out-degree m/n.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(g.m) / float64(g.n)
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d avgdeg=%.2f}", g.n, g.m, g.AvgDegree())
}

// WeightedCascade returns a copy of g with every edge probability reset to
// the weighted-cascade convention p(u,v) = 1/indeg(v) used throughout the
// paper's experiments.
func (g *Graph) WeightedCascade() *Graph {
	ng := *g
	ng.outProb = make([]float32, len(g.outProb))
	ng.inProb = make([]float32, len(g.inProb))
	for v := NodeID(0); int(v) < g.n; v++ {
		d := g.InDegree(v)
		if d == 0 {
			continue
		}
		p := float32(1.0 / float64(d))
		lo, hi := g.inIndex[v], g.inIndex[v+1]
		for j := lo; j < hi; j++ {
			ng.inProb[j] = p
			ng.outProb[g.inEdgePos[j]] = p
		}
	}
	ng.buildInSkip()
	return &ng
}

// UniformProb returns a copy of g with every edge probability set to p,
// used by the scalability experiment's fixed-probability variant.
func (g *Graph) UniformProb(p float64) *Graph {
	ng := *g
	ng.outProb = make([]float32, len(g.outProb))
	ng.inProb = make([]float32, len(g.inProb))
	fp := float32(p)
	for i := range ng.outProb {
		ng.outProb[i] = fp
	}
	for i := range ng.inProb {
		ng.inProb[i] = fp
	}
	ng.buildInSkip()
	return &ng
}
