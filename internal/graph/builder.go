package graph

import (
	"fmt"
	"sort"
)

// Builder accumulates edges and produces an immutable Graph. Parallel
// edges are collapsed keeping the maximum probability; self-loops are
// dropped (they carry no influence in the IC model).
type Builder struct {
	n     int
	edges []builderEdge
}

type builderEdge struct {
	u, v NodeID
	p    float32
}

// NewBuilder returns a builder for a graph with n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge records the directed edge (u, v) with influence probability p.
// It panics on out-of-range endpoints or probabilities outside [0, 1].
func (b *Builder) AddEdge(u, v NodeID, p float64) {
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range n=%d", u, v, b.n))
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("graph: probability %v out of [0,1]", p))
	}
	if u == v {
		return
	}
	b.edges = append(b.edges, builderEdge{u, v, float32(p)})
}

// AddUndirected records the edge in both directions with probability p.
func (b *Builder) AddUndirected(u, v NodeID, p float64) {
	b.AddEdge(u, v, p)
	b.AddEdge(v, u, p)
}

// NumEdges returns the number of edges recorded so far (before
// deduplication).
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build produces the CSR graph. The builder may be reused afterwards.
func (b *Builder) Build() *Graph {
	// Sort by (u, v) and deduplicate.
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i].u != b.edges[j].u {
			return b.edges[i].u < b.edges[j].u
		}
		return b.edges[i].v < b.edges[j].v
	})
	dedup := b.edges[:0:len(b.edges)]
	for _, e := range b.edges {
		if k := len(dedup) - 1; k >= 0 && dedup[k].u == e.u && dedup[k].v == e.v {
			if e.p > dedup[k].p {
				dedup[k].p = e.p
			}
			continue
		}
		dedup = append(dedup, e)
	}

	m := len(dedup)
	g := &Graph{
		n:         b.n,
		m:         m,
		outIndex:  make([]int64, b.n+1),
		outTo:     make([]NodeID, m),
		outProb:   make([]float32, m),
		inIndex:   make([]int64, b.n+1),
		inFrom:    make([]NodeID, m),
		inProb:    make([]float32, m),
		inEdgePos: make([]int64, m),
	}

	// Out-CSR: edges are already sorted by u.
	for _, e := range dedup {
		g.outIndex[e.u+1]++
	}
	for i := 0; i < b.n; i++ {
		g.outIndex[i+1] += g.outIndex[i]
	}
	for i, e := range dedup {
		g.outTo[i] = e.v
		g.outProb[i] = e.p
		_ = i
	}

	// In-CSR via counting sort on v.
	for _, e := range dedup {
		g.inIndex[e.v+1]++
	}
	for i := 0; i < b.n; i++ {
		g.inIndex[i+1] += g.inIndex[i]
	}
	cursor := make([]int64, b.n)
	copy(cursor, g.inIndex[:b.n])
	for pos, e := range dedup {
		j := cursor[e.v]
		cursor[e.v]++
		g.inFrom[j] = e.u
		g.inProb[j] = e.p
		g.inEdgePos[j] = int64(pos)
	}
	g.buildInSkip()
	return g
}

// FromEdges builds a directed graph from explicit (u, v, p) triples.
func FromEdges(n int, edges [][3]float64) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(NodeID(e[0]), NodeID(e[1]), e[2])
	}
	return b.Build()
}
