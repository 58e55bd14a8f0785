package graph

import "fmt"

// CSR returns the graph's out-adjacency arrays in compressed-sparse-row
// form: outIndex[v]..outIndex[v+1] delimits v's out-edges in outTo and
// outProb, with each row sorted by target and free of duplicates and
// self-loops (Builder's canonical form). The slices alias internal
// storage and must not be modified. Together with FromCSR this is the
// serialization seam: a graph round-trips through exactly these three
// arrays.
func (g *Graph) CSR() (outIndex []int64, outTo []NodeID, outProb []float32) {
	return g.outIndex, g.outTo, g.outProb
}

// FromCSR constructs a Graph directly from canonical out-CSR arrays,
// skipping the Builder's sort-and-dedup pass. The arrays must be in the
// form CSR returns — monotone outIndex starting at 0, every row strictly
// sorted by target with no self-loops, probabilities in [0, 1] — and are
// validated; a malformed input (e.g. a corrupt or hand-built file)
// returns an error rather than a broken graph. The in-adjacency and the
// in-edge position map are rebuilt by counting sort, reproducing exactly
// what Builder.Build computes, so FromCSR(CSR(g)) is structurally equal
// to g. The slices are retained; callers must not modify them afterwards.
func FromCSR(n int, outIndex []int64, outTo []NodeID, outProb []float32) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative node count %d", n)
	}
	if len(outIndex) != n+1 {
		return nil, fmt.Errorf("graph: outIndex has %d entries, want n+1 = %d", len(outIndex), n+1)
	}
	if outIndex[0] != 0 {
		return nil, fmt.Errorf("graph: outIndex[0] = %d, want 0", outIndex[0])
	}
	m := len(outTo)
	if len(outProb) != m {
		return nil, fmt.Errorf("graph: %d targets but %d probabilities", m, len(outProb))
	}
	if outIndex[n] != int64(m) {
		return nil, fmt.Errorf("graph: outIndex ends at %d, want edge count %d", outIndex[n], m)
	}
	for v := 0; v < n; v++ {
		lo, hi := outIndex[v], outIndex[v+1]
		if hi < lo {
			return nil, fmt.Errorf("graph: outIndex not monotone at node %d", v)
		}
		for j := lo; j < hi; j++ {
			t := outTo[j]
			if t < 0 || int(t) >= n {
				return nil, fmt.Errorf("graph: edge target %d out of range [0, %d)", t, n)
			}
			if int(t) == v {
				return nil, fmt.Errorf("graph: self-loop at node %d", v)
			}
			if j > lo && outTo[j-1] >= t {
				return nil, fmt.Errorf("graph: out-edges of node %d not strictly sorted", v)
			}
			if p := outProb[j]; p < 0 || p > 1 {
				return nil, fmt.Errorf("graph: probability %v out of [0,1]", p)
			}
		}
	}

	g := &Graph{
		n:         n,
		m:         m,
		outIndex:  outIndex,
		outTo:     outTo,
		outProb:   outProb,
		inIndex:   make([]int64, n+1),
		inFrom:    make([]NodeID, m),
		inProb:    make([]float32, m),
		inEdgePos: make([]int64, m),
	}
	for _, v := range outTo {
		g.inIndex[v+1]++
	}
	for i := 0; i < n; i++ {
		g.inIndex[i+1] += g.inIndex[i]
	}
	cursor := make([]int64, n)
	copy(cursor, g.inIndex[:n])
	for u := 0; u < n; u++ {
		for pos := outIndex[u]; pos < outIndex[u+1]; pos++ {
			v := outTo[pos]
			j := cursor[v]
			cursor[v]++
			g.inFrom[j] = NodeID(u)
			g.inProb[j] = outProb[pos]
			g.inEdgePos[j] = pos
		}
	}
	g.buildInSkip()
	return g, nil
}
