package rrset

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/stats"
)

// extremeProbGraph is a directed graph whose in-lists cover the edge
// cases a weighted-cascade graph never has: in-degree-1 nodes on p = 1
// edges, all-p = 0 in-lists, lists that mix p = 0, p = 1 and
// fractional probabilities, and long uniform lists that the geometric
// skip samples. Every in-list sums to at most 1, so it is a valid LT
// graph too.
func extremeProbGraph() *graph.Graph {
	const n = 64
	b := graph.NewBuilder(n)
	for v := 1; v < 16; v++ {
		b.AddEdge(graph.NodeID(v-1), graph.NodeID(v), 1) // a p = 1 chain
	}
	for v := 16; v < 24; v++ {
		for u := 0; u < 3; u++ {
			b.AddEdge(graph.NodeID(v+20+u), graph.NodeID(v), 0) // nothing is live
		}
	}
	mixes := [][]float64{{0, 1}, {0.25, 0, 0.5}, {1, 0, 0}, {0.125, 0.375, 0, 0.25}}
	for v := 24; v < 40; v++ {
		for i, p := range mixes[v%len(mixes)] {
			b.AddEdge(graph.NodeID((v*7+i*11)%n), graph.NodeID(v), p)
		}
	}
	for v := 40; v < n; v++ {
		for i := 0; i < 12; i++ {
			b.AddEdge(graph.NodeID((v+1+i*5)%n), graph.NodeID(v), 0.08) // uniform, skipped
		}
	}
	return b.Build()
}

// TestStreamGoldenExtremeProbabilities pins the sampled stream on
// extremeProbGraph: the first 8 bytes of SHA-256 over the offsets and
// members of 3,000 sets grown by two workers from NewRNG(45), and the
// width statistic, under IC and LT. A sampler that draws a coin for a
// p = 0 or p = 1 edge, or reorders its draws on a mixed list, moves a
// digest even where the distribution of the sets is unchanged.
func TestStreamGoldenExtremeProbabilities(t *testing.T) {
	g := extremeProbGraph()
	for _, c := range []struct {
		name    string
		cascade graph.Cascade
		want    string
	}{
		{"IC", graph.CascadeIC, "b896ed699068998e"},
		{"LT", graph.CascadeLT, "eaa680e57c2dba08"},
	} {
		col := Options{Cascade: c.cascade}.NewCollection(g)
		growTo(t, col, 3000, stats.NewRNG(45), 2)
		h := sha256.New()
		var buf [8]byte
		for _, off := range col.Offsets() {
			binary.LittleEndian.PutUint64(buf[:], uint64(off))
			h.Write(buf[:])
		}
		for _, v := range col.Members() {
			binary.LittleEndian.PutUint32(buf[:4], uint32(v))
			h.Write(buf[:4])
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(col.EdgesVisited()))
		h.Write(buf[:])
		if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != c.want {
			t.Errorf("%s: stream digest %s, want %s", c.name, got, c.want)
		}
	}
}
