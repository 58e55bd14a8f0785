// Package rrset implements reverse-reachable (RR) set sampling and the
// greedy max-cover NodeSelection procedure shared by all RIS-style
// influence-maximization algorithms (TIM, IMM, PRIMA).
//
// An RR set is drawn by picking a root node uniformly at random and
// walking the graph backwards, keeping each in-edge independently with its
// influence probability. The fundamental identity is
// sigma(S) = n * E[ S ∩ RR != ∅ ].
package rrset

import (
	"math"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/stats"
)

// Sampler draws RR sets from one graph, reusing internal buffers. Not safe
// for concurrent use.
type Sampler struct {
	g *graph.Graph
	// visited[v] == epoch marks v reached in the current sample; the
	// array is allocated on first use and dropped by release.
	visited []int32
	epoch   int32
	// Cascade selects the diffusion model sampled against: IC performs
	// the per-edge reverse BFS, LT the single-trigger reverse walk.
	Cascade graph.Cascade
	// NodeCoin, if non-nil, is an additional per-node pass probability
	// applied when the walk tries to continue through a node (used by the
	// Com-IC RR-SIM/RR-CIM baselines, where adoption requires a node-level
	// GAP coin in addition to the live edge).
	NodeCoin func(v graph.NodeID) float64
	// EdgesVisited accumulates the in-degrees of every node the walks
	// expanded — the width statistic w(R) used in running-time
	// accounting (EPT). It counts the edges a per-edge sampler would
	// examine, whether or not geometric skipping jumped over them.
	EdgesVisited int64
}

// NewSampler returns a sampler for g.
func NewSampler(g *graph.Graph) *Sampler {
	return &Sampler{g: g}
}

// release drops the n-sized visited array; the next sample re-allocates
// it. Configuration and the width statistic are kept.
func (s *Sampler) release() {
	s.visited, s.epoch = nil, 0
}

// Sample draws one RR set rooted at a uniformly random node and appends
// the member nodes to dst, returning the extended slice. The root is
// always a member.
func (s *Sampler) Sample(rng *stats.RNG, dst []graph.NodeID) []graph.NodeID {
	root := graph.NodeID(rng.Intn(s.g.N()))
	return s.SampleFrom(root, rng, dst)
}

// SampleFrom draws one RR set rooted at the given node.
//
// Under IC every in-edge of an expanded node is live independently with
// its probability. Where the graph marks the in-neighbourhood uniform
// (graph.InSkip != 0) the sampler does not flip those coins one by one:
// the gaps between consecutive live edges of a Bernoulli(p) sequence
// are i.i.d. Geometric(p), so it draws the gaps and lands on the live
// edges directly — the same distribution over live-edge subsets at a
// cost proportional to the edges kept, not the edges passed. Mixed
// probabilities and short lists keep the per-edge coin.
func (s *Sampler) SampleFrom(root graph.NodeID, rng *stats.RNG, dst []graph.NodeID) []graph.NodeID {
	if s.visited == nil {
		s.visited = make([]int32, s.g.N())
	}
	s.epoch++
	if s.epoch == 0 {
		for i := range s.visited {
			s.visited[i] = -1
		}
		s.epoch = 1
	}
	s.visited[root] = s.epoch
	if s.NodeCoin != nil && !rng.Bool(s.NodeCoin(root)) {
		// The root itself would never adopt, so no seed placement can
		// cover this sample: the RR set is empty.
		return dst
	}
	// The members appended to dst are in BFS discovery order, so dst
	// past head is the BFS queue.
	head := len(dst)
	dst = append(dst, root)
	if s.Cascade == graph.CascadeLT {
		return s.sampleLT(root, rng, dst)
	}
	for ; head < len(dst); head++ {
		v := dst[head]
		srcs, ps := s.g.InEdges(v)
		d := len(srcs)
		s.EdgesVisited += int64(d)
		if inv := s.g.InSkip(v); inv != 0 {
			for i := liveSkip(rng.Float64(), inv, d); i < d; i += 1 + liveSkip(rng.Float64(), inv, d-i-1) {
				dst = s.reach(srcs[i], rng, dst)
			}
			continue
		}
		for i, u := range srcs {
			if s.visited[u] != s.epoch && rng.Bool(float64(ps[i])) {
				dst = s.reach(u, rng, dst)
			}
		}
	}
	return dst
}

// liveSkip turns one uniform draw u ∈ [0,1) into the number of dead
// in-edges before the next live one, ⌊ln u / ln(1−p)⌋ with invLog =
// 1/ln(1−p), capped at rem: any result ≥ rem means no live edge is left
// among the rem remaining. The cap is applied in floating point, so
// u = 0 (ln u = −∞) and a tiny p (a skip far beyond any int) both land
// on rem instead of overflowing the conversion.
func liveSkip(u, invLog float64, rem int) int {
	f := math.Log(u) * invLog
	if !(f < float64(rem)) {
		return rem
	}
	return int(f)
}

// reach handles a node at the far end of a live in-edge: already
// reached nodes are ignored; a node failing its node coin is reached
// but would not itself adopt/forward, so it still blocks this branch of
// the reverse walk; otherwise the node joins the set.
func (s *Sampler) reach(u graph.NodeID, rng *stats.RNG, dst []graph.NodeID) []graph.NodeID {
	if s.visited[u] == s.epoch {
		return dst
	}
	s.visited[u] = s.epoch
	if s.NodeCoin != nil && !rng.Bool(s.NodeCoin(u)) {
		return dst
	}
	return append(dst, u)
}

// sampleLT continues an RR walk under the linear threshold model: each
// node has at most one live in-edge (its trigger), so the reverse walk is
// a path that ends when no trigger fires or a cycle closes.
func (s *Sampler) sampleLT(root graph.NodeID, rng *stats.RNG, dst []graph.NodeID) []graph.NodeID {
	cur := root
	for {
		srcs, ps := s.g.InEdges(cur)
		s.EdgesVisited += int64(len(srcs))
		if len(srcs) == 0 {
			return dst
		}
		r := rng.Float64()
		chosen := graph.NodeID(-1)
		if s.g.InSkip(cur) != 0 {
			// Uniform neighbourhood: in-edge i owns [i·p, (i+1)·p).
			if f := r / float64(ps[0]); f < float64(len(srcs)) {
				chosen = srcs[int(f)]
			}
		} else {
			cum := 0.0
			for i, p := range ps {
				cum += float64(p)
				if r < cum {
					chosen = srcs[i]
					break
				}
			}
		}
		before := len(dst)
		if chosen >= 0 {
			dst = s.reach(chosen, rng, dst)
		}
		if len(dst) == before {
			return dst
		}
		cur = chosen
	}
}
