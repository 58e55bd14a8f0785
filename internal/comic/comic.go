// Package comic implements the Com-IC substrate of Lu et al. (VLDB'15)
// for two mutually complementary items, and the RR-SIM+ / RR-CIM seed
// selection baselines the paper compares against (§4.3.1.2). The node
// level automaton (NLA) is realized with threshold persistence: each node
// draws one uniform threshold per item per run and adopts item X whenever
// its threshold is below the GAP probability q_{X|state}, so later
// adoptions of the complement correctly trigger reconsideration.
//
// Design note: the original research code is
// unavailable; these re-implementations preserve the properties the
// paper's comparison rests on — two items only, TIM-scale RR-set counts,
// a forward Monte-Carlo phase that dominates running time, and seed
// quality comparable to bundleGRD under complementary configurations.
package comic

import (
	"uicwelfare/internal/graph"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/utility"
)

// ItemA and ItemB index the two items of the Com-IC model.
const (
	ItemA = 0
	ItemB = 1
)

// Sim runs forward Com-IC diffusions with the GAP parameters. Buffers are
// reused across runs; not safe for concurrent use.
type Sim struct {
	G   *graph.Graph
	GAP utility.GAP

	// per-run state, epoch-stamped
	stateGen []int32
	gen      int32
	alphaA   []float64
	alphaB   []float64
	desireA  []bool
	desireB  []bool
	adoptA   []bool
	adoptB   []bool
	edgeGen  []int32
	edgeLive []bool
	queue    []graph.NodeID
	inQueue  []bool
}

// NewSim returns a Com-IC simulator for g with the given GAP parameters.
func NewSim(g *graph.Graph, gap utility.GAP) *Sim {
	n := g.N()
	return &Sim{
		G:        g,
		GAP:      gap,
		stateGen: make([]int32, n),
		alphaA:   make([]float64, n),
		alphaB:   make([]float64, n),
		desireA:  make([]bool, n),
		desireB:  make([]bool, n),
		adoptA:   make([]bool, n),
		adoptB:   make([]bool, n),
		edgeGen:  make([]int32, g.M()),
		edgeLive: make([]bool, g.M()),
		inQueue:  make([]bool, n),
	}
}

// touch lazily initializes node v's per-run state.
func (s *Sim) touch(v graph.NodeID, rng *stats.RNG) {
	if s.stateGen[v] == s.gen {
		return
	}
	s.stateGen[v] = s.gen
	s.alphaA[v] = rng.Float64()
	s.alphaB[v] = rng.Float64()
	s.desireA[v] = false
	s.desireB[v] = false
	s.adoptA[v] = false
	s.adoptB[v] = false
}

// reconsider re-evaluates v's adoption state after its desire or
// complement state changed; returns true if v adopted something new.
func (s *Sim) reconsider(v graph.NodeID) bool {
	changed := false
	if s.desireA[v] && !s.adoptA[v] {
		q := s.GAP.Q1GivenNone
		if s.adoptB[v] {
			q = s.GAP.Q1Given2
		}
		if s.alphaA[v] < q {
			s.adoptA[v] = true
			changed = true
		}
	}
	if s.desireB[v] && !s.adoptB[v] {
		q := s.GAP.Q2GivenNone
		if s.adoptA[v] {
			q = s.GAP.Q2Given1
		}
		if s.alphaB[v] < q {
			s.adoptB[v] = true
			changed = true
		}
	}
	// adopting one item may immediately unlock the other
	if changed {
		s.reconsider(v)
		return true
	}
	return false
}

// RunOnce simulates one diffusion and returns the number of A- and
// B-adopters.
func (s *Sim) RunOnce(seedsA, seedsB []graph.NodeID, rng *stats.RNG) (nA, nB int) {
	s.gen++
	if s.gen == 0 {
		for i := range s.stateGen {
			s.stateGen[i] = -1
		}
		for i := range s.edgeGen {
			s.edgeGen[i] = -1
		}
		s.gen = 1
	}
	q := s.queue[:0]
	push := func(v graph.NodeID) {
		if !s.inQueue[v] {
			s.inQueue[v] = true
			q = append(q, v)
		}
	}
	for _, v := range seedsA {
		s.touch(v, rng)
		s.desireA[v] = true
	}
	for _, v := range seedsB {
		s.touch(v, rng)
		s.desireB[v] = true
	}
	for _, v := range seedsA {
		if s.reconsider(v) {
			push(v)
		}
	}
	for _, v := range seedsB {
		if s.reconsider(v) {
			push(v)
		}
	}
	for len(q) > 0 {
		u := q[0]
		q = q[1:]
		s.inQueue[u] = false
		base := s.G.OutEdgeBase(u)
		ts, ps := s.G.OutEdges(u)
		for j, v := range ts {
			pos := base + int64(j)
			if s.edgeGen[pos] != s.gen {
				s.edgeGen[pos] = s.gen
				s.edgeLive[pos] = rng.Bool(float64(ps[j]))
			}
			if !s.edgeLive[pos] {
				continue
			}
			s.touch(v, rng)
			grew := false
			if s.adoptA[u] && !s.desireA[v] {
				s.desireA[v] = true
				grew = true
			}
			if s.adoptB[u] && !s.desireB[v] {
				s.desireB[v] = true
				grew = true
			}
			if grew && s.reconsider(v) {
				push(v)
			}
		}
	}
	s.queue = q[:0]
	for v := graph.NodeID(0); int(v) < s.G.N(); v++ {
		if s.stateGen[v] != s.gen {
			continue
		}
		if s.adoptA[v] {
			nA++
		}
		if s.adoptB[v] {
			nB++
		}
	}
	return nA, nB
}

// ExpectedAdoptions estimates the expected number of A- and B-adopters
// over `runs` Monte-Carlo diffusions.
func (s *Sim) ExpectedAdoptions(seedsA, seedsB []graph.NodeID, rng *stats.RNG, runs int) (float64, float64) {
	if runs <= 0 {
		runs = 1
	}
	ta, tb := 0, 0
	for i := 0; i < runs; i++ {
		a, b := s.RunOnce(seedsA, seedsB, rng)
		ta += a
		tb += b
	}
	return float64(ta) / float64(runs), float64(tb) / float64(runs)
}

// AdoptionProbabilities estimates, per node, the probability of adopting
// item B. RR-CIM's forward phase uses this to boost its reverse sampling.
func (s *Sim) AdoptionProbabilities(seedsA, seedsB []graph.NodeID, rng *stats.RNG, runs int) []float64 {
	out := make([]float64, s.G.N())
	if runs <= 0 {
		runs = 1
	}
	for i := 0; i < runs; i++ {
		s.RunOnce(seedsA, seedsB, rng)
		for v := graph.NodeID(0); int(v) < s.G.N(); v++ {
			if s.stateGen[v] == s.gen && s.adoptB[v] {
				out[v]++
			}
		}
	}
	for i := range out {
		out[i] /= float64(runs)
	}
	return out
}
