package diffusion

import (
	"uicwelfare/internal/graph"
	"uicwelfare/internal/stats"
)

// SampleLTWorld draws a linear-threshold possible world: every node
// selects at most one in-neighbor as its trigger (edge (u,v) live with
// probability p(u,v), no edge with the remaining mass). The result is an
// ordinary LiveEdgeWorld, so reachability and the UIC world-runner work
// unchanged — the triggering-set representation of Kempe et al.
func SampleLTWorld(g *graph.Graph, rng *stats.RNG) *LiveEdgeWorld {
	w := &LiveEdgeWorld{g: g, live: make([]bool, g.M())}
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		pos := SampleTrigger(g, v, rng)
		if pos >= 0 {
			w.live[pos] = true
		}
	}
	return w
}

// SampleTrigger picks node v's live LT in-edge (as a global out-edge
// position) or -1 for none, drawing one Float64 from rng when v has
// in-edges and none otherwise. It is the one LT trigger walk: LTSim,
// SampleLTWorld and the UIC simulator all sample through it.
func SampleTrigger(g *graph.Graph, v graph.NodeID, rng *stats.RNG) int64 {
	_, ps := g.InEdges(v)
	if len(ps) == 0 {
		return -1
	}
	r := rng.Float64()
	cum := 0.0
	positions := g.InEdgePositions(v)
	for i, p := range ps {
		cum += float64(p)
		if r < cum {
			return positions[i]
		}
	}
	return -1
}

// LTSim runs forward linear-threshold cascades using lazy trigger
// sampling: a node's trigger edge is drawn the first time one of its
// in-neighbors activates, which is distribution-equivalent to sampling
// the full world up front. Buffers are reused; not safe for concurrent
// use.
type LTSim struct {
	g          *graph.Graph
	visited    []int32
	triggerGen []int32
	trigger    []int64 // global out-edge position, -1 for none
	epoch      int32
	queue      []graph.NodeID
}

// NewLTSim returns an LT simulator for g. g should satisfy ValidateLT.
func NewLTSim(g *graph.Graph) *LTSim {
	return &LTSim{
		g:          g,
		visited:    make([]int32, g.N()),
		triggerGen: make([]int32, g.N()),
		trigger:    make([]int64, g.N()),
	}
}

func (s *LTSim) triggerOf(v graph.NodeID, rng *stats.RNG) int64 {
	if s.triggerGen[v] != s.epoch {
		s.triggerGen[v] = s.epoch
		s.trigger[v] = SampleTrigger(s.g, v, rng)
	}
	return s.trigger[v]
}

// RunOnce performs one LT cascade from the seed set and returns the
// number of active nodes.
func (s *LTSim) RunOnce(seeds []graph.NodeID, rng *stats.RNG) int {
	s.epoch++
	if s.epoch == 0 {
		for i := range s.visited {
			s.visited[i] = -1
			s.triggerGen[i] = -1
		}
		s.epoch = 1
	}
	q := s.queue[:0]
	active := 0
	for _, v := range seeds {
		if s.visited[v] == s.epoch {
			continue
		}
		s.visited[v] = s.epoch
		active++
		q = append(q, v)
	}
	for len(q) > 0 {
		u := q[0]
		q = q[1:]
		base := s.g.OutEdgeBase(u)
		ts, _ := s.g.OutEdges(u)
		for j, v := range ts {
			if s.visited[v] == s.epoch {
				continue
			}
			if s.triggerOf(v, rng) != base+int64(j) {
				continue
			}
			s.visited[v] = s.epoch
			active++
			q = append(q, v)
		}
	}
	s.queue = q[:0]
	return active
}

// Spread estimates the expected LT spread by Monte-Carlo.
func (s *LTSim) Spread(seeds []graph.NodeID, rng *stats.RNG, runs int) float64 {
	if runs <= 0 {
		runs = 1
	}
	total := 0
	for i := 0; i < runs; i++ {
		total += s.RunOnce(seeds, rng)
	}
	return float64(total) / float64(runs)
}

// ExactLTSpread computes the exact LT spread by enumerating all trigger
// assignments (each node independently picks one in-edge or none). The
// state space is Π_v (indeg(v)+1); intended for tiny test graphs.
func ExactLTSpread(g *graph.Graph, seeds []graph.NodeID) float64 {
	states := 1.0
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		states *= float64(g.InDegree(v) + 1)
		if states > 1e6 {
			panic("diffusion: ExactLTSpread state space too large")
		}
	}
	total := 0.0
	var rec func(v graph.NodeID, prob float64, live []bool)
	rec = func(v graph.NodeID, prob float64, live []bool) {
		if int(v) == g.N() {
			w := &LiveEdgeWorld{g: g, live: live}
			total += prob * float64(w.CountReachable(seeds))
			return
		}
		_, ps := g.InEdges(v)
		positions := g.InEdgePositions(v)
		rest := 1.0
		for i, p := range ps {
			if p == 0 {
				continue
			}
			live[positions[i]] = true
			rec(v+1, prob*float64(p), live)
			live[positions[i]] = false
			rest -= float64(p)
		}
		if rest > 1e-12 {
			rec(v+1, prob*rest, live)
		}
	}
	rec(0, 1, make([]bool, g.M()))
	return total
}
