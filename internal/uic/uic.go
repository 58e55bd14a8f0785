// Package uic implements the paper's Utility-driven Independent Cascade
// model (§3): multi-item diffusion where nodes maintain desire and
// adoption sets, adopt the utility-maximizing superset of their current
// adoption within their desire set, and propagate adopted items over
// IC-style live edges. It provides Monte-Carlo estimation of the expected
// social welfare ρ(S) and a deterministic possible-world runner used by
// the property tests for Lemmas 1-3 and Theorem 1.
package uic

import (
	"fmt"

	"uicwelfare/internal/diffusion"
	"uicwelfare/internal/graph"
	"uicwelfare/internal/itemset"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/utility"
)

// Allocation is a seed allocation 𝒮 ⊆ V × I, stored per item: Seeds[i]
// lists the seed nodes of item i. The item budget constraint
// |Seeds[i]| <= b_i is the caller's responsibility (checked by
// core.Problem).
type Allocation struct {
	Seeds [][]graph.NodeID
}

// NewAllocation returns an empty allocation over k items.
func NewAllocation(k int) *Allocation {
	return &Allocation{Seeds: make([][]graph.NodeID, k)}
}

// Assign adds node v as a seed of item i.
func (a *Allocation) Assign(v graph.NodeID, i int) {
	a.Seeds[i] = append(a.Seeds[i], v)
}

// K returns the number of items.
func (a *Allocation) K() int { return len(a.Seeds) }

// Pairs returns the total number of (node, item) pairs.
func (a *Allocation) Pairs() int {
	n := 0
	for _, s := range a.Seeds {
		n += len(s)
	}
	return n
}

// SeedNodes returns the distinct seed nodes S^𝒮 across all items.
func (a *Allocation) SeedNodes() []graph.NodeID {
	seen := map[graph.NodeID]bool{}
	var out []graph.NodeID
	for _, seeds := range a.Seeds {
		for _, v := range seeds {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// ItemsOf returns I^𝒮_v for every node appearing in the allocation.
func (a *Allocation) ItemsOf() map[graph.NodeID]itemset.Set {
	m := map[graph.NodeID]itemset.Set{}
	for i, seeds := range a.Seeds {
		for _, v := range seeds {
			m[v] = m[v].Add(i)
		}
	}
	return m
}

// Clone deep-copies the allocation.
func (a *Allocation) Clone() *Allocation {
	c := NewAllocation(a.K())
	for i, seeds := range a.Seeds {
		c.Seeds[i] = append([]graph.NodeID(nil), seeds...)
	}
	return c
}

// Union returns the allocation containing every pair of a and b (which
// must have the same number of items). Duplicate pairs collapse.
func Union(a, b *Allocation) *Allocation {
	if a.K() != b.K() {
		panic(fmt.Sprintf("uic: union of allocations with %d and %d items", a.K(), b.K()))
	}
	c := NewAllocation(a.K())
	for i := 0; i < a.K(); i++ {
		seen := map[graph.NodeID]bool{}
		for _, src := range [][]graph.NodeID{a.Seeds[i], b.Seeds[i]} {
			for _, v := range src {
				if !seen[v] {
					seen[v] = true
					c.Seeds[i] = append(c.Seeds[i], v)
				}
			}
		}
	}
	return c
}

// edge states for the lazy per-run edge memo
const (
	edgeUntested uint8 = iota
	edgeLive
	edgeBlocked
)

// Simulator runs UIC diffusions over one graph and model, reusing
// buffers. Not safe for concurrent use; Split RNGs and create one
// Simulator per goroutine for parallel estimation.
type Simulator struct {
	G *graph.Graph
	M *utility.Model
	// Cascade selects the edge semantics: IC (default, per-edge coins) or
	// LT (per-node single trigger). §5 of the paper notes all results
	// carry over to triggering models.
	Cascade graph.Cascade
	// OnAdopt, when non-nil, is invoked whenever a node's adoption set
	// grows: round is the diffusion time step (1 = seeding). Useful for
	// tracing and visualization; adds no cost when nil.
	OnAdopt func(round int, v graph.NodeID, adopted itemset.Set)

	desire  []itemset.Set
	adopted []itemset.Set
	touched []graph.NodeID // nodes whose desire/adopted were written this run
	edge    []uint8
	edgeGen []int32 // generation stamp per edge; != gen means untested
	gen     int32

	// LT trigger state: the one live in-edge per node, sampled lazily.
	triggerGen []int32
	trigger    []int64

	util []float64 // utility table of the current shared noise world
	// Per-node noise (§5), allocated only by NewPersonalizedSim:
	// nodeUtil[v] is node v's own utility table, valid this run when
	// hasUtil[v].
	nodeUtil [][]float64
	hasUtil  []bool

	frontier []graph.NodeID
	next     []graph.NodeID
	inNext   []bool
}

// NewSimulator builds a simulator for the graph and utility model.
func NewSimulator(g *graph.Graph, m *utility.Model) *Simulator {
	return &Simulator{
		G:          g,
		M:          m,
		desire:     make([]itemset.Set, g.N()),
		adopted:    make([]itemset.Set, g.N()),
		edge:       make([]uint8, g.M()),
		edgeGen:    make([]int32, g.M()),
		triggerGen: make([]int32, g.N()),
		trigger:    make([]int64, g.N()),
		inNext:     make([]bool, g.N()),
	}
}

// triggerOf lazily samples node v's LT trigger edge for the current run,
// returning its global out-edge position or -1.
func (s *Simulator) triggerOf(v graph.NodeID, rng *stats.RNG) int64 {
	if s.triggerGen[v] != s.gen {
		s.triggerGen[v] = s.gen
		s.trigger[v] = diffusion.SampleTrigger(s.G, v, rng)
	}
	return s.trigger[v]
}

// utilOf returns the utility table node v adopts under this run: the
// shared table, or (personal) v's own table, its noise world drawn from
// rng the first time the run needs it.
func (s *Simulator) utilOf(v graph.NodeID, rng *stats.RNG, personal bool) []float64 {
	if !personal {
		return s.util
	}
	if !s.hasUtil[v] {
		s.hasUtil[v] = true
		s.nodeUtil[v] = s.M.UtilityTable(s.M.SampleNoise(rng), s.nodeUtil[v])
	}
	return s.nodeUtil[v]
}

// RunOnce samples a noise world and a lazy edge world, runs the diffusion
// to quiescence, and returns the realized social welfare
// Σ_v U_W(A_W(v)). On a NewPersonalizedSim simulator every node draws
// its own noise world instead. The adoption sets remain readable
// through Adopted until the next run.
func (s *Simulator) RunOnce(alloc *Allocation, rng *stats.RNG) float64 {
	personal := s.nodeUtil != nil
	if !personal {
		s.util = s.M.UtilityTable(s.M.SampleNoise(rng), s.util)
	}
	return s.run(alloc, rng, nil, personal)
}

// RunOnceWithNoise runs a diffusion with a fixed noise world, shared by
// every node, but random edges — the W^N conditional welfare ρ_{W^N} is
// the average of these.
func (s *Simulator) RunOnceWithNoise(alloc *Allocation, noise []float64, rng *stats.RNG) float64 {
	s.util = s.M.UtilityTable(noise, s.util)
	return s.run(alloc, rng, nil, false)
}

// RunInWorld runs the fully deterministic diffusion of a possible world
// W = (W^E, W^N) and returns the welfare. Used by property tests.
func (s *Simulator) RunInWorld(alloc *Allocation, world *diffusion.LiveEdgeWorld, noise []float64) float64 {
	s.util = s.M.UtilityTable(noise, s.util)
	return s.run(alloc, nil, world, false)
}

// Adopted returns the adoption set of v at the end of the last run.
func (s *Simulator) Adopted(v graph.NodeID) itemset.Set { return s.adopted[v] }

// run executes the diffusion of Fig. 1. Exactly one of rng (lazy edge
// flips) or world (fixed edge world) is non-nil. Each node adopts under
// utilOf(v, rng, personal): the prepared shared table, or (personal, rng
// only) its own per-node one.
func (s *Simulator) run(alloc *Allocation, rng *stats.RNG, world *diffusion.LiveEdgeWorld, personal bool) float64 {
	// reset per-run node state (only nodes touched last run)
	for _, v := range s.touched {
		s.desire[v] = 0
		s.adopted[v] = 0
		if s.hasUtil != nil {
			s.hasUtil[v] = false
		}
	}
	s.touched = s.touched[:0]
	s.gen++
	if s.gen == 0 {
		// gen skips 0 and starts at 1, so a 0 stamp is never current:
		// clear every edge and trigger stamp, or a stamp left by an old
		// run of the new gen would read as sampled this run.
		clear(s.edgeGen)
		clear(s.triggerGen)
		s.gen = 1
	}

	frontier := s.frontier[:0]

	// t = 1: seed nodes desire their allocated items and adopt the
	// utility-maximizing subset (seeds are rational users too).
	for i, seeds := range alloc.Seeds {
		for _, v := range seeds {
			if s.desire[v] == 0 && s.adopted[v] == 0 {
				s.touched = append(s.touched, v)
			}
			s.desire[v] = s.desire[v].Add(i)
		}
	}
	for _, v := range s.touched {
		a := utility.Adopt(s.utilOf(v, rng, personal), s.desire[v], 0)
		if !a.IsEmpty() {
			s.adopted[v] = a
			frontier = append(frontier, v)
			if s.OnAdopt != nil {
				s.OnAdopt(1, v, a)
			}
		}
	}
	round := 1

	// t > 1: synchronous rounds matching Fig. 1 exactly. Phase 1 (edge
	// transition + desire generation): every node that adopted new items
	// at t-1 tests its untested out-edges and delivers its full adoption
	// set A(u, t-1) through live edges into the targets' desire sets.
	// Phase 2 (node adoption): each node whose desire set grew re-runs
	// the adoption rule once, constrained to supersets of A(v, t-1).
	// The two-phase structure matters for non-supermodular valuations
	// (e.g. the real Table 5 parameters), where folding deliveries in
	// one-by-one could steer the argmax through a different chain.
	next := s.next[:0]
	for len(frontier) > 0 {
		round++
		next = next[:0]
		// Phase 1: desire generation.
		for _, u := range frontier {
			au := s.adopted[u]
			base := s.G.OutEdgeBase(u)
			ts, ps := s.G.OutEdges(u)
			for j, v := range ts {
				pos := base + int64(j)
				var live bool
				switch {
				case world != nil:
					live = world.Live(pos)
				case s.Cascade == graph.CascadeLT:
					live = s.triggerOf(v, rng) == pos
				default:
					if s.edgeGen[pos] != s.gen {
						s.edgeGen[pos] = s.gen
						if rng.Bool(float64(ps[j])) {
							s.edge[pos] = edgeLive
						} else {
							s.edge[pos] = edgeBlocked
						}
					}
					live = s.edge[pos] == edgeLive
				}
				if !live {
					continue
				}
				if s.desire[v]|au == s.desire[v] {
					continue // nothing new to desire
				}
				if s.desire[v] == 0 && s.adopted[v] == 0 {
					s.touched = append(s.touched, v)
				}
				s.desire[v] = s.desire[v].Union(au)
				if !s.inNext[v] {
					s.inNext[v] = true
					next = append(next, v)
				}
			}
		}
		// Phase 2: node adoption for nodes with grown desire sets.
		adopters := next[:0]
		for _, v := range next {
			s.inNext[v] = false
			newAdopt := utility.Adopt(s.utilOf(v, rng, personal), s.desire[v], s.adopted[v])
			if newAdopt != s.adopted[v] {
				s.adopted[v] = newAdopt
				adopters = append(adopters, v)
				if s.OnAdopt != nil {
					s.OnAdopt(round, v, newAdopt)
				}
			}
		}
		frontier, next = adopters, frontier[:0]
	}
	s.frontier = frontier[:0]
	s.next = next[:0]

	welfare := 0.0
	for _, v := range s.touched {
		welfare += s.utilOf(v, rng, personal)[s.adopted[v]]
	}
	return welfare
}
