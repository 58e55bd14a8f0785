package rrset

import (
	"context"
	"fmt"
	"sync/atomic"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/telemetry"
)

// Collection stores a growing multiset of RR sets together with the
// inverted node -> set index needed by NodeSelection. Sets and index are
// both flat arrays (CSR): no per-set or per-node allocation.
//
// Concurrency: the Grow family, Reset and ReleaseScratch mutate the
// collection and must be serialized by the caller. Once growing stops,
// the read-only surface (Len, TotalSize, Set, Covering, CoverageOf,
// FractionCovered, NodeSelection — which allocates all of its scratch
// state locally) is safe for any number of concurrent readers. The IMM/PRIMA sketch caches
// build a collection once and then share it read-only across request
// goroutines.
type Collection struct {
	g *graph.Graph

	// flattened set storage
	members []graph.NodeID
	offsets []int64 // set i occupies members[offsets[i]:offsets[i+1]]

	// inverted index in CSR form: the ids of the sets containing node v,
	// ascending, are coverIDs[coverIdx[v]:coverIdx[v+1]]. Rebuilt by one
	// counting pass over members at the end of every grow (buildIndex).
	coverIdx []int64
	coverIDs []int32

	sampler *Sampler

	// Parallel-grow state (see GrowParallelCtx): pooled per-worker
	// samplers reused across adaptive rounds, and the width statistic
	// accumulated by parallel workers (read/written atomically — workers
	// add while EdgesVisited may be read for progress displays).
	parSamplers []*Sampler
	parEdges    int64
}

// NewCollection returns an empty collection for g.
func NewCollection(g *graph.Graph) *Collection {
	return &Collection{
		g:        g,
		offsets:  []int64{0},
		coverIdx: make([]int64, g.N()+1),
		sampler:  NewSampler(g),
	}
}

// buildIndex rebuilds the inverted index from members/offsets by
// counting sort: count each node's memberships, prefix-sum the counts
// into list starts, then scan the sets in id order dropping each id at
// its node's cursor — so every list comes out ascending. The cursors
// are the coverIdx entries themselves, shifted back afterwards.
func (c *Collection) buildIndex() {
	idx := c.coverIdx
	clear(idx)
	for _, v := range c.members {
		idx[v+1]++
	}
	for v := 1; v < len(idx); v++ {
		idx[v] += idx[v-1]
	}
	if cap(c.coverIDs) < len(c.members) {
		c.coverIDs = make([]int32, len(c.members))
	}
	ids := c.coverIDs[:len(c.members)]
	for i := 0; i < c.Len(); i++ {
		for _, v := range c.Set(i) {
			ids[idx[v]] = int32(i)
			idx[v]++
		}
	}
	copy(idx[1:], idx)
	idx[0] = 0
	c.coverIDs = ids
}

// Sampler exposes the underlying sampler so callers can set a node coin.
func (c *Collection) Sampler() *Sampler { return c.sampler }

// Members returns the flattened member storage of every stored set (set i
// occupies Members()[Offsets()[i]:Offsets()[i+1]]). The slice aliases
// internal storage and must not be modified. Together with Offsets and
// Restore this is the collection's serialization seam.
func (c *Collection) Members() []graph.NodeID { return c.members }

// Offsets returns the set-boundary offsets into Members; it has Len()+1
// entries starting at 0. The slice aliases internal storage and must not
// be modified.
func (c *Collection) Offsets() []int64 { return c.offsets }

// Restore reassembles a collection for g from flattened member storage
// as returned by Members and Offsets, rebuilding the inverted
// node -> set index. The inputs are validated — a malformed pair (e.g.
// from a corrupt sketch file) returns an error rather than a collection
// that would misbehave under NodeSelection. The slices are retained;
// callers must not modify them afterwards. The restored collection is
// immediately usable read-only (the sketch-cache contract); growing it
// further is also legal.
func Restore(g *graph.Graph, members []graph.NodeID, offsets []int64) (*Collection, error) {
	if len(offsets) == 0 || offsets[0] != 0 {
		return nil, fmt.Errorf("rrset: offsets must start at 0")
	}
	if offsets[len(offsets)-1] != int64(len(members)) {
		return nil, fmt.Errorf("rrset: offsets end at %d, want member count %d",
			offsets[len(offsets)-1], len(members))
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			return nil, fmt.Errorf("rrset: offsets not monotone at set %d", i-1)
		}
	}
	n := g.N()
	for _, v := range members {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("rrset: member node %d out of range [0, %d)", v, n)
		}
	}
	c := NewCollection(g)
	c.members, c.offsets = members, offsets
	c.buildIndex()
	return c, nil
}

// N returns the node count of the underlying graph.
func (c *Collection) N() int { return c.g.N() }

// Len returns the number of RR sets stored.
func (c *Collection) Len() int { return len(c.offsets) - 1 }

// TotalSize returns the total number of node memberships across all sets.
func (c *Collection) TotalSize() int64 { return int64(len(c.members)) }

// EdgesVisited returns the cumulative width statistic of all samples,
// including sets sampled by parallel workers (see GrowParallelCtx).
func (c *Collection) EdgesVisited() int64 {
	return c.sampler.EdgesVisited + atomic.LoadInt64(&c.parEdges)
}

// ResidentBytes is what the stored sets and their index occupy: every
// membership once in the flat set storage and once in the index (4
// bytes each), 8 bytes per set boundary, 8 per node for the index's
// list starts. Sampling scratch is not counted — sketch builders
// release it (ReleaseScratch) before a collection becomes resident.
func (c *Collection) ResidentBytes() int64 {
	return 4*int64(len(c.members)) + 4*int64(len(c.coverIDs)) +
		8*int64(len(c.offsets)) + 8*int64(len(c.coverIdx))
}

// ReleaseScratch drops the n-sized sampling scratch (the primary
// sampler's and the pooled per-worker samplers' visited arrays) once
// growth is over, so a collection kept resident holds only its sets and
// index. Growing it again is legal; the scratch is re-allocated then.
func (c *Collection) ReleaseScratch() {
	c.sampler.release()
	c.parSamplers = nil
}

// Grow samples RR sets until the collection holds at least target sets.
func (c *Collection) Grow(target int64, rng *stats.RNG) {
	_ = c.GrowCtx(context.Background(), target, rng, nil) // background ctx: never canceled
}

// growChunk is how many RR sets GrowCtx samples between cancellation
// checks and progress reports. Small enough that cancellation lands
// promptly even on graphs where a single set is expensive, large enough
// that the per-chunk overhead is invisible next to the sampling itself.
const growChunk = 256

// GrowCtx is Grow with cooperative cancellation and progress reporting:
// every growChunk samples it checks ctx and, when report is non-nil,
// reports the sets sampled so far against target. It returns ctx.Err()
// when canceled, leaving the collection with whatever it had sampled;
// callers abandoning the build should discard the collection.
func (c *Collection) GrowCtx(ctx context.Context, target int64, rng *stats.RNG, report func(done, target int64)) error {
	defer telemetry.StartSpan(ctx, "rrset_grow")()
	start := int64(c.Len())
	defer func() {
		if grown := int64(c.Len()) - start; grown > 0 {
			c.buildIndex()
			telemetry.AddResource(ctx, telemetry.ResRRSetsGrown, grown)
		}
	}()
	for int64(c.Len()) < target {
		if err := ctx.Err(); err != nil {
			return err
		}
		stop := int64(c.Len()) + growChunk
		if stop > target {
			stop = target
		}
		for int64(c.Len()) < stop {
			c.members = c.sampler.Sample(rng, c.members)
			c.offsets = append(c.offsets, int64(len(c.members)))
		}
		if report != nil {
			report(int64(c.Len()), target)
		}
	}
	return nil
}

// Set returns the members of set i.
func (c *Collection) Set(i int) []graph.NodeID {
	return c.members[c.offsets[i]:c.offsets[i+1]]
}

// Covering returns the ids of the stored sets containing v. The slice
// aliases internal storage and must not be modified.
func (c *Collection) Covering(v graph.NodeID) []int32 {
	return c.coverIDs[c.coverIdx[v]:c.coverIdx[v+1]]
}

// Reset drops all stored sets, keeping allocated capacity. PRIMA uses this
// for its final from-scratch regeneration phase.
func (c *Collection) Reset() {
	c.members = c.members[:0]
	c.offsets = c.offsets[:1]
	c.buildIndex()
}

// CoverageOf returns the number of sets hit by the given seed set,
// computed from scratch (used by tests; NodeSelection tracks coverage
// incrementally).
func (c *Collection) CoverageOf(seeds []graph.NodeID) int {
	covered := make([]bool, c.Len())
	for _, s := range seeds {
		for _, id := range c.Covering(s) {
			covered[id] = true
		}
	}
	n := 0
	for _, b := range covered {
		if b {
			n++
		}
	}
	return n
}

// FractionCovered returns F_R(seeds), the fraction of stored sets hit by
// the seed set; n * F_R(S) is the spread estimator.
func (c *Collection) FractionCovered(seeds []graph.NodeID) float64 {
	if c.Len() == 0 {
		return 0
	}
	return float64(c.CoverageOf(seeds)) / float64(c.Len())
}

// NodeSelection greedily picks k nodes maximizing RR-set coverage (the
// standard max-cover procedure of TIM/IMM). It returns the ordered seed
// set and the fraction of sets covered by the full selection. The
// procedure is deterministic given the collection and selects one node at
// a time, so for any k' < k the budget-k' selection is exactly the first
// k' nodes of the budget-k selection — the property PRIMA's budget-switch
// seed reuse relies on. Every call runs the greedy afresh; sketches that
// serve many requests memoise it (SelectionMemo).
func (c *Collection) NodeSelection(k int) (seeds []graph.NodeID, covered float64) {
	sel := c.Select(k)
	return sel.Order, sel.Fraction()
}

// Select is NodeSelection in memoisable form: the greedy order together
// with the cumulative covered-set count at every prefix.
func (c *Collection) Select(k int) Selection {
	n := c.g.N()
	if k > n {
		k = n
	}
	deg := make([]int32, n)
	for v := 0; v < n; v++ {
		deg[v] = int32(c.coverIdx[v+1] - c.coverIdx[v])
	}
	setCovered := make([]bool, c.Len())
	sel := Selection{
		Order:   make([]graph.NodeID, 0, k),
		Covered: make([]int64, 0, k),
		Sets:    c.Len(),
	}
	var totalCovered int64

	// Lazy-greedy with a simple binary heap keyed by stale degree.
	h := newMaxHeap(deg)
	for len(sel.Order) < k && h.len() > 0 {
		v := h.popStale(deg)
		if v < 0 {
			break
		}
		// A node with deg 0 covers nothing new; it is still emitted to
		// honor the budget (arbitrary but deterministic order).
		for _, id := range c.Covering(v) {
			if setCovered[id] {
				continue
			}
			setCovered[id] = true
			totalCovered++
			for _, w := range c.Set(int(id)) {
				deg[w]--
			}
		}
		sel.Order = append(sel.Order, v)
		sel.Covered = append(sel.Covered, totalCovered)
	}
	return sel
}

// maxHeap is a binary heap over node ids keyed by (possibly stale)
// coverage degrees, implementing the CELF-style lazy greedy: a popped
// node whose key is stale is re-pushed with its fresh degree.
type maxHeap struct {
	ids  []int32
	keys []int32
}

func newMaxHeap(deg []int32) *maxHeap {
	h := &maxHeap{
		ids:  make([]int32, len(deg)),
		keys: make([]int32, len(deg)),
	}
	for i := range deg {
		h.ids[i] = int32(i)
		h.keys[i] = deg[i]
	}
	// heapify
	for i := len(h.ids)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return h
}

func (h *maxHeap) len() int { return len(h.ids) }

func (h *maxHeap) less(i, j int) bool {
	if h.keys[i] != h.keys[j] {
		return h.keys[i] > h.keys[j]
	}
	return h.ids[i] < h.ids[j] // deterministic tie-break
}

func (h *maxHeap) swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.keys[i], h.keys[j] = h.keys[j], h.keys[i]
}

func (h *maxHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h.ids) && h.less(l, best) {
			best = l
		}
		if r < len(h.ids) && h.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

func (h *maxHeap) pop() int32 {
	top := h.ids[0]
	last := len(h.ids) - 1
	h.swap(0, last)
	h.ids = h.ids[:last]
	h.keys = h.keys[:last]
	h.down(0)
	return top
}

// popStale pops the node with the maximum fresh degree, lazily re-keying
// stale entries. Returns -1 when empty.
func (h *maxHeap) popStale(deg []int32) int32 {
	for h.len() > 0 {
		topID := h.ids[0]
		if h.keys[0] == deg[topID] {
			return h.pop()
		}
		// stale: refresh key and sift down
		h.keys[0] = deg[topID]
		h.down(0)
	}
	return -1
}
