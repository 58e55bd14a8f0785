package rrset

import (
	"fmt"
	"sync"
	"sync/atomic"

	"uicwelfare/internal/graph"
)

// Collection stores a growing multiset of RR sets together with the
// inverted node -> set index needed by NodeSelection. Sets and index are
// both flat arrays (CSR): no per-set or per-node allocation. The index
// is built on its first read (Covering, Select, CoverageOf), not by the
// operations that change the sets, so a collection whose selection was
// adopted from disk never builds it.
//
// Concurrency: GrowParallelCtx, Reset and ReleaseScratch mutate the
// collection and must be serialized by the caller. Once growing stops,
// the read-only surface (Len, TotalSize, Set, Covering, CoverageOf,
// FractionCovered, NodeSelection — which allocates all of its scratch
// state locally) is safe for any number of concurrent readers: the first
// index read builds the index under a mutex, exactly once, and every
// other reader waits for it. The IMM/PRIMA sketch caches build a
// collection once and then share it read-only across request
// goroutines.
type Collection struct {
	g *graph.Graph

	// flattened set storage
	members []graph.NodeID
	offsets []int64 // set i occupies members[offsets[i]:offsets[i+1]]

	// inverted index in CSR form: the ids of the sets containing node v,
	// ascending, are coverIDs[coverIdx[v]:coverIdx[v+1]]. Built by one
	// counting pass over members (buildIndex) on the first read after the
	// sets last changed; indexed reports whether it describes the current
	// sets, and indexMu serializes the build.
	indexMu  sync.Mutex
	indexed  atomic.Bool
	coverIdx []int64
	coverIDs []int32

	// sampler is the template the grow workers copy their cascade and
	// node coin from (Sampler); it never samples itself.
	sampler *Sampler

	// Grow state (see GrowParallelCtx): pooled per-worker samplers
	// reused across adaptive rounds, and the width statistic of every
	// stored set.
	samplers []*Sampler
	edges    int64
}

// NewCollection returns an empty collection for g.
func NewCollection(g *graph.Graph) *Collection {
	return &Collection{
		g:       g,
		offsets: []int64{0},
		sampler: NewSampler(g),
	}
}

// index returns the inverted index, building it first if the sets
// changed since it was last built. Concurrent first readers build it
// once: the loser of the mutex finds it built.
func (c *Collection) index() (idx []int64, ids []int32) {
	if !c.indexed.Load() {
		c.indexMu.Lock()
		if !c.indexed.Load() {
			c.buildIndex()
			c.indexed.Store(true)
		}
		c.indexMu.Unlock()
	}
	return c.coverIdx, c.coverIDs
}

// buildIndex rebuilds the inverted index from members/offsets by
// counting sort: count each node's memberships, prefix-sum the counts
// into list starts, then scan the sets in id order dropping each id at
// its node's cursor — so every list comes out ascending. The cursors
// are the coverIdx entries themselves, shifted back afterwards. The
// arrays of a stale index are reused when large enough.
func (c *Collection) buildIndex() {
	if len(c.coverIdx) != c.g.N()+1 {
		c.coverIdx = make([]int64, c.g.N()+1)
	}
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

// Sampler exposes the template sampler so callers can set the cascade
// and node coin every later grow samples under.
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
// as returned by Members and Offsets. The inputs are validated — a
// malformed pair (e.g. from a corrupt sketch file) returns an error
// rather than a collection that would misbehave under NodeSelection —
// and nothing else is done: the inverted index waits for its first read,
// which a sketch that adopts its persisted selection never makes. The
// slices are retained; callers must not modify them afterwards. The
// restored collection is immediately usable read-only (the sketch-cache
// contract); growing it further is also legal.
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
	return c, nil
}

// N returns the node count of the underlying graph.
func (c *Collection) N() int { return c.g.N() }

// Len returns the number of RR sets stored.
func (c *Collection) Len() int { return len(c.offsets) - 1 }

// TotalSize returns the total number of node memberships across all sets.
func (c *Collection) TotalSize() int64 { return int64(len(c.members)) }

// EdgesVisited returns the cumulative width statistic of every set the
// collection's grows added (carried over by Clone).
func (c *Collection) EdgesVisited() int64 { return c.edges }

// ResidentBytes is what the stored sets and their index occupy: every
// membership once in the flat set storage and once in the index (4
// bytes each), 8 bytes per set boundary, 8 per node for the index's
// list starts. The index is priced as built whether or not it is yet,
// so a cached entry's cost never changes when a first read builds it.
// Sampling scratch is not counted — sketch builders release it
// (ReleaseScratch) before a collection becomes resident.
func (c *Collection) ResidentBytes() int64 {
	return 8*int64(len(c.members)) + 8*int64(len(c.offsets)) + 8*int64(c.g.N()+1)
}

// ReleaseScratch drops the n-sized sampling scratch (the pooled
// per-worker samplers' visited arrays) once growth is over, so a
// collection kept resident holds only its sets and index. Growing it
// again is legal; the scratch is re-allocated then.
func (c *Collection) ReleaseScratch() { c.samplers = nil }

// Set returns the members of set i.
func (c *Collection) Set(i int) []graph.NodeID {
	return c.members[c.offsets[i]:c.offsets[i+1]]
}

// Covering returns the ids of the stored sets containing v, building
// the index if this is its first read. The slice aliases internal
// storage and must not be modified.
func (c *Collection) Covering(v graph.NodeID) []int32 {
	idx, ids := c.index()
	return ids[idx[v]:idx[v+1]]
}

// Reset drops all stored sets and their storage, index included (the
// next index read builds an empty one). PRIMA and IMM use this for their
// final from-scratch regeneration, which is usually larger than the
// adaptive collection: kept, the old arrays would stay live beside the
// ones the regeneration allocates.
func (c *Collection) Reset() {
	c.members, c.offsets, c.coverIDs = nil, []int64{0}, nil
	c.indexed.Store(false)
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
	idx, _ := c.index()
	deg := make([]int32, n)
	for v := 0; v < n; v++ {
		deg[v] = int32(idx[v+1] - idx[v])
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
