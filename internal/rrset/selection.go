package rrset

import (
	"sync"

	"uicwelfare/internal/graph"
)

// Selection is one finished greedy NodeSelection: the seed order and the
// cumulative number of covered sets at every prefix of it. Greedy picks
// one node at a time, so Order[:b] with Covered[b-1] IS the budget-b
// selection for every b <= len(Order) — the whole budget range is
// answered by prefix reads. Both slices are shared, read-only storage.
type Selection struct {
	Order []graph.NodeID
	// Covered[i] is the number of stored sets hit by Order[:i+1].
	Covered []int64
	// Sets is the collection size the counts are out of.
	Sets int
}

// Fraction returns F_R(Order), the fraction of sets the full selection
// covers (0 for an empty selection or collection).
func (s Selection) Fraction() float64 {
	if s.Sets == 0 || len(s.Covered) == 0 {
		return 0
	}
	return float64(s.Covered[len(s.Covered)-1]) / float64(s.Sets)
}

// selectionReportChunk is how many seeds Replay adds between prefix
// reports; small enough that a progress stream sees the ordering grow,
// large enough that a long selection is not one frame per seed.
const selectionReportChunk = 16

// Replay reports the order's growing prefixes — every
// selectionReportChunk seeds and once more with the full order — to
// report, which may be nil. The prefixes alias Order (capacity-clipped,
// so an append cannot write into it): callers that retain one must copy.
func (s Selection) Replay(report func(prefix []graph.NodeID)) {
	if report == nil {
		return
	}
	k := len(s.Order)
	for b := selectionReportChunk; b < k; b += selectionReportChunk {
		report(s.Order[:b:b])
	}
	if k > 0 {
		report(s.Order[:k:k])
	}
}

// SelectionMemo holds the one selection of an immutable collection: the
// first Get runs the greedy, concurrent first callers wait for it rather
// than repeating it, and every later Get is a read. The zero value is
// ready to use; a memo must not be copied after first use, and every Get
// on one memo must name the same collection and budget (the sketch types
// embed one memo beside the Col and budget it is for).
type SelectionMemo struct {
	once sync.Once
	sel  Selection
}

// Get returns c's budget-k selection, computing it on first use.
func (m *SelectionMemo) Get(c *Collection, k int) Selection {
	m.once.Do(func() { m.sel = c.Select(k) })
	return m.sel
}

// MemoBytes is what a filled SelectionMemo for budget k holds resident:
// a 4-byte node id and an 8-byte covered count per seed.
func MemoBytes(k int) int64 { return 12 * int64(k) }

// PrefixCoverage returns, for every prefix order[:i+1], the number of
// stored sets it hits — the coverage-at-prefix vector of an arbitrary
// order (Select records the same vector for the greedy order as it
// goes).
func (c *Collection) PrefixCoverage(order []graph.NodeID) []int64 {
	covered := make([]bool, c.Len())
	out := make([]int64, len(order))
	var total int64
	for i, v := range order {
		for _, id := range c.Covering(v) {
			if !covered[id] {
				covered[id] = true
				total++
			}
		}
		out[i] = total
	}
	return out
}
