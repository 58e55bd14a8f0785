package rrset

import (
	"fmt"
	"slices"
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
// first Get runs the greedy (unless Adopt filled it first), concurrent
// first callers wait for it rather than repeating it, and every later
// Get is a read. The zero value is ready to use; a memo must not be
// copied after first use, and every Get on one memo must name the same
// collection and budget (the sketch types embed one memo beside the Col
// and budget it is for).
type SelectionMemo struct {
	once sync.Once
	sel  Selection
}

// Get returns c's budget-k selection, computing it on first use.
func (m *SelectionMemo) Get(c *Collection, k int) Selection {
	m.once.Do(func() { m.sel = c.Select(k) })
	return m.sel
}

// Adopt fills an empty memo with a selection computed elsewhere — a
// persisted one the caller has already checked (CheckSelection) — so
// the first Get is a read. It loses to a memo already filled, by Get or
// an earlier Adopt, and reports whether it took.
func (m *SelectionMemo) Adopt(sel Selection) bool {
	adopted := false
	m.once.Do(func() { m.sel, adopted = sel, true })
	return adopted
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

// CheckSelection reports whether sel is what Select(k) on c could have
// produced: min(k, n) distinct in-range seeds, a covered-count vector
// equal to PrefixCoverage of the order, and the exact-greedy shape of
// max-coverage — the first marginal gain is the maximum node degree and
// no later gain exceeds an earlier one. It is the gate a persisted
// selection passes before a sketch adopts it in place of running the
// greedy; all of it costs one walk of the seeds' index lists.
func (c *Collection) CheckSelection(sel Selection, k int) error {
	n := c.N()
	if want := min(k, n); len(sel.Order) != want || len(sel.Covered) != want {
		return fmt.Errorf("rrset: selection of %d seeds (%d counts) for budget %d over %d nodes",
			len(sel.Order), len(sel.Covered), k, n)
	}
	if sel.Sets != c.Len() {
		return fmt.Errorf("rrset: selection counts out of %d sets, collection holds %d", sel.Sets, c.Len())
	}
	seen := make([]bool, n)
	for i, v := range sel.Order {
		if v < 0 || int(v) >= n || seen[v] {
			return fmt.Errorf("rrset: seed %d (%d) repeated or out of range [0, %d)", i, v, n)
		}
		seen[v] = true
	}
	if !slices.Equal(c.PrefixCoverage(sel.Order), sel.Covered) {
		return fmt.Errorf("rrset: covered counts disagree with the order's prefix coverage")
	}
	var maxDeg int64
	for v := 0; v < n; v++ {
		maxDeg = max(maxDeg, c.coverIdx[v+1]-c.coverIdx[v])
	}
	prevGain, prevCovered := maxDeg, int64(0)
	for i, covered := range sel.Covered {
		gain := covered - prevCovered
		if (i == 0 && gain != maxDeg) || gain > prevGain {
			return fmt.Errorf("rrset: seed %d gains %d sets after a gain of %d: not a greedy order", i, gain, prevGain)
		}
		prevGain, prevCovered = gain, covered
	}
	return nil
}
