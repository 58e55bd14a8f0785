package rrset

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

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
// collection and budget (Sketch embeds one memo beside the Col and
// budget it is for).
type SelectionMemo struct {
	once   sync.Once
	filled atomic.Bool
	sel    Selection
}

// Get returns c's budget-k selection, computing it on first use.
func (m *SelectionMemo) Get(c *Collection, k int) Selection {
	m.once.Do(func() { m.sel = c.Select(k); m.filled.Store(true) })
	return m.sel
}

// Adopt fills an empty memo with a selection computed elsewhere — a
// persisted one the caller has already checked (CheckSelection) — so
// the first Get is a read. It loses to a memo already filled, by Get or
// an earlier Adopt, and reports whether it took.
func (m *SelectionMemo) Adopt(sel Selection) bool {
	adopted := false
	m.once.Do(func() { m.sel, adopted = sel, true; m.filled.Store(true) })
	return adopted
}

// MemoBytes is what a filled SelectionMemo for budget k holds resident:
// a 4-byte node id and an 8-byte covered count per seed.
func MemoBytes(k int) int64 { return 12 * int64(k) }

// PrefixCoverage returns, for every prefix order[:i+1], the number of
// stored sets it hits — the coverage-at-prefix vector of an arbitrary
// order (Select records the same vector for the greedy order as it
// goes). It reads no index.
func (c *Collection) PrefixCoverage(order []graph.NodeID) []int64 {
	covered, _, _ := c.prefixCoverage(order)
	return covered
}

// prefixCoverage makes one pass over the stored sets, without the index:
// it counts every node's memberships (deg, its degree) and finds the
// earliest position of order in each set, whose histogram's running sums
// are covered, the number of sets order[:i+1] hits for every i. A node
// repeated in order keeps its first position, so its repeats hit
// nothing new; distinct reports whether order repeats none. Every id in
// order must lie in [0, n).
func (c *Collection) prefixCoverage(order []graph.NodeID) (covered []int64, deg []int32, distinct bool) {
	n := c.N()
	// pos[v] is v's position in the order; notSeed marks every other
	// node and, as a set's minimum, a set no seed covers.
	notSeed := int32(len(order))
	pos := make([]int32, n)
	for v := range pos {
		pos[v] = notSeed
	}
	distinct = true
	for i, v := range order {
		if pos[v] != notSeed {
			distinct = false
			continue
		}
		pos[v] = int32(i)
	}
	deg = make([]int32, n)
	firstHit := make([]int64, len(order)+1)
	for i := 0; i < c.Len(); i++ {
		first := notSeed
		for _, v := range c.Set(i) {
			deg[v]++
			// first = min(first, pos[v]) without a branch (both lie in
			// [0, notSeed], so d cannot overflow): the compiler keeps a
			// loop-carried min as a compare-and-jump, which mispredicts
			// often enough to slow the whole decode.
			d := pos[v] - first
			first += d & (d >> 31)
		}
		firstHit[first]++
	}
	for i := 1; i < len(firstHit); i++ {
		firstHit[i] += firstHit[i-1]
	}
	return firstHit[:len(order)], deg, distinct
}

// CheckSelection reports whether sel is what Select(k) on c could have
// produced: min(k, n) distinct in-range seeds, a covered-count vector
// equal to PrefixCoverage of the order, and the exact-greedy shape of
// max-coverage — the first marginal gain is the maximum node degree and
// no later gain exceeds an earlier one. It is the gate a persisted
// selection passes before a sketch adopts it in place of running the
// greedy, and it reads no index: prefixCoverage's one pass over the
// stored sets yields both the prefix coverage and the degrees.
func (c *Collection) CheckSelection(sel Selection, k int) error {
	n := c.N()
	if want := min(k, n); len(sel.Order) != want || len(sel.Covered) != want {
		return fmt.Errorf("rrset: selection of %d seeds (%d counts) for budget %d over %d nodes",
			len(sel.Order), len(sel.Covered), k, n)
	}
	if sel.Sets != c.Len() {
		return fmt.Errorf("rrset: selection counts out of %d sets, collection holds %d", sel.Sets, c.Len())
	}
	for i, v := range sel.Order {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("rrset: seed %d (%d) out of range [0, %d)", i, v, n)
		}
	}
	prefix, deg, distinct := c.prefixCoverage(sel.Order)
	if !distinct {
		return fmt.Errorf("rrset: selection repeats a seed")
	}
	if !slices.Equal(prefix, sel.Covered) {
		return fmt.Errorf("rrset: covered counts disagree with the order's prefix coverage")
	}
	var maxDeg int64
	for _, d := range deg {
		maxDeg = max(maxDeg, int64(d))
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
