package core

import (
	"math"

	"uicwelfare/internal/prima"
)

// costFloor mirrors store.SketchCost's floor: even a degenerate sketch
// (empty instance, or budgets covering the whole graph) holds a little
// bookkeeping.
const costFloor = 256

// rrBytes converts a predicted RR-set count into predicted resident
// bytes with store.SketchCost's accounting: 8 bytes per RR membership,
// 8 per RR set and 8 per node for the inverted index's list starts,
// with the average RR-set width approximated by
// 1 + m/n — under the weighted-cascade convention each node's incoming
// probabilities sum to 1, so a reverse-reachable walk adds about one
// node per step and the density ratio is the cheap upper-ish proxy for
// its depth. SketchCost's 12 bytes per seed for the memoised selection
// are not modelled: they vanish in this bound's slack, and what is left
// of them the observed-ratio calibration absorbs.
func rrBytes(nodes, edges int, theta float64) int64 {
	if theta <= 0 {
		return costFloor
	}
	width := 1.0
	if nodes > 0 {
		width += float64(edges) / float64(nodes)
	}
	bytes := theta*(8*width+8) + 8*float64(nodes)
	if bytes >= math.MaxInt64-costFloor {
		return math.MaxInt64
	}
	return costFloor + int64(bytes)
}

// primaCostEstimate prices a PRIMA sketch build: the worst-case phase-2
// RR-set count max_k λ*(n, k, ε, ℓ')/k over the canonical budgets
// (OPT_k ≥ k is the only lower bound available without sampling),
// converted to bytes. Deliberately pessimistic — real adaptive runs
// find a much larger lower bound — which is why admission control runs
// the result through store.CostModel's observed-ratio calibration.
func primaCostEstimate(nodes, edges int, eps, ell float64, budgets []int) int64 {
	bs := prima.CanonicalBudgets(budgets, nodes)
	if nodes == 0 || len(bs) == 0 || bs[0] >= nodes {
		// bs[0] >= nodes mirrors prima.BuildSketchCtx exactly: when the
		// top budget covers the whole graph the builder short-circuits to
		// the degenerate all-nodes sketch and samples NOTHING — including
		// for the smaller budgets — so the floor is the true cost, not an
		// admission bypass.
		return costFloor
	}
	ellPrime := prima.EllPrime(ell, nodes, len(bs))
	theta := 0.0
	for _, k := range bs {
		if t := prima.LambdaStar(nodes, k, eps, ellPrime) / float64(k); t > theta {
			theta = t
		}
	}
	return rrBytes(nodes, edges, theta)
}

// totalBudgetCostEstimate prices item-disj's and bundle-disj's builds:
// IMM at k = Σ budgets, which is PRIMA at [k]. bundle-disj's adaptive
// sequence of IMM selections holds one collection resident at a time,
// so the largest single build is the right admission price.
func totalBudgetCostEstimate(nodes, edges int, eps, ell float64, budgets []int) int64 {
	k := 0
	for _, b := range budgets {
		k += b
	}
	return primaCostEstimate(nodes, edges, eps, ell, []int{k})
}
