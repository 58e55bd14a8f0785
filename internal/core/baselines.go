package core

import (
	"context"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/imm"
	"uicwelfare/internal/itemset"
	"uicwelfare/internal/progress"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/uic"
)

// ItemDisjoint is the item-disj baseline of §4.3.1.2: select Σ_i b_i
// seeds with one IMM call, then walk items in non-increasing budget
// order, assigning each item the next b_i unused nodes. Every seed node
// carries exactly one item, so the baseline cannot exploit
// supermodularity at the seeds — it relies purely on propagation.
//
// Deprecated: use Plan(ctx, AlgoItemDisjoint, ...) or the registered
// planner, which add cancellation and progress reporting. This wrapper
// delegates with a background context.
func ItemDisjoint(p *Problem, opts Options, rng *stats.RNG) Result {
	res, _ := itemDisjointPlanner{}.Plan(context.Background(), p, opts, rng) // background ctx: never canceled
	return res
}

// ItemDisjointFromSketch runs the item-disj assignment on a prebuilt IMM
// sketch (built for this problem's graph with k = Σ_i b_i). The sketch
// is only read, so one cached sketch can serve many concurrent
// allocations.
func ItemDisjointFromSketch(p *Problem, sk *imm.Sketch) Result {
	return ItemDisjointFromSketchProgress(p, sk, nil)
}

// ItemDisjointFromSketchProgress is ItemDisjointFromSketch with
// seed-prefix reporting: report (when non-nil) receives StageSelect
// events carrying growing prefixes of the sketch's ordering.
func ItemDisjointFromSketchProgress(p *Problem, sk *imm.Sketch, report progress.Func) Result {
	alloc := uic.NewAllocation(p.K())
	if p.TotalBudget() == 0 {
		return Result{Alloc: alloc}
	}
	res := sk.SelectReport(seedReporter(report, sk.K))
	pool := res.Seeds
	pos := 0
	for _, i := range p.BudgetOrder() {
		take := min(p.Budgets[i], len(pool)-pos)
		alloc.Seeds[i] = append(alloc.Seeds[i], pool[pos:pos+take]...)
		pos += take
	}
	return Result{
		Alloc:          alloc,
		NumRRSets:      res.NumRRSets,
		TotalRRSets:    res.TotalRRSets,
		IMMInvocations: 1,
	}
}

// bundleDisjBundle is one bundle found by BundleDisjoint: an itemset with
// non-negative deterministic utility and the fresh seed nodes assigned to
// it.
type bundleDisjBundle struct {
	items itemset.Set
	seeds []graph.NodeID
}

// BundleDisjoint is the bundle-disj baseline of §4.3.1.2: repeatedly find
// the minimum-sized itemset with non-negative deterministic utility among
// the remaining budgets, allocate it to a fresh set of min-budget seed
// nodes (a new IMM selection each time), deduct budgets, and finally
// recycle surplus budgets onto existing bundles (or fresh IMM seeds).
// It exploits supermodularity through bundling but pays for repeated IMM
// invocations and cannot interleave budgets the way the prefix ordering
// does.
//
// Deprecated: use Plan(ctx, AlgoBundleDisjoint, ...) or
// BundleDisjointCtx, which add cancellation and progress reporting.
// This wrapper delegates with a background context.
func BundleDisjoint(p *Problem, opts Options, rng *stats.RNG) Result {
	res, _ := BundleDisjointCtx(context.Background(), p, opts, rng) // background ctx: never canceled
	return res
}

// BundleDisjointCtx is BundleDisjoint with cooperative cancellation and
// progress reporting: each of the adaptive sequence of IMM selections
// checks ctx while sampling, so a canceled context stops the run
// promptly with ctx.Err().
func BundleDisjointCtx(ctx context.Context, p *Problem, opts Options, rng *stats.RNG) (Result, error) {
	k := p.K()
	alloc := uic.NewAllocation(k)
	remaining := make([]int, k)
	copy(remaining, p.Budgets)

	immOpts := immOptions(opts)
	var (
		bundles  []bundleDisjBundle
		used     = map[graph.NodeID]bool{}
		usedList []graph.NodeID
		rrSets   int
		rrTotal  int
		immCalls int
	)

	// freshSeeds returns `want` highest-ranked nodes not used by earlier
	// bundles, running IMM with an enlarged budget to skip used ones.
	freshSeeds := func(want int) ([]graph.NodeID, error) {
		if want <= 0 {
			return nil, nil
		}
		need := want + len(usedList)
		if need > p.G.N() {
			need = p.G.N()
		}
		res, err := imm.RunCtx(ctx, p.G, need, immOpts, rng)
		if err != nil {
			return nil, err
		}
		immCalls++
		rrSets += res.NumRRSets
		rrTotal += res.TotalRRSets
		var out []graph.NodeID
		for _, v := range res.Seeds {
			if used[v] {
				continue
			}
			out = append(out, v)
			if len(out) == want {
				break
			}
		}
		for _, v := range out {
			used[v] = true
			usedList = append(usedList, v)
		}
		return out, nil
	}

	// Phase 1: carve out bundles while a non-negative-utility itemset
	// exists among items with remaining budget.
	for {
		b := minimalNonNegativeBundle(p, remaining)
		if b.IsEmpty() {
			break
		}
		bb := -1
		for _, i := range b.Items() {
			if bb < 0 || remaining[i] < bb {
				bb = remaining[i]
			}
		}
		seeds, err := freshSeeds(bb)
		if err != nil {
			return Result{}, err
		}
		for _, i := range b.Items() {
			for _, v := range seeds {
				alloc.Assign(v, i)
			}
			remaining[i] -= len(seeds)
		}
		bundles = append(bundles, bundleDisjBundle{items: b, seeds: seeds})
		if len(seeds) == 0 {
			break // graph exhausted
		}
	}

	// Phase 2: recycle surplus budgets onto existing bundles that do not
	// contain the item, then fall back to fresh IMM seeds.
	for _, i := range p.BudgetOrder() {
		for _, b := range bundles {
			if remaining[i] == 0 {
				break
			}
			if b.items.Has(i) {
				continue
			}
			take := remaining[i]
			if take > len(b.seeds) {
				take = len(b.seeds)
			}
			for _, v := range b.seeds[:take] {
				alloc.Assign(v, i)
			}
			remaining[i] -= take
		}
		if remaining[i] > 0 {
			seeds, err := freshSeeds(remaining[i])
			if err != nil {
				return Result{}, err
			}
			for _, v := range seeds {
				alloc.Assign(v, i)
			}
			remaining[i] -= len(seeds)
		}
	}

	return Result{
		Alloc:          alloc,
		NumRRSets:      rrSets,
		TotalRRSets:    rrTotal,
		IMMInvocations: immCalls,
	}, nil
}

// minimalNonNegativeBundle returns the smallest itemset (ties broken by
// precedence order, i.e. numeric mask order with items pre-sorted by
// budget) with non-negative deterministic utility among items that still
// have budget. Returns the empty set if none exists.
func minimalNonNegativeBundle(p *Problem, remaining []int) itemset.Set {
	// candidate items in non-increasing budget order
	var avail []int
	for _, i := range p.BudgetOrder() {
		if remaining[i] > 0 {
			avail = append(avail, i)
		}
	}
	kk := len(avail)
	best := itemset.Empty
	bestSize := 0
	for mask := 1; mask < 1<<uint(kk); mask++ {
		var s itemset.Set
		for j := 0; j < kk; j++ {
			if mask&(1<<uint(j)) != 0 {
				s = s.Add(avail[j])
			}
		}
		if p.Model.DetUtility(s) >= 0 {
			if best.IsEmpty() || s.Size() < bestSize {
				best, bestSize = s, s.Size()
			}
		}
	}
	return best
}
