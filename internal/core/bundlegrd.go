package core

import (
	"context"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/prima"
	"uicwelfare/internal/progress"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/uic"
)

// Options configures the allocation algorithms; zero values default to
// the paper's ε = 0.5, ℓ = 1.
type Options struct {
	Eps float64
	Ell float64
	// Cascade selects the diffusion model all seed selection samples
	// against (IC default, or LT). The paper's results carry over to any
	// triggering model (§5).
	Cascade graph.Cascade
	// Progress, when non-nil, receives sketch-construction events from
	// the planner as RR sampling proceeds.
	Progress progress.Func
	// SketchWorkers is the RR-set growth parallelism handed to the
	// sketch builders (prima/imm Options.Workers): sampling shards
	// across this many goroutines with deterministic per-worker RNG
	// streams. 0 or 1 keeps the legacy serial path.
	SketchWorkers int
}

// Result is an allocation plus the effort statistics the experiments
// report (Figs. 5-6, Table 6).
type Result struct {
	Alloc *uic.Allocation
	// SeedOrder is the prefix-preserving ordering bundleGRD assigned
	// from; empty for baselines that do not produce one.
	SeedOrder []graph.NodeID
	// NumRRSets is the size of the final RR-set collection(s) — the
	// memory metric of Fig. 6 / Table 6.
	NumRRSets int
	// TotalRRSets includes discarded phase-1 samples.
	TotalRRSets int
	// IMMInvocations counts how many times an IMM-family seed selection
	// ran (bundleGRD: 1 PRIMA call; item-disj: 1; bundle-disj: several).
	IMMInvocations int
}

// BundleGRD is Algorithm 1: select the top-b nodes with the
// prefix-preserving PRIMA ordering (b the maximum budget), then assign
// item i to the top-b_i prefix. By Theorem 2 the resulting allocation is
// a (1-1/e-ε)-approximation to the optimal expected social welfare with
// probability at least 1-1/n^ℓ — crucially, without ever reading the
// valuation, prices, or noise (the algorithm is parameter-free given
// mutual complementarity).
//
// Deprecated: use Plan(ctx, AlgoBundleGRD, ...) or the registered
// planner, which add cancellation and progress reporting. This wrapper
// delegates with a background context.
func BundleGRD(p *Problem, opts Options, rng *stats.RNG) Result {
	res, _ := bundleGRDPlanner{}.Plan(context.Background(), p, opts, rng) // background ctx: never canceled
	return res
}

// seedReporter adapts a progress.Func into the seed-prefix callback the
// sketch SelectReport methods take: each prefix is copied into a fresh
// int64 slice (the callback's argument aliases selection storage) and
// emitted as a StageSelect event against the selection budget. A nil
// report yields a nil callback, keeping the non-progress path free of
// per-seed overhead.
func seedReporter(report progress.Func, total int) func(prefix []graph.NodeID) {
	if report == nil {
		return nil
	}
	return func(prefix []graph.NodeID) {
		ids := make([]int64, len(prefix))
		for i, v := range prefix {
			ids[i] = int64(v)
		}
		report(progress.Event{Stage: progress.StageSelect, Done: len(prefix), Total: total, SeedPrefix: ids})
	}
}

// BundleGRDFromSketch runs bundleGRD's selection and assignment on a
// prebuilt PRIMA sketch (built for this problem's graph and budgets).
// The sketch is only read, so one cached sketch can serve many
// concurrent allocations — the fast path of the welmaxd sketch cache.
func BundleGRDFromSketch(p *Problem, sk *prima.Sketch) Result {
	return BundleGRDFromSketchProgress(p, sk, nil)
}

// BundleGRDFromSketchProgress is BundleGRDFromSketch with seed-prefix
// reporting: report (when non-nil) receives StageSelect events carrying
// growing prefixes of the sketch's ordering.
func BundleGRDFromSketchProgress(p *Problem, sk *prima.Sketch, report progress.Func) Result {
	pres := sk.SelectReport(seedReporter(report, sk.MaxBudget))
	alloc := uic.NewAllocation(p.K())
	for i, b := range p.Budgets {
		if b > len(pres.Seeds) {
			b = len(pres.Seeds)
		}
		alloc.Seeds[i] = append(alloc.Seeds[i], pres.Seeds[:b]...)
	}
	return Result{
		Alloc:          alloc,
		SeedOrder:      pres.Seeds,
		NumRRSets:      pres.NumRRSets,
		TotalRRSets:    pres.TotalRRSets,
		IMMInvocations: 1,
	}
}
