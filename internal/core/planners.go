package core

import (
	"context"
	"fmt"
	"math"

	"uicwelfare/internal/imm"
	"uicwelfare/internal/prima"
	"uicwelfare/internal/progress"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
)

// The built-in planners self-register so every dispatcher (service,
// CLIs, experiment drivers) sees one consistent algorithm list.
func init() {
	bothCascades := []string{CascadeNameIC, CascadeNameLT}
	Register(AlgoBundleGRD, Meta{
		Description:   "Algorithm 1: (1-1/e-ε)-approximate greedy allocation on the prefix-preserving PRIMA ordering",
		SketchFamily:  prima.Family,
		Cascades:      bothCascades,
		CostEstimator: primaCostEstimate,
	}, func() Planner { return bundleGRDPlanner{} })
	Register(AlgoItemDisjoint, Meta{
		Description:   "item-disj baseline (§4.3.1.2): one IMM call, disjoint seeds, one item per seed node",
		SketchFamily:  imm.Family,
		Cascades:      bothCascades,
		CostEstimator: totalBudgetCostEstimate,
	}, func() Planner { return itemDisjointPlanner{} })
	Register(AlgoBundleDisjoint, Meta{
		Description:   "bundle-disj baseline (§4.3.1.2): greedy bundling with fresh IMM seeds per bundle",
		Cascades:      bothCascades,
		CostEstimator: totalBudgetCostEstimate,
	}, func() Planner { return bundleDisjointPlanner{} })
}

// sketchOptions translates allocator options for the sketch builders.
func sketchOptions(opts Options) rrset.Options {
	return rrset.Options{Eps: opts.Eps, Ell: opts.Ell, Cascade: opts.Cascade, Progress: opts.Progress, Workers: opts.SketchWorkers, Phase1Stream: opts.Phase1Stream}
}

// checkFamily refuses a sketch of another family than the planner's.
// Both families build the same Go type, and sketches arrive from disk
// and over WMSSTRM under cache keys a peer chose, so an IMM order
// imported under a PRIMA key must not be read as a prefix-preserving one.
func checkFamily(algo, family string, sk *rrset.Sketch) error {
	if sk.Family != family {
		return fmt.Errorf("core: %s expects a %s sketch, got family %q", algo, family, sk.Family)
	}
	return nil
}

// bundleGRDPlanner adapts bundleGRD to the registry. The sketch seam is
// PRIMA: one prefix-preserving sketch serves every budget prefix.
type bundleGRDPlanner struct{}

func (bundleGRDPlanner) Plan(ctx context.Context, p *Problem, opts Options, rng *stats.RNG) (Result, error) {
	sk, err := prima.BuildSketchCtx(ctx, p.G, p.Budgets, sketchOptions(opts), rng)
	if err != nil {
		return Result{}, err
	}
	return bundleGRD(p, sk, nil), nil
}

func (bundleGRDPlanner) SketchBudgets(p *Problem) []int {
	return prima.CanonicalBudgets(p.Budgets, p.G.N())
}

func (pl bundleGRDPlanner) PlanFromSketch(p *Problem, sk *rrset.Sketch) (Result, error) {
	return pl.PlanFromSketchProgress(p, sk, nil)
}

func (bundleGRDPlanner) PlanFromSketchProgress(p *Problem, sk *rrset.Sketch, report progress.Func) (Result, error) {
	if err := checkFamily(AlgoBundleGRD, prima.Family, sk); err != nil {
		return Result{}, err
	}
	return bundleGRD(p, sk, report), nil
}

// MergeBudgets unions two canonical PRIMA budget vectors: a sketch
// sized for the union carries the prefix-preserving guarantee for every
// budget in either input (the union bound over |b| budgets only grows
// by log|b|/log n in ℓ'). Inputs are already clamped to [1, n], so no
// further clamping is needed.
func (bundleGRDPlanner) MergeBudgets(a, b []int) []int {
	return prima.CanonicalBudgets(append(append([]int(nil), a...), b...), math.MaxInt)
}

// BuildSketchForBudgets builds the PRIMA sketch for an explicit merged
// budget vector (the batch scheduler's dominating build).
func (bundleGRDPlanner) BuildSketchForBudgets(ctx context.Context, p *Problem, budgets []int, opts Options, rng *stats.RNG) (*rrset.Sketch, error) {
	return prima.BuildSketchCtx(ctx, p.G, budgets, sketchOptions(opts), rng)
}

// ExtendSketch grows a resident PRIMA sketch into one serving budgets
// (the sketch resolver's delta-build seam).
func (bundleGRDPlanner) ExtendSketch(ctx context.Context, p *Problem, sk *rrset.Sketch, budgets []int, opts Options, rng *stats.RNG) (*rrset.Sketch, error) {
	if err := checkFamily(AlgoBundleGRD, prima.Family, sk); err != nil {
		return nil, err
	}
	esk, _, err := prima.ExtendSketchLB(ctx, p.G, sk, budgets, sketchOptions(opts), rng)
	return esk, err
}

// itemDisjointPlanner adapts itemDisjoint to the registry. The sketch
// seam is IMM sized for the total budget.
type itemDisjointPlanner struct{}

func (itemDisjointPlanner) Plan(ctx context.Context, p *Problem, opts Options, rng *stats.RNG) (Result, error) {
	sk, err := imm.BuildSketchCtx(ctx, p.G, p.TotalBudget(), sketchOptions(opts), rng)
	if err != nil {
		return Result{}, err
	}
	return itemDisjoint(p, sk, nil), nil
}

func (itemDisjointPlanner) SketchBudgets(p *Problem) []int {
	return []int{p.TotalBudget()}
}

func (pl itemDisjointPlanner) PlanFromSketch(p *Problem, sk *rrset.Sketch) (Result, error) {
	return pl.PlanFromSketchProgress(p, sk, nil)
}

func (itemDisjointPlanner) PlanFromSketchProgress(p *Problem, sk *rrset.Sketch, report progress.Func) (Result, error) {
	if err := checkFamily(AlgoItemDisjoint, imm.Family, sk); err != nil {
		return Result{}, err
	}
	return itemDisjoint(p, sk, report), nil
}

// MergeBudgets takes the larger of two IMM total budgets: the greedy
// ordering selected for max(k_a, k_b) is prefix-consistent, so its
// first k' nodes are exactly what a k'-sized selection on the same
// collection would return.
func (itemDisjointPlanner) MergeBudgets(a, b []int) []int {
	ka, kb := 0, 0
	if len(a) > 0 {
		ka = a[0]
	}
	if len(b) > 0 {
		kb = b[0]
	}
	return []int{max(ka, kb)}
}

// BuildSketchForBudgets builds the IMM sketch for an explicit merged
// total budget (the batch scheduler's dominating build).
func (itemDisjointPlanner) BuildSketchForBudgets(ctx context.Context, p *Problem, budgets []int, opts Options, rng *stats.RNG) (*rrset.Sketch, error) {
	k := 0
	if len(budgets) > 0 {
		k = budgets[0]
	}
	return imm.BuildSketchCtx(ctx, p.G, k, sketchOptions(opts), rng)
}

// ExtendSketch grows a resident IMM sketch to serve the merged total
// budget (the sketch resolver's delta-build seam).
func (itemDisjointPlanner) ExtendSketch(ctx context.Context, p *Problem, sk *rrset.Sketch, budgets []int, opts Options, rng *stats.RNG) (*rrset.Sketch, error) {
	if err := checkFamily(AlgoItemDisjoint, imm.Family, sk); err != nil {
		return nil, err
	}
	k := 0
	if len(budgets) > 0 {
		k = budgets[0]
	}
	return imm.ExtendSketchCtx(ctx, p.G, sk, k, sketchOptions(opts), rng)
}

// bundleDisjointPlanner adapts bundleDisjoint. Its adaptive sequence of
// IMM calls depends on intermediate results, so there is no reusable
// sketch — it is a plain Planner.
type bundleDisjointPlanner struct{}

func (bundleDisjointPlanner) Plan(ctx context.Context, p *Problem, opts Options, rng *stats.RNG) (Result, error) {
	return bundleDisjoint(ctx, p, opts, rng)
}
