package core

import (
	"context"
	"fmt"
	"sync"

	"uicwelfare/internal/progress"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
)

// Canonical algorithm names — the registry keys. The service DTOs, the
// CLI flags, and the experiment drivers all spell algorithm names
// through these constants so they cannot drift.
const (
	AlgoBundleGRD      = "bundleGRD"
	AlgoItemDisjoint   = "item-disj"
	AlgoBundleDisjoint = "bundle-disj"

	// DefaultAlgorithm is what an empty algorithm name resolves to.
	DefaultAlgorithm = AlgoBundleGRD
)

// Cascade support labels used in Meta.Cascades.
const (
	CascadeNameIC = "ic"
	CascadeNameLT = "lt"
)

// CostEstimator predicts the approximate resident bytes of the sketch
// work a request would trigger — the same accounting store.SketchCost
// applies to a built sketch (8 bytes per RR membership plus 8 per RR
// set) evaluated on the sampling bounds instead of on a finished
// collection. It is the pricing seam of the service's admission control:
// the daemon calls it with the graph's node and edge counts, the
// resolved ε and ℓ (defaults already applied), and the request's raw
// budget vector, and compares the (calibrated) prediction against its
// admission budget before queueing the request. Estimates derive from
// the worst-case phase-2 bound λ*/k, so they overshoot real builds by a
// roughly constant factor — the sketch resolver corrects the bias with
// store.CostModel, which tracks the observed predicted-to-actual ratio.
type CostEstimator func(nodes, edges int, eps, ell float64, budgets []int) int64

// Meta describes a registered planner: its registry name and the
// capability flags GET /v1/algorithms reports.
type Meta struct {
	// Name is the registry key (set by Register).
	Name string
	// Description is a one-line summary for listings.
	Description string
	// SketchFamily names the reusable RR-sketch kind the planner
	// consumes ("prima", "imm"); empty when the planner cannot separate
	// sketch construction from selection (and so cannot use a sketch
	// cache).
	SketchFamily string
	// Cascades lists the diffusion models the planner supports.
	Cascades []string
	// CostEstimator, when non-nil, prices a request's sketch work for
	// admission control. Planners without one are unpriceable and bypass
	// admission.
	CostEstimator CostEstimator
}

// SketchCacheable reports whether the planner's dominant cost is a
// reusable sketch a cache can amortize.
func (m Meta) SketchCacheable() bool { return m.SketchFamily != "" }

// Planner is one allocation algorithm behind the uniform context-aware
// call convention. Plan must honor ctx cancellation (returning ctx.Err()
// promptly) and report through opts.Progress when set.
type Planner interface {
	Plan(ctx context.Context, p *Problem, opts Options, rng *stats.RNG) (Result, error)
}

// SketchPlanner is the capability of planners whose dominant cost is
// building one immutable RR sketch, and the only sketch seam: the
// sketch resolver (internal/resolve) splits Plan into a sketch build
// (cached, shared read-only across goroutines) and PlanFromSketch
// (cheap, per request).
// A sketch built for one canonical budget vector serves every request
// whose budgets that vector dominates — PRIMA's prefix-preserving
// guarantee covers every budget in the vector it was sized for, and an
// IMM greedy ordering selected for k is prefix-consistent for any
// k' ≤ k — which is what lets the resolver's batch scheduler coalesce
// concurrent mixed-budget requests onto one build.
type SketchPlanner interface {
	Planner
	// SketchBudgets returns the canonical budget vector identifying the
	// sketch Plan would build for p — cache-key material alongside
	// Meta.SketchFamily. BuildSketchForBudgets(p, SketchBudgets(p)) builds
	// the same sketch Plan does from the same RNG.
	SketchBudgets(p *Problem) []int
	// MergeBudgets merges two canonical sketch-budget vectors into the
	// canonical vector whose sketch serves any request served by either.
	// It must be commutative, associative, and idempotent; the batch
	// scheduler folds a whole group's budgets through it.
	MergeBudgets(a, b []int) []int
	// BuildSketchForBudgets builds the family sketch, whose Family is the
	// planner's Meta.SketchFamily, sized for an explicit canonical budget
	// vector on p's graph — p's own budgets are ignored, which is what
	// lets a batch build dominate several requests at once.
	BuildSketchForBudgets(ctx context.Context, p *Problem, budgets []int, opts Options, rng *stats.RNG) (*rrset.Sketch, error)
	// ExtendSketch grows sketch — resident, of the same (graph, family,
	// cascade, ε, ℓ, seed) group — into one serving budgets, at the
	// marginal sampling cost: the request's own θ rule runs, and its
	// final collection is sketch's grown to θ (prima.ExtendSketchLB), so
	// on a built sketch the result is the fresh build's. The input
	// sketch is never mutated (growth happens on a clone), so concurrent
	// readers of the resident sketch are safe. Sketches with no
	// collection to append to return an error (rrset.ErrNotExtendable);
	// callers fall back to a cold build.
	ExtendSketch(ctx context.Context, p *Problem, sketch *rrset.Sketch, budgets []int, opts Options, rng *stats.RNG) (*rrset.Sketch, error)
	// PlanFromSketch runs selection and assignment on a prebuilt sketch,
	// refusing one of another family. It only reads the sketch, so one
	// cached sketch can serve many concurrent calls.
	PlanFromSketch(p *Problem, sketch *rrset.Sketch) (Result, error)
	// PlanFromSketchProgress is PlanFromSketch with a progress callback
	// (nil allowed) receiving StageSelect events whose SeedPrefix is the
	// ordering committed so far; the welmaxd job stream forwards them to
	// SSE subscribers.
	PlanFromSketchProgress(p *Problem, sketch *rrset.Sketch, report progress.Func) (Result, error)
}

// The benchmark module still spells SketchPlanner by its batch-era name;
// this alias is the only place that name exists.
type BatchSketchPlanner = SketchPlanner

// Factory builds a fresh planner instance. Lookup invokes it per
// resolution, so stateful planners get one instance per run; Register
// additionally probes it once at registration time to validate the
// SketchPlanner capability against the declared meta.
type Factory func() Planner

type registration struct {
	meta    Meta
	factory Factory
}

var (
	regMu    sync.RWMutex
	registry = map[string]registration{}
	regOrder []string
)

// Register adds a planner under name. The built-in algorithms
// self-register at package init; extensions (alternative objectives,
// fairness variants, test doubles) register the same way. It panics on
// an empty name, a duplicate, a nil factory, or a sketch-capable planner
// whose meta does not name its sketch family — registration bugs, not
// runtime conditions.
func Register(name string, meta Meta, factory Factory) {
	if name == "" {
		panic("core: Register with empty algorithm name")
	}
	if factory == nil {
		panic("core: Register " + name + " with nil factory")
	}
	if _, ok := factory().(SketchPlanner); ok && meta.SketchFamily == "" {
		panic("core: Register " + name + ": SketchPlanner without a SketchFamily")
	}
	meta.Name = name
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("core: duplicate algorithm registration " + name)
	}
	registry[name] = registration{meta: meta, factory: factory}
	regOrder = append(regOrder, name)
}

// Lookup resolves an algorithm name (empty resolves to
// DefaultAlgorithm) to a fresh planner instance and its metadata.
func Lookup(name string) (Planner, Meta, error) {
	if name == "" {
		name = DefaultAlgorithm
	}
	regMu.RLock()
	reg, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, Meta{}, fmt.Errorf("core: unknown algorithm %q (have %v)", name, Names())
	}
	return reg.factory(), reg.meta, nil
}

// Plan runs the named algorithm through the registry — the one dispatch
// seam shared by the service, the CLIs, and the experiment drivers.
func Plan(ctx context.Context, name string, p *Problem, opts Options, rng *stats.RNG) (Result, error) {
	planner, _, err := Lookup(name)
	if err != nil {
		return Result{}, err
	}
	return planner.Plan(ctx, p, opts, rng)
}

// Algorithms lists the registered planners' metadata in registration
// order (built-ins first, in the paper's order).
func Algorithms() []Meta {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Meta, 0, len(regOrder))
	for _, name := range regOrder {
		out = append(out, registry[name].meta)
	}
	return out
}

// Names lists the registered algorithm names in registration order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return append([]string(nil), regOrder...)
}
