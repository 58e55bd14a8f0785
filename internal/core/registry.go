package core

import (
	"context"
	"fmt"
	"sync"

	"uicwelfare/internal/progress"
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
// roughly constant factor — the service corrects the bias with
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

// SketchPlanner is the optional capability of planners whose dominant
// cost is building one immutable RR sketch: the service's sketch cache
// splits Plan into BuildSketch (cached, shared read-only across
// goroutines) and PlanFromSketch (cheap, per request).
type SketchPlanner interface {
	Planner
	// SketchBudgets returns the canonical budget vector identifying the
	// sketch Plan would build for p — cache-key material alongside
	// Meta.SketchFamily.
	SketchBudgets(p *Problem) []int
	// BuildSketch builds the reusable sketch (a *prima.Sketch or
	// *imm.Sketch, typed as any to keep the registry family-agnostic).
	BuildSketch(ctx context.Context, p *Problem, opts Options, rng *stats.RNG) (any, error)
	// PlanFromSketch runs selection and assignment on a prebuilt sketch.
	// It only reads the sketch, so one cached sketch can serve many
	// concurrent calls.
	PlanFromSketch(p *Problem, sketch any) (Result, error)
}

// ProgressiveSketchPlanner is the optional capability of sketch
// planners whose selection can report the incremental seed prefix as
// the greedy ordering grows: PlanFromSketchProgress is PlanFromSketch
// with a progress callback receiving StageSelect events whose
// SeedPrefix is the ordering committed so far. The welmaxd job stream
// forwards these to SSE subscribers so clients can render a partial
// allocation before the job finishes.
type ProgressiveSketchPlanner interface {
	SketchPlanner
	PlanFromSketchProgress(p *Problem, sketch any, report progress.Func) (Result, error)
}

// BatchSketchPlanner is the optional capability of sketch planners
// whose sketch, built for one budget vector, serves every request whose
// budgets that vector dominates — the property welmaxd's batch
// scheduler exploits to coalesce concurrent mixed-budget requests onto
// one build. Both RR-sketch families qualify: PRIMA's prefix-preserving
// guarantee covers every budget in the vector it was sized for, and an
// IMM greedy ordering selected for k is prefix-consistent for any
// k' ≤ k.
type BatchSketchPlanner interface {
	SketchPlanner
	// MergeBudgets merges two canonical sketch-budget vectors (the form
	// SketchBudgets returns) into the canonical vector whose sketch
	// serves any request served by either. It must be commutative,
	// associative, and idempotent; the batch scheduler folds a whole
	// group's budgets through it.
	MergeBudgets(a, b []int) []int
	// BuildSketchForBudgets builds the family sketch sized for an
	// explicit canonical budget vector on p's graph — p's own budgets
	// are ignored, which is what lets a batch build dominate several
	// requests at once.
	BuildSketchForBudgets(ctx context.Context, p *Problem, budgets []int, opts Options, rng *stats.RNG) (any, error)
}

// ExtendSketchPlanner is the optional capability of batch planners
// whose resident sketch can grow into a larger one instead of being
// rebuilt: both RR-sketch families append i.i.d. RR sets to a cloned
// collection and re-run selection, so a sketch built for budgets b
// becomes one serving MergeBudgets(b, b') at the marginal sampling
// cost. The service's batched path uses it as a delta-build when a
// near-dominating sketch is already resident.
type ExtendSketchPlanner interface {
	BatchSketchPlanner
	// ExtendSketch grows sketch — resident, built for oldBudgets under
	// the same (graph, family, cascade, ε, ℓ) group — into one serving
	// newBudgets. The input sketch is never mutated (growth happens on
	// a clone), so concurrent readers of the resident sketch are safe.
	// Sketches with no collection to append to (degenerate whole-graph
	// builds) return an error; callers fall back to a cold build.
	ExtendSketch(ctx context.Context, p *Problem, sketch any, oldBudgets, newBudgets []int, opts Options, rng *stats.RNG) (any, error)
}

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
