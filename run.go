package welfare

import (
	"context"

	"uicwelfare/internal/core"
	"uicwelfare/internal/progress"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/uic"
)

// Canonical algorithm names, re-exported from the core planner registry
// so callers, CLI flags, and service payloads share one spelling.
const (
	AlgoBundleGRD      = core.AlgoBundleGRD
	AlgoItemDisjoint   = core.AlgoItemDisjoint
	AlgoBundleDisjoint = core.AlgoBundleDisjoint
	// DefaultAlgorithm is what Run uses when WithAlgorithm is omitted.
	DefaultAlgorithm = core.DefaultAlgorithm
)

// AlgorithmInfo describes one registered planner (name, description,
// capability flags).
type AlgorithmInfo = core.Meta

// Algorithms lists the registered planners. Anything registered through
// core.Register — including third-party planners — shows up here and is
// runnable by name through Run.
func Algorithms() []AlgorithmInfo { return core.Algorithms() }

// AlgorithmNames lists the registered algorithm names in registration
// order.
func AlgorithmNames() []string { return core.Names() }

// Progress is one progress report from a running allocation: sketch
// construction rounds (Stage "sketch", Done/Total in RR sets) and
// Monte-Carlo estimation (Stage "estimate", Done/Total in runs).
type Progress = progress.Event

// RunOption configures Run via the functional-options convention.
type RunOption func(*runConfig)

type runConfig struct {
	algo       string
	opts       core.Options
	seed       uint64
	runs       int
	estWorkers int
}

// WithAlgorithm selects the planner by registry name (see
// AlgorithmNames); the default is DefaultAlgorithm (bundleGRD).
func WithAlgorithm(name string) RunOption { return func(c *runConfig) { c.algo = name } }

// WithEps sets the approximation slack ε (default: the paper's 0.5).
func WithEps(eps float64) RunOption { return func(c *runConfig) { c.opts.Eps = eps } }

// WithEll sets the confidence exponent ℓ (default: the paper's 1).
func WithEll(ell float64) RunOption { return func(c *runConfig) { c.opts.Ell = ell } }

// WithCascade selects the diffusion model (CascadeIC default, or
// CascadeLT).
func WithCascade(c Cascade) RunOption { return func(rc *runConfig) { rc.opts.Cascade = c } }

// WithSeed seeds the deterministic RNGs: seed for seed selection,
// seed+1 for the welfare estimate (default 1).
func WithSeed(seed uint64) RunOption { return func(c *runConfig) { c.seed = seed } }

// WithProgress registers a callback receiving Progress events as the
// run proceeds. The callback must be fast; when the run estimates with
// parallel workers (WithEstimateWorkers), it must also be safe for
// concurrent calls.
func WithProgress(fn func(Progress)) RunOption {
	return func(c *runConfig) { c.opts.Progress = progress.Func(fn) }
}

// WithRuns appends a Monte-Carlo welfare estimate of the allocation
// with the given number of runs (default: no estimate).
func WithRuns(runs int) RunOption { return func(c *runConfig) { c.runs = runs } }

// WithEstimateWorkers shards the welfare estimate across n goroutines
// (default: sequential).
func WithEstimateWorkers(n int) RunOption { return func(c *runConfig) { c.estWorkers = n } }

// RunResult is an allocation run's outcome: the core Result plus the
// resolved algorithm name and, when WithRuns was given, the welfare
// estimate.
type RunResult struct {
	Result
	// Algorithm is the resolved registry name of the planner that ran.
	Algorithm string
	// Welfare is the Monte-Carlo estimate; nil unless WithRuns was set.
	Welfare *WelfareEstimate
}

// Run solves a WelMax instance through the planner registry:
//
//	res, err := welfare.Run(ctx, p,
//	    welfare.WithAlgorithm(welfare.AlgoBundleGRD),
//	    welfare.WithEps(0.3),
//	    welfare.WithSeed(1),
//	    welfare.WithRuns(10000),
//	    welfare.WithProgress(func(ev welfare.Progress) { ... }))
//
// Canceling ctx stops sketch construction and estimation promptly; Run
// then returns ctx.Err() (context.Canceled or context.DeadlineExceeded).
func Run(ctx context.Context, p *Problem, options ...RunOption) (*RunResult, error) {
	cfg := runConfig{seed: 1}
	for _, o := range options {
		o(&cfg)
	}
	planner, meta, err := core.Lookup(cfg.algo)
	if err != nil {
		return nil, err
	}
	res, err := planner.Plan(ctx, p, cfg.opts, stats.NewRNG(cfg.seed))
	if err != nil {
		return nil, err
	}
	out := &RunResult{Result: res, Algorithm: meta.Name}
	if cfg.runs > 0 {
		est, err := uic.EstimateWelfareParallelCascadeCtx(ctx, p.G, p.Model, cfg.opts.Cascade,
			res.Alloc, stats.NewRNG(cfg.seed+1), cfg.runs, cfg.estWorkers, cfg.opts.Progress)
		if err != nil {
			return nil, err
		}
		out.Welfare = &est
	}
	return out, nil
}

// EstimateWelfareCtx is EstimateWelfare with cooperative cancellation,
// an explicit cascade model, optional parallel workers, and progress
// reporting — the estimator companion to Run for callers that allocate
// and estimate in separate steps. Pass the cascade the allocation was
// planned under (CascadeIC unless WithCascade said otherwise).
func EstimateWelfareCtx(ctx context.Context, p *Problem, alloc *Allocation, cascade Cascade, rng *RNG, runs, workers int, fn func(Progress)) (WelfareEstimate, error) {
	return uic.EstimateWelfareParallelCascadeCtx(ctx, p.G, p.Model, cascade, alloc, rng, runs, workers, progress.Func(fn))
}
