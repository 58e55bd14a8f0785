package rrset

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/progress"
	"uicwelfare/internal/stats"
)

// Options configures an RIS sketch build: the one θ loop
// (prima.BuildSketchLB) that PRIMA's and IMM's builds run. Zero values
// default to the paper's settings (Eps 0.5, Ell 1).
type Options struct {
	Eps float64 // approximation slack ε > 0
	Ell float64 // confidence exponent: success probability 1 - 1/n^ℓ
	// Cascade selects the diffusion model (IC default, or LT).
	Cascade graph.Cascade
	// NodeCoin optionally injects a per-node pass probability into RR
	// sampling (used by the Com-IC baselines).
	NodeCoin func(graph.NodeID) float64
	// Progress, when non-nil, receives StageSketch events as the RR-set
	// collection grows (each adaptive round that samples, and the final
	// collection).
	Progress progress.Func
	// Workers is the RR-set growth parallelism: each grow phase's chunks
	// are claimed by this many goroutines (GrowParallelCtx; 0 means 1).
	// Every chunk samples from its own seeded stream, so the sketch
	// depends on the RNG, never on Workers.
	Workers int
	// Phase1Stream, when non-nil, lends a build the phase-1 stream its
	// θ loop reads (see Phase1Func), so builds on one stream sample its
	// sets once. The sketch is the same either way.
	Phase1Stream Phase1Func
}

// WithDefaults fills in unset fields.
func (o Options) WithDefaults() Options {
	if o.Eps <= 0 {
		o.Eps = 0.5
	}
	if o.Ell <= 0 {
		o.Ell = 1
	}
	return o
}

// NewCollection returns an empty collection on g that samples under o's
// cascade and node coin.
func (o Options) NewCollection(g *graph.Graph) *Collection {
	col := NewCollection(g)
	col.Sampler().NodeCoin = o.NodeCoin
	col.Sampler().Cascade = o.Cascade
	return col
}

// Grow grows col to target sets with o's workers, reporting the growth
// as StageSketch events of the given round.
func (o Options) Grow(ctx context.Context, col *Collection, target int64, round int, rng *stats.RNG) error {
	return col.GrowParallelCtx(ctx, target, rng, o.Workers, func(done, total int64) {
		if o.Progress != nil {
			o.Progress(progress.Event{Stage: progress.StageSketch, Round: round, Done: int(done), Total: int(total)})
		}
	})
}

// Result reports a sketch's selected seeds and the sampling effort spent.
type Result struct {
	Seeds     []graph.NodeID
	Coverage  float64 // F_R(Seeds) on the final collection
	SpreadEst float64 // n · F_R(Seeds)
	NumRRSets int     // RR sets in the final collection
	// TotalRRSets counts every RR set the build read: NumRRSets plus the
	// adaptive-phase sets the θ rule read, which the Chen'18 fix keeps
	// out of the final collection.
	TotalRRSets int
	LB          float64 // lower bound on OPT_k used to size the collection
}

// Sketch is the reusable product of an RIS build: the final RR-set
// collection (a prefix of the build's stream S₂, independent of the
// phase-1 stream S₁ that sized it) and its memoised greedy order. PRIMA and
// IMM build it with one θ loop — IMM at k is PRIMA at [k] — and Family
// names which θ-rule inputs the request had. A built Sketch is immutable, so its greedy
// selection is a fixed function of it: the first Select computes it,
// every later one reads it back, and one Sketch may serve many goroutines
// concurrently (the seam the welmaxd sketch cache relies on). A Sketch
// must not be copied.
type Sketch struct {
	// Family names which θ-rule inputs sized the sketch: "prima" for a
	// budget vector, "imm" for one budget k (the same loop on [k]). It is
	// the planner registry's SketchFamily. Sketches arrive from disk and
	// over the wire, so consumers compare it before trusting the sizing.
	Family string
	// Col is the final collection; nil in the degenerate cases
	// (empty instance, or a budget covering the whole graph).
	Col *Collection
	// K is the budget ceiling the sketch was sized for — PRIMA's top
	// canonical budget, IMM's k — and the length of its selection.
	K int
	// Phase1 counts the adaptive-phase sets the θ rule read — a prefix
	// of the phase-1 stream S₁, kept out of Col (for TotalRRSets
	// accounting).
	Phase1 int
	// LB is the lower bound on OPT_K the adaptive phase established. The
	// loop computes it for both families; IMM keeps it (the codec writes
	// it for "imm" only), PRIMA leaves it 0. Nothing sizes from it: an
	// extension runs its request's own θ rule.
	LB float64
	// AllNodes, when positive, marks the degenerate instance whose
	// selection is every one of the n = AllNodes nodes in id order.
	AllNodes int
	// memo is Col's budget-K selection: filled by the first Select or
	// Selection (the store encoder asks, so a spill persists it), or
	// adopted from a persisted sketch (AdoptSelection); never at build or
	// extend.
	memo SelectionMemo
}

// NumRRSets returns the size of the final collection (0 for degenerate
// sketches).
func (s *Sketch) NumRRSets() int {
	if s.Col == nil {
		return 0
	}
	return s.Col.Len()
}

// Selection returns the sketch's memoised greedy selection, running the
// greedy first if nothing has filled the memo yet — the persistence
// seam's view of it (the store codec writes it beside the collection).
// Degenerate sketches have none and return the zero Selection.
func (s *Sketch) Selection() Selection {
	if s.Col == nil || s.AllNodes > 0 {
		return Selection{}
	}
	return s.memo.Get(s.Col, s.K)
}

// AdoptSelection installs a persisted selection as the sketch's memo
// once it passes Col.CheckSelection for the sketch's budget, so the
// restored sketch's first Select is a read instead of a greedy run.
// Degenerate sketches have nothing to adopt. A memo already filled keeps
// its answer — the same one, since the greedy is deterministic given the
// collection.
func (s *Sketch) AdoptSelection(sel Selection) error {
	if s.Col == nil || s.AllNodes > 0 {
		return fmt.Errorf("rrset: a degenerate sketch has no selection to adopt")
	}
	if err := s.Col.CheckSelection(sel, s.K); err != nil {
		return err
	}
	s.memo.Adopt(sel)
	return nil
}

// MemoFilled reports whether the sketch's selection is already memoised
// (run or adopted), without computing it.
func (s *Sketch) MemoFilled() bool { return s.memo.filled.Load() }

// Select returns the sketch's greedy ordering: the first call on a
// sketch runs the NodeSelection (concurrent first callers wait for it
// rather than repeating it), every later call copies the K seeds out of
// the memoised order. Safe to call concurrently on one shared Sketch;
// the returned Seeds belong to the caller.
func (s *Sketch) Select() Result {
	return s.SelectReport(nil)
}

// SelectReport is Select with a seed-prefix callback: report (when
// non-nil) receives the ordering's growing prefixes, every few seeds and
// once with the final selection (degenerate sketches report their full
// selection once). The prefix slice aliases selection storage — copy
// before retaining.
func (s *Sketch) SelectReport(report func(prefix []graph.NodeID)) Result {
	if s.AllNodes > 0 {
		// Not memoised: the caller's copy of the n ids has to be written
		// either way, and generating them is no dearer than copying them.
		seeds := make([]graph.NodeID, s.AllNodes)
		for i := range seeds {
			seeds[i] = graph.NodeID(i)
		}
		if report != nil {
			report(seeds)
		}
		return Result{Seeds: seeds, Coverage: 1, SpreadEst: float64(s.AllNodes), LB: s.LB}
	}
	if s.Col == nil {
		return Result{}
	}
	sel := s.memo.Get(s.Col, s.K)
	sel.Replay(report)
	frac := sel.Fraction()
	return Result{
		Seeds:       slices.Clone(sel.Order),
		Coverage:    frac,
		SpreadEst:   float64(s.Col.N()) * frac,
		NumRRSets:   s.Col.Len(),
		TotalRRSets: s.Phase1 + s.Col.Len(),
		LB:          s.LB,
	}
}

// PrefixSpread estimates the spread of every prefix of the sketch's
// greedy order: σ̂[b] = n·F_R₂(order[:b]) for b = 0…K. The greedy chose
// its order to cover Col, so reading the spread off Col is biased
// upward; the RIS estimator n·F_R(S) is unbiased only on sets sampled
// independently of S. So every call samples a fresh R₂ on Col's graph
// under opts, as an extension samples its appended sets, and takes only
// the order and the size from Col: R₂ holds exactly Col.Len() sets, OPIM's
// equal split between the selection and the validation collection, so
// the estimate's error is on the scale the θ rule accepted for the
// selection. R₂ is discarded afterwards. A degenerate sketch has no
// collection to size R₂ by and returns an error; a canceled ctx returns
// ctx.Err().
func (s *Sketch) PrefixSpread(ctx context.Context, opts Options, rng *stats.RNG) ([]float64, error) {
	if s.Col == nil || s.AllNodes > 0 || s.Col.Len() == 0 {
		return nil, fmt.Errorf("rrset: a degenerate sketch has no collection to size a spread estimate by")
	}
	r2 := opts.NewCollection(s.Col.g)
	if err := opts.Grow(ctx, r2, int64(s.Col.Len()), 1, rng); err != nil {
		return nil, err
	}
	n, sets := float64(r2.N()), float64(r2.Len())
	hits := r2.PrefixCoverage(s.Selection().Order)
	spread := make([]float64, len(hits)+1)
	for b, hit := range hits {
		spread[b+1] = n * float64(hit) / sets
	}
	return spread, nil
}

// ErrNotExtendable marks a sketch that cannot grow in place
// (prima.ExtendSketchLB): degenerate (all-nodes or empty) sketches and
// sketches of another graph carry no collection to append to, and
// budgets covering the whole graph leave nothing to sample. Callers
// fall back to a cold build.
var ErrNotExtendable = errors.New("rrset: sketch not extendable")
