package imm

import (
	"context"
	"fmt"
	"math"
	"slices"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/progress"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/telemetry"
)

// Options configures IMM. The defaults (Eps 0.5, Ell 1) are the ones the
// paper uses in all experiments.
type Options struct {
	Eps float64 // approximation slack ε > 0
	Ell float64 // confidence exponent: success probability 1 - 1/n^ℓ
	// Cascade selects the diffusion model (IC default, or LT).
	Cascade graph.Cascade
	// NodeCoin optionally injects a per-node pass probability into RR
	// sampling (used by the Com-IC baselines).
	NodeCoin func(graph.NodeID) float64
	// Progress, when non-nil, receives StageSketch events as the RR-set
	// collection grows (each adaptive round and the final regeneration).
	Progress progress.Func
	// Workers is the RR-set growth parallelism: each grow phase shards
	// sampling across this many goroutines with deterministic per-worker
	// RNG streams (rrset.GrowParallelCtx). 0 or 1 keeps the legacy
	// serial path — the library zero value changes nothing.
	Workers int
}

// withDefaults fills in unset fields.
func (o Options) withDefaults() Options {
	if o.Eps <= 0 {
		o.Eps = 0.5
	}
	if o.Ell <= 0 {
		o.Ell = 1
	}
	return o
}

// Result reports the selected seeds and the sampling effort spent.
type Result struct {
	Seeds     []graph.NodeID
	Coverage  float64 // F_R(Seeds) on the final collection
	SpreadEst float64 // n · F_R(Seeds)
	NumRRSets int     // RR sets in the final collection
	// TotalRRSets counts every RR set generated, including the phase-1
	// collection that the Chen'18 fix throws away before reselection.
	TotalRRSets int
	LB          float64 // lower bound on OPT_k used to size the collection
}

// Sketch is the reusable product of IMM's sampling phases: the final
// from-scratch RR-set collection for a specific (graph, k, ε, ℓ,
// cascade) tuple. A built Sketch is immutable, so its greedy selection
// is a fixed function of it: the first Select computes it, every later
// one reads it back, and one Sketch may serve many goroutines
// concurrently (the seam the welmaxd sketch cache relies on). A Sketch
// must not be copied.
type Sketch struct {
	// Col is the regenerated collection; nil in the degenerate cases
	// (empty instance, or k covering the whole graph).
	Col *rrset.Collection
	// K is the budget the sketch was sized for.
	K int
	// Phase1 counts the adaptive-phase samples discarded before the
	// final regeneration.
	Phase1 int
	// LB is the lower bound on OPT_k the adaptive phase established.
	LB float64
	// allNodesN, when positive, marks the degenerate instance whose
	// selection is every one of the n nodes in id order.
	allNodesN int
	// memo is Col's budget-K selection: filled by the first Select or
	// Selection (the store encoder asks, so a spill persists it), or
	// adopted from a persisted sketch (AdoptSelection); never at build or
	// extend.
	memo rrset.SelectionMemo
}

// Run executes IMM for a single budget k and returns the ordered seed set.
// The returned seeds satisfy sigma(S) >= (1-1/e-ε)·OPT_k with probability
// at least 1-1/n^ℓ.
func Run(g *graph.Graph, k int, opts Options, rng *stats.RNG) Result {
	return BuildSketch(g, k, opts, rng).Select()
}

// RunCtx is Run with cooperative cancellation: it returns ctx.Err() as
// soon as the sketch build observes the canceled context.
func RunCtx(ctx context.Context, g *graph.Graph, k int, opts Options, rng *stats.RNG) (Result, error) {
	sk, err := BuildSketchCtx(ctx, g, k, opts, rng)
	if err != nil {
		return Result{}, err
	}
	return sk.Select(), nil
}

// BuildSketch runs IMM's adaptive sampling and the final from-scratch
// regeneration, returning the collection without performing the final
// NodeSelection. The result is immutable and safe to share across
// goroutines; call Select (repeatedly, even concurrently) to obtain its
// seed set.
func BuildSketch(g *graph.Graph, k int, opts Options, rng *stats.RNG) *Sketch {
	sk, _ := BuildSketchCtx(context.Background(), g, k, opts, rng) // background ctx: never canceled
	return sk
}

// BuildSketchCtx is BuildSketch with cooperative cancellation and
// progress reporting: RR-set growth checks ctx every few hundred samples
// and reports through opts.Progress, so a canceled context stops sketch
// construction promptly with ctx.Err() instead of running the sampling
// phases to completion.
func BuildSketchCtx(ctx context.Context, g *graph.Graph, k int, opts Options, rng *stats.RNG) (*Sketch, error) {
	opts = opts.withDefaults()
	n := g.N()
	if k <= 0 || n == 0 {
		return &Sketch{}, nil
	}
	if k >= n {
		// Every node is a seed; no sampling needed.
		return &Sketch{K: k, LB: float64(n), allNodesN: n}, nil
	}
	ellPrime := EllPlusLog2(opts.Ell, n)
	epsp := EpsPrime(opts.Eps)

	col := rrset.NewCollection(g)
	col.Sampler().NodeCoin = opts.NodeCoin
	col.Sampler().Cascade = opts.Cascade

	round := 0
	grow := func(target int64) error {
		round++
		return col.GrowParallelCtx(ctx, target, rng, opts.Workers, func(done, total int64) {
			if opts.Progress != nil {
				opts.Progress(progress.Event{Stage: progress.StageSketch, Round: round, Done: int(done), Total: int(total)})
			}
		})
	}

	lb := 1.0
	lambdaStar := LambdaStar(n, k, opts.Eps, ellPrime)
	theta := lambdaStar // resolved below; fallback uses LB = 1

	maxI := int(math.Log2(float64(n))) - 1
	for i := 1; i <= maxI; i++ {
		x := float64(n) / math.Pow(2, float64(i))
		thetaI := LambdaPrime(n, k, opts.Eps, ellPrime) / x
		if err := grow(int64(math.Ceil(thetaI))); err != nil {
			return nil, err
		}
		endSel := telemetry.StartSpan(ctx, "greedy_select")
		_, frac := col.NodeSelection(k)
		endSel()
		if float64(n)*frac >= (1+epsp)*x {
			lb = float64(n) * frac / (1 + epsp)
			theta = lambdaStar / lb
			break
		}
	}
	if err := grow(int64(math.Ceil(theta))); err != nil {
		return nil, err
	}
	grown := col.Len()

	// Chen'18 fix: the final seed set must be selected on RR sets that are
	// independent of the adaptive stopping rule, so regenerate from
	// scratch. The final NodeSelection is left to Select so the
	// regenerated collection can be cached and shared.
	col.Reset()
	if err := grow(int64(math.Ceil(theta))); err != nil {
		return nil, err
	}
	col.ReleaseScratch()
	return &Sketch{Col: col, K: k, Phase1: grown, LB: lb}, nil
}

// NumRRSets returns the size of the final collection (0 for degenerate
// sketches).
func (s *Sketch) NumRRSets() int {
	if s.Col == nil {
		return 0
	}
	return s.Col.Len()
}

// State exposes the sketch's serializable fields, including the
// unexported degenerate-instance marker; together with RestoreSketch it
// is the persistence seam the internal/store codec uses.
func (s *Sketch) State() (col *rrset.Collection, k, phase1 int, lb float64, allNodesN int) {
	return s.Col, s.K, s.Phase1, s.LB, s.allNodesN
}

// RestoreSketch reassembles a sketch from the fields State returned. A
// restored sketch is indistinguishable from the freshly built one: Select
// on it yields the identical seed set (NodeSelection is deterministic
// given the collection), recomputed on its first Select unless a
// persisted selection is adopted first (AdoptSelection).
func RestoreSketch(col *rrset.Collection, k, phase1 int, lb float64, allNodesN int) *Sketch {
	return &Sketch{Col: col, K: k, Phase1: phase1, LB: lb, allNodesN: allNodesN}
}

// Selection returns the sketch's memoised greedy selection, running the
// greedy first if nothing has filled the memo yet — the persistence
// seam's view of it (the store codec writes it beside the collection).
// Degenerate sketches have none and return the zero Selection.
func (s *Sketch) Selection() rrset.Selection {
	if s.Col == nil || s.allNodesN > 0 {
		return rrset.Selection{}
	}
	return s.memo.Get(s.Col, s.K)
}

// AdoptSelection installs a persisted selection as the sketch's memo
// once it passes Col.CheckSelection for the sketch's budget, so the
// restored sketch's first Select is a read instead of a greedy run.
// Degenerate sketches have nothing to adopt. A memo already filled keeps
// its answer — the same one, since the greedy is deterministic given the
// collection.
func (s *Sketch) AdoptSelection(sel rrset.Selection) error {
	if s.Col == nil || s.allNodesN > 0 {
		return fmt.Errorf("imm: a degenerate sketch has no selection to adopt")
	}
	if err := s.Col.CheckSelection(sel, s.K); err != nil {
		return err
	}
	s.memo.Adopt(sel)
	return nil
}

// Select returns the sketch's greedy seed set as an IMM result: the
// first call on a sketch runs the NodeSelection (concurrent first callers
// wait for it rather than repeating it), every later call copies the K
// seeds out of the memoised order. Safe to call concurrently on one
// shared Sketch; the returned Seeds belong to the caller.
func (s *Sketch) Select() Result {
	return s.SelectReport(nil)
}

// SelectReport is Select with a seed-prefix callback: report (when
// non-nil) receives the ordering's growing prefixes, every few seeds and
// once with the final selection (degenerate sketches report their full
// selection once). The prefix slice aliases selection storage — copy
// before retaining.
func (s *Sketch) SelectReport(report func(prefix []graph.NodeID)) Result {
	if s.allNodesN > 0 {
		// Not memoised: the caller's copy of the n ids has to be written
		// either way, and generating them is no dearer than copying them.
		seeds := make([]graph.NodeID, s.allNodesN)
		for i := range seeds {
			seeds[i] = graph.NodeID(i)
		}
		if report != nil {
			report(seeds)
		}
		return Result{Seeds: seeds, Coverage: 1, SpreadEst: float64(s.allNodesN), LB: s.LB}
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
