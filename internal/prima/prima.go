// Package prima implements PRIMA (PRefix-preserving Influence
// Maximization Algorithm), Algorithm 2 of the paper: a non-trivial
// extension of IMM that, given a vector of item budgets b1 >= b2 >= ...,
// returns a single ordered seed set S_b such that with probability at
// least 1-1/n^ℓ, *every* prefix of size b_i is a (1-1/e-ε)-approximation
// to the optimal spread with b_i seeds. bundleGRD assigns item i to the
// top-b_i prefix of this ordering.
package prima

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/imm"
	"uicwelfare/internal/progress"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/telemetry"
)

// Options configures PRIMA. Zero values default to the paper's settings
// (Eps 0.5, Ell 1).
type Options struct {
	Eps float64
	Ell float64
	// Cascade selects the diffusion model (IC default, or LT).
	Cascade graph.Cascade
	// NodeCoin optionally injects a per-node pass probability into RR
	// sampling.
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

func (o Options) withDefaults() Options {
	if o.Eps <= 0 {
		o.Eps = 0.5
	}
	if o.Ell <= 0 {
		o.Ell = 1
	}
	return o
}

// Result reports the prefix-preserving ordering and sampling effort.
type Result struct {
	// Seeds is the ordered seed set of size max(budgets); the top-b_i
	// prefix serves item i.
	Seeds []graph.NodeID
	// Coverage is F_R(Seeds) on the final regenerated collection.
	Coverage  float64
	SpreadEst float64
	// NumRRSets is the size of the final collection (the memory figure
	// reported in Fig. 6 and Table 6).
	NumRRSets int
	// TotalRRSets additionally counts the phase-1 samples discarded by the
	// from-scratch regeneration.
	TotalRRSets int
}

// Sketch is the reusable product of PRIMA's sampling phases: the final
// from-scratch RR-set collection, sized by the adaptive lower-bound
// search for a specific (graph, budgets, ε, ℓ, cascade) tuple. Once
// BuildSketch returns, the sketch is immutable, so its greedy selection
// is a fixed function of it: the first Select computes it, every later
// one reads it back, and a single Sketch may serve many goroutines
// concurrently (the seam the welmaxd sketch cache relies on). A Sketch
// must not be copied.
type Sketch struct {
	// Col is the regenerated collection; nil in the degenerate cases
	// (empty instance, or max budget covering the whole graph).
	Col *rrset.Collection
	// MaxBudget is the clamped maximum budget the sketch was sized for.
	MaxBudget int
	// Phase1 counts the adaptive-phase samples discarded before the
	// final regeneration (for TotalRRSets accounting).
	Phase1 int
	// allNodesN, when positive, marks the degenerate instance whose
	// selection is every one of the n nodes in id order.
	allNodesN int
	// memo is Col's budget-MaxBudget selection: filled by the first Select or
	// Selection (the store encoder asks, so a spill persists it), or
	// adopted from a persisted sketch (AdoptSelection); never at build or
	// extend.
	memo rrset.SelectionMemo
}

// CanonicalBudgets clamps budgets into [1, n], sorts them
// non-increasingly and drops duplicates — the normal form PRIMA sizes a
// sketch for. Two budget vectors with equal canonical forms produce
// statistically identical sketches, so cache keys should be derived from
// this form.
func CanonicalBudgets(budgets []int, n int) []int {
	bs := make([]int, 0, len(budgets))
	for _, b := range budgets {
		if b > n {
			b = n
		}
		if b > 0 {
			bs = append(bs, b)
		}
	}
	if len(bs) == 0 {
		return bs
	}
	sort.Sort(sort.Reverse(sort.IntSlice(bs)))
	uniq := bs[:1]
	for _, b := range bs[1:] {
		if b != uniq[len(uniq)-1] {
			uniq = append(uniq, b)
		}
	}
	return uniq
}

// Select runs PRIMA for the given budget vector. Budgets need not be
// sorted or distinct; they are sorted non-increasingly internally, and
// only max(budgets) seeds are returned.
func Select(g *graph.Graph, budgets []int, opts Options, rng *stats.RNG) Result {
	return BuildSketch(g, budgets, opts, rng).Select()
}

// BuildSketch runs PRIMA's adaptive sampling (lines 1-21 of Algorithm 2)
// and the final from-scratch regeneration, returning the collection
// without performing the final NodeSelection. The result is immutable
// and safe to share across goroutines; call Select (repeatedly, even
// concurrently) to obtain its ordering.
func BuildSketch(g *graph.Graph, budgets []int, opts Options, rng *stats.RNG) *Sketch {
	sk, _ := BuildSketchCtx(context.Background(), g, budgets, opts, rng) // background ctx: never canceled
	return sk
}

// BuildSketchCtx is BuildSketch with cooperative cancellation and
// progress reporting: RR-set growth checks ctx every few hundred samples
// and reports through opts.Progress, so a canceled context stops sketch
// construction promptly with ctx.Err() instead of running the sampling
// phases to completion.
func BuildSketchCtx(ctx context.Context, g *graph.Graph, budgets []int, opts Options, rng *stats.RNG) (*Sketch, error) {
	opts = opts.withDefaults()
	n := g.N()
	if n == 0 || len(budgets) == 0 {
		return &Sketch{}, nil
	}
	// Sort budgets non-increasing, clamp into [1, n], drop duplicates
	// (identical budgets share identical prefixes, so a single pass
	// suffices and the union bound over |b| budgets stays valid).
	bs := CanonicalBudgets(budgets, n)
	if len(bs) == 0 {
		return &Sketch{}, nil
	}
	maxBudget := bs[0]
	if maxBudget >= n {
		// Degenerate: the top budget seeds the whole graph; any ordering
		// of all nodes is trivially prefix-preserving only for b_i = n,
		// so fall back to a full greedy ordering over a fixed collection.
		return &Sketch{MaxBudget: maxBudget, allNodesN: n}, nil
	}

	// Line 2: ℓ = ℓ + log2/log n, then ℓ' = log_n(n^ℓ · |b|).
	logn := math.Log(float64(n))
	ell := opts.Ell + math.Ln2/logn
	ellPrime := ell + math.Log(float64(len(bs)))/logn

	epsp := imm.EpsPrime(opts.Eps)

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

	// θ_final tracks the largest phase-2 requirement seen across budgets;
	// the final from-scratch regeneration uses it.
	thetaFinal := 0.0
	var prevSelection []graph.NodeID

	s := 0 // index into bs (paper's s-1)
	i := 1
	maxI := int(math.Log2(float64(n))) - 1
	budgetSwitch := false
	lbLast := 1.0
	for i <= maxI && s < len(bs) {
		k := bs[s]
		x := float64(n) / math.Pow(2, float64(i))
		thetaI := imm.LambdaPrime(n, k, opts.Eps, ellPrime) / x
		if err := grow(int64(math.Ceil(thetaI))); err != nil {
			return nil, err
		}

		var seeds []graph.NodeID
		var frac float64
		if budgetSwitch && len(prevSelection) >= k {
			// Reuse the prefix of the previous NodeSelection: the greedy
			// max-cover on the same collection with a smaller budget
			// returns exactly this prefix.
			seeds = prevSelection[:k]
			frac = col.FractionCovered(seeds)
		} else {
			endSel := telemetry.StartSpan(ctx, "greedy_select")
			seeds, frac = col.NodeSelection(k)
			endSel()
			prevSelection = seeds
		}

		if float64(n)*frac >= (1+epsp)*x {
			lb := float64(n) * frac / (1 + epsp)
			lbLast = lb
			theta := imm.LambdaStar(n, k, opts.Eps, ellPrime) / lb
			if theta > thetaFinal {
				thetaFinal = theta
			}
			if err := grow(int64(math.Ceil(theta))); err != nil {
				return nil, err
			}
			s++
			budgetSwitch = true
		} else {
			i++
			budgetSwitch = false
		}
	}
	// Line 20-21: budgets that ran out of i-iterations fall back to LB=1.
	if s < len(bs) {
		theta := imm.LambdaStar(n, bs[s], opts.Eps, ellPrime) / 1.0
		if theta > thetaFinal {
			thetaFinal = theta
		}
	}
	if thetaFinal == 0 {
		// Degenerate tiny graph: no i-iterations ran. Use LB = 1.
		thetaFinal = imm.LambdaStar(n, maxBudget, opts.Eps, ellPrime)
	}
	_ = lbLast

	phase1 := col.Len()

	// Lines 22-24: regenerate θ RR sets from scratch (Chen'18 fix). The
	// final NodeSelection (line 25) is left to Select so the regenerated
	// collection can be cached and shared.
	col.Reset()
	if err := grow(int64(math.Ceil(thetaFinal))); err != nil {
		return nil, err
	}
	col.ReleaseScratch()
	return &Sketch{Col: col, MaxBudget: maxBudget, Phase1: phase1}, nil
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
func (s *Sketch) State() (col *rrset.Collection, maxBudget, phase1, allNodesN int) {
	return s.Col, s.MaxBudget, s.Phase1, s.allNodesN
}

// RestoreSketch reassembles a sketch from the fields State returned. A
// restored sketch is indistinguishable from the freshly built one: Select
// on it yields the identical ordering (NodeSelection is deterministic
// given the collection), recomputed on its first Select unless a
// persisted selection is adopted first (AdoptSelection).
func RestoreSketch(col *rrset.Collection, maxBudget, phase1, allNodesN int) *Sketch {
	return &Sketch{Col: col, MaxBudget: maxBudget, Phase1: phase1, allNodesN: allNodesN}
}

// Selection returns the sketch's memoised greedy selection, running the
// greedy first if nothing has filled the memo yet — the persistence
// seam's view of it (the store codec writes it beside the collection).
// Degenerate sketches have none and return the zero Selection.
func (s *Sketch) Selection() rrset.Selection {
	if s.Col == nil || s.allNodesN > 0 {
		return rrset.Selection{}
	}
	return s.memo.Get(s.Col, s.MaxBudget)
}

// AdoptSelection installs a persisted selection as the sketch's memo
// once it passes Col.CheckSelection for the sketch's budget, so the
// restored sketch's first Select is a read instead of a greedy run.
// Degenerate sketches have nothing to adopt. A memo already filled keeps
// its answer — the same one, since the greedy is deterministic given the
// collection.
func (s *Sketch) AdoptSelection(sel rrset.Selection) error {
	if s.Col == nil || s.allNodesN > 0 {
		return fmt.Errorf("prima: a degenerate sketch has no selection to adopt")
	}
	if err := s.Col.CheckSelection(sel, s.MaxBudget); err != nil {
		return err
	}
	s.memo.Adopt(sel)
	return nil
}

// Select returns the sketch's greedy ordering as a PRIMA result: the
// first call on a sketch runs the NodeSelection (concurrent first callers
// wait for it rather than repeating it), every later call copies the
// MaxBudget seeds out of the memoised order. Safe to call concurrently on
// one shared Sketch; the returned Seeds belong to the caller.
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
		return Result{Seeds: seeds, Coverage: 1, SpreadEst: float64(s.allNodesN)}
	}
	if s.Col == nil {
		return Result{}
	}
	sel := s.memo.Get(s.Col, s.MaxBudget)
	sel.Replay(report)
	frac := sel.Fraction()
	return Result{
		Seeds:       slices.Clone(sel.Order),
		Coverage:    frac,
		SpreadEst:   float64(s.Col.N()) * frac,
		NumRRSets:   s.Col.Len(),
		TotalRRSets: s.Phase1 + s.Col.Len(),
	}
}
