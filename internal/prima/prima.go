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
	"math"
	"sort"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/imm"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/telemetry"
)

// Family is the Sketch.Family of every PRIMA sketch: the planner
// registry's SketchFamily for bundleGRD.
const Family = "prima"

// Sketch and Options are the shared rrset types under the names the
// benchmark module (bench/) spells; new code uses the rrset names.
type (
	Sketch  = rrset.Sketch
	Options = rrset.Options
)

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
func Select(g *graph.Graph, budgets []int, opts Options, rng *stats.RNG) rrset.Result {
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
	opts = opts.WithDefaults()
	n := g.N()
	if n == 0 || len(budgets) == 0 {
		return &Sketch{Family: Family}, nil
	}
	// Sort budgets non-increasing, clamp into [1, n], drop duplicates
	// (identical budgets share identical prefixes, so a single pass
	// suffices and the union bound over |b| budgets stays valid).
	bs := CanonicalBudgets(budgets, n)
	if len(bs) == 0 {
		return &Sketch{Family: Family}, nil
	}
	maxBudget := bs[0]
	if maxBudget >= n {
		// Degenerate: the top budget seeds the whole graph; any ordering
		// of all nodes is trivially prefix-preserving only for b_i = n,
		// so fall back to a full greedy ordering over a fixed collection.
		return &Sketch{Family: Family, K: maxBudget, AllNodes: n}, nil
	}

	// Line 2: ℓ = ℓ + log2/log n, then ℓ' = log_n(n^ℓ · |b|).
	logn := math.Log(float64(n))
	ell := opts.Ell + math.Ln2/logn
	ellPrime := ell + math.Log(float64(len(bs)))/logn

	epsp := imm.EpsPrime(opts.Eps)

	col := opts.NewCollection(g)
	round := 0
	grow := func(target int64) error {
		round++
		return opts.Grow(ctx, col, target, round, rng)
	}

	// θ_final tracks the largest phase-2 requirement seen across budgets;
	// the final from-scratch regeneration uses it.
	thetaFinal := 0.0
	var prevSelection []graph.NodeID

	s := 0 // index into bs (paper's s-1)
	i := 1
	maxI := int(math.Log2(float64(n))) - 1
	budgetSwitch := false
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
			theta := imm.LambdaStar(n, k, opts.Eps, ellPrime) / lb
			if theta > thetaFinal {
				thetaFinal = theta
			}
			s++
			// The collection carries into the next budget's coverage
			// test; after the last budget nothing reads it, since the
			// regeneration below starts from scratch.
			if s < len(bs) {
				if err := grow(int64(math.Ceil(theta))); err != nil {
					return nil, err
				}
			}
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

	phase1 := col.Len()

	// Lines 22-24: regenerate θ RR sets from scratch (Chen'18 fix). The
	// final NodeSelection (line 25) is left to Select so the regenerated
	// collection can be cached and shared.
	col.Reset()
	if err := grow(int64(math.Ceil(thetaFinal))); err != nil {
		return nil, err
	}
	col.ReleaseScratch()
	return &Sketch{Family: Family, Col: col, K: maxBudget, Phase1: phase1}, nil
}
