package imm

import (
	"context"
	"math"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/telemetry"
)

// Family is the rrset.Sketch.Family of every IMM sketch: the planner
// registry's SketchFamily for item-disj.
const Family = "imm"

// Run executes IMM for a single budget k and returns the ordered seed set.
// The returned seeds satisfy sigma(S) >= (1-1/e-ε)·OPT_k with probability
// at least 1-1/n^ℓ.
func Run(g *graph.Graph, k int, opts rrset.Options, rng *stats.RNG) rrset.Result {
	return BuildSketch(g, k, opts, rng).Select()
}

// RunCtx is Run with cooperative cancellation: it returns ctx.Err() as
// soon as the sketch build observes the canceled context.
func RunCtx(ctx context.Context, g *graph.Graph, k int, opts rrset.Options, rng *stats.RNG) (rrset.Result, error) {
	sk, err := BuildSketchCtx(ctx, g, k, opts, rng)
	if err != nil {
		return rrset.Result{}, err
	}
	return sk.Select(), nil
}

// BuildSketch runs IMM's adaptive sampling and the final from-scratch
// regeneration, returning the collection without performing the final
// NodeSelection. The result is immutable and safe to share across
// goroutines; call Select (repeatedly, even concurrently) to obtain its
// seed set.
func BuildSketch(g *graph.Graph, k int, opts rrset.Options, rng *stats.RNG) *rrset.Sketch {
	sk, _ := BuildSketchCtx(context.Background(), g, k, opts, rng) // background ctx: never canceled
	return sk
}

// BuildSketchCtx is BuildSketch with cooperative cancellation and
// progress reporting: RR-set growth checks ctx every few hundred samples
// and reports through opts.Progress, so a canceled context stops sketch
// construction promptly with ctx.Err() instead of running the sampling
// phases to completion.
func BuildSketchCtx(ctx context.Context, g *graph.Graph, k int, opts rrset.Options, rng *stats.RNG) (*rrset.Sketch, error) {
	opts = opts.WithDefaults()
	n := g.N()
	if k <= 0 || n == 0 {
		return &rrset.Sketch{Family: Family}, nil
	}
	if k >= n {
		// Every node is a seed; no sampling needed.
		return &rrset.Sketch{Family: Family, K: k, LB: float64(n), AllNodes: n}, nil
	}
	ellPrime := EllPlusLog2(opts.Ell, n)
	epsp := EpsPrime(opts.Eps)

	col := opts.NewCollection(g)
	round := 0
	grow := func(target int64) error {
		round++
		return opts.Grow(ctx, col, target, round, rng)
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
	grown := col.Len()

	// Chen'18 fix: the final seed set must be selected on RR sets that are
	// independent of the adaptive stopping rule, so regenerate from
	// scratch (the adaptive collection is not grown to θ first: nothing
	// would read those sets). The final NodeSelection is left to Select
	// so the regenerated collection can be cached and shared.
	col.Reset()
	if err := grow(int64(math.Ceil(theta))); err != nil {
		return nil, err
	}
	col.ReleaseScratch()
	return &rrset.Sketch{Family: Family, Col: col, K: k, Phase1: grown, LB: lb}, nil
}
