package imm

import (
	"context"
	"math"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
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

// BuildSketch runs IMM's adaptive sampling on the phase-1 stream S₁ and
// draws the final collection from the independent stream S₂ (both
// seeded from rng, see rrset.StreamBases), returning the collection
// without performing the final NodeSelection. The result is immutable and safe to share across
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
// phases to completion. opts.Phase1Stream, when set, lends phase 1 a
// resident S₁; the sketch is byte-identical either way.
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

	// The θ rule reads a prefix of the phase-1 stream S₁; the final
	// collection is a prefix of the independent stream S₂.
	base1, base2 := rrset.StreamBases(rng)
	p1, err := opts.OpenPhase1(ctx, g, base1)
	if err != nil {
		return nil, err
	}
	defer p1.Release()
	round := 0

	lb := 1.0
	lambdaStar := LambdaStar(n, k, opts.Eps, ellPrime)
	theta := lambdaStar // resolved below; fallback uses LB = 1

	maxI := int(math.Log2(float64(n))) - 1
	for i := 1; i <= maxI; i++ {
		x := float64(n) / math.Pow(2, float64(i))
		thetaI := LambdaPrime(n, k, opts.Eps, ellPrime) / x
		round++
		if err := p1.Grow(ctx, int64(math.Ceil(thetaI)), round); err != nil {
			return nil, err
		}
		frac := p1.Select(ctx, k).Fraction()
		if float64(n)*frac >= (1+epsp)*x {
			lb = float64(n) * frac / (1 + epsp)
			theta = lambdaStar / lb
			break
		}
	}
	read := p1.Read()
	p1.Release()

	// Chen'18 fix: the final seed set must be selected on RR sets that are
	// independent of the adaptive stopping rule, so the final collection
	// is a prefix of S₂, which phase 1 never read (S₁ is not grown to θ
	// either: nothing would read those sets). The final NodeSelection is
	// left to Select so the collection can be cached and shared.
	col := opts.NewCollection(g)
	col.SeedStream(base2)
	round++
	if err := opts.Grow(ctx, col, int64(math.Ceil(theta)), round, nil); err != nil {
		return nil, err
	}
	col.ReleaseScratch()
	return &rrset.Sketch{Family: Family, Col: col, K: k, Phase1: read, LB: lb}, nil

}
