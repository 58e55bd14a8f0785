// Package imm implements the IMM approximation algorithm of Tang et al.
// (SIGMOD'15) with the sample-regeneration fix of Chen (2018), plus the
// earlier TIM+ algorithm used by the Com-IC baselines. Both reduce
// influence maximization to max-cover over reverse-reachable sets; they
// differ only in how many RR sets they decide to draw. IMM's θ rule is
// PRIMA's on one budget, so its build is a call into prima.
package imm

import (
	"context"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/prima"
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
// progress reporting, as prima.BuildSketchCtx. IMM at k is PRIMA at [k]:
// for one budget PRIMA's ℓ′ is ℓ + log2/log n and Algorithm 2's loop is
// IMM's, so the sketch is prima.BuildSketchLB's on [k], labelled Family
// and carrying its LB.
func BuildSketchCtx(ctx context.Context, g *graph.Graph, k int, opts rrset.Options, rng *stats.RNG) (*rrset.Sketch, error) {
	n := g.N()
	if k <= 0 || n == 0 {
		return &rrset.Sketch{Family: Family}, nil
	}
	if k >= n {
		// Every node is a seed; no sampling needed.
		return &rrset.Sketch{Family: Family, K: k, LB: float64(n), AllNodes: n}, nil
	}
	sk, lb, err := prima.BuildSketchLB(ctx, g, []int{k}, opts, rng)
	if err != nil {
		return nil, err
	}
	sk.Family, sk.LB = Family, lb
	return sk, nil
}

// ExtendSketchCtx grows a resident sketch into one serving budget k
// under opts: prima.ExtendSketchLB on [k], so the extension runs IMM's
// own θ rule, and a grown sketch is labelled Family and carries its LB.
// A sketch that shares the base's collection keeps the base's labels.
func ExtendSketchCtx(ctx context.Context, g *graph.Graph, sk *rrset.Sketch, k int, opts rrset.Options, rng *stats.RNG) (*rrset.Sketch, error) {
	esk, lb, err := prima.ExtendSketchLB(ctx, g, sk, []int{k}, opts, rng)
	if err != nil {
		return nil, err
	}
	if esk.Col != sk.Col {
		esk.Family, esk.LB = Family, lb
	}
	return esk, nil
}
