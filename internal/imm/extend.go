package imm

import (
	"context"
	"fmt"
	"math"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/prima"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
)

// ExtendSketchCtx grows a resident sketch into one serving budget k
// under opts, by appending RR sets instead of rebuilding
// (rrset.ExtendSketch). The sketch's stored lower bound LB on OPT_K
// sizes the extension: OPT is monotone in the budget, so LB also
// lower-bounds OPT_{k'} for any k' >= K, and θ = λ*(n, k', ε, ℓ')/LB RR
// sets carry the IMM guarantee for k'.
func ExtendSketchCtx(ctx context.Context, g *graph.Graph, sk *rrset.Sketch, k int, opts rrset.Options, rng *stats.RNG) (*rrset.Sketch, error) {
	opts = opts.WithDefaults()
	return rrset.ExtendSketch(ctx, g, sk, opts, rng, func(n int) (int64, int, error) {
		if k <= 0 {
			return 0, 0, fmt.Errorf("%w: budget %d", rrset.ErrNotExtendable, k)
		}
		if k >= n {
			return 0, 0, fmt.Errorf("%w: budget %d covers the whole graph", rrset.ErrNotExtendable, k)
		}
		newK := max(k, sk.K)
		lb := max(sk.LB, 1)
		return int64(math.Ceil(prima.LambdaStar(n, newK, opts.Eps, prima.EllPlusLog2(opts.Ell, n)) / lb)), newK, nil
	})
}
