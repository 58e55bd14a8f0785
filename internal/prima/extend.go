package prima

import (
	"context"
	"fmt"
	"math"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
)

// ExtendSketchCtx grows a resident sketch — built for (oldBudgets,
// oldOpts) — into one serving (newBudgets, newOpts), by appending RR
// sets instead of rebuilding from scratch (rrset.ExtendSketch). It
// requires newOpts.Eps <= oldOpts.Eps (tightening is growth; loosening
// would discard samples) and a non-degenerate sketch on g; otherwise it
// returns an rrset.ErrNotExtendable error.
//
// Sizing: the final collection of a PRIMA build holds θ = λ*(n, b_max,
// ε, ℓ')/LB sets, where LB is the adaptive phase's lower bound on
// OPT_{b_max}. LB is a property of (graph, b_max) alone, so for the top
// budget the new requirement is exactly θ_old · λ*_new/λ*_old — the LB
// cancels. Smaller budgets' requirements were subsumed by the max at
// build time and scale the same way.
func ExtendSketchCtx(ctx context.Context, g *graph.Graph, sk *Sketch, oldBudgets []int, oldOpts Options, newBudgets []int, newOpts Options, rng *stats.RNG) (*Sketch, error) {
	oldOpts, newOpts = oldOpts.WithDefaults(), newOpts.WithDefaults()
	return rrset.ExtendSketch(ctx, g, sk, newOpts, rng, func(n int) (int64, int, error) {
		if newOpts.Eps > oldOpts.Eps {
			return 0, 0, fmt.Errorf("%w: eps loosened from %g to %g", rrset.ErrNotExtendable, oldOpts.Eps, newOpts.Eps)
		}
		obs := CanonicalBudgets(oldBudgets, n)
		bs := CanonicalBudgets(newBudgets, n)
		if len(obs) == 0 || len(bs) == 0 {
			return 0, 0, fmt.Errorf("%w: empty budget vector", rrset.ErrNotExtendable)
		}
		if bs[0] >= n {
			return 0, 0, fmt.Errorf("%w: top budget %d covers the whole graph", rrset.ErrNotExtendable, bs[0])
		}
		logn := math.Log(float64(n))
		ellPrimeOld := oldOpts.Ell + math.Ln2/logn + math.Log(float64(len(obs)))/logn
		ellPrimeNew := newOpts.Ell + math.Ln2/logn + math.Log(float64(len(bs)))/logn
		lamOld := LambdaStar(n, obs[0], oldOpts.Eps, ellPrimeOld)
		lamNew := LambdaStar(n, bs[0], newOpts.Eps, ellPrimeNew)
		theta := int64(sk.Col.Len())
		if lamNew > lamOld {
			theta = int64(math.Ceil(float64(theta) * lamNew / lamOld))
		}
		return theta, bs[0], nil
	})
}
