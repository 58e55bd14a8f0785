package prima

import (
	"context"
	"errors"
	"fmt"
	"math"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/imm"
	"uicwelfare/internal/progress"
	"uicwelfare/internal/stats"
)

// ErrNotExtendable marks a sketch that cannot grow in place: degenerate
// (all-nodes or empty) sketches carry no collection to append to, and a
// request loosening ε past the build's would need guarantees the
// existing samples cannot give. Callers fall back to a cold build.
var ErrNotExtendable = errors.New("prima: sketch not extendable")

// ExtendSketchCtx grows a resident sketch — built for (oldBudgets,
// oldOpts) — into one serving (newBudgets, newOpts), by appending RR
// sets instead of rebuilding from scratch. It requires newOpts.Eps <=
// oldOpts.Eps (tightening is growth; loosening would discard samples)
// and a non-degenerate sketch on g.
//
// Sizing: the final collection of a PRIMA build holds θ = λ*(n, b_max,
// ε, ℓ')/LB sets, where LB is the adaptive phase's lower bound on
// OPT_{b_max}. LB is a property of (graph, b_max) alone, so for the top
// budget the new requirement is exactly θ_old · λ*_new/λ*_old — the LB
// cancels. Smaller budgets' requirements were subsumed by the max at
// build time and scale the same way. Appended sets are i.i.d. draws
// from the same RR distribution, so the extended collection is
// distributionally identical to a cold final-phase collection of its
// size.
//
// The original sketch is never mutated: growth happens on a clone, so
// concurrent readers of the resident sketch (the sketch-cache contract)
// are undisturbed. When no growth is needed the returned sketch shares
// the original's collection read-only (and is the original itself when
// the budget ceiling does not move either).
func ExtendSketchCtx(ctx context.Context, g *graph.Graph, sk *Sketch, oldBudgets []int, oldOpts Options, newBudgets []int, newOpts Options, rng *stats.RNG) (*Sketch, error) {
	oldOpts, newOpts = oldOpts.withDefaults(), newOpts.withDefaults()
	if sk == nil || sk.Col == nil || sk.Col.Len() == 0 {
		return nil, ErrNotExtendable
	}
	n := g.N()
	if sk.Col.N() != n {
		return nil, fmt.Errorf("prima: sketch built on a %d-node graph, extending on %d nodes", sk.Col.N(), n)
	}
	if newOpts.Eps > oldOpts.Eps {
		return nil, fmt.Errorf("%w: eps loosened from %g to %g", ErrNotExtendable, oldOpts.Eps, newOpts.Eps)
	}
	obs := CanonicalBudgets(oldBudgets, n)
	bs := CanonicalBudgets(newBudgets, n)
	if len(obs) == 0 || len(bs) == 0 {
		return nil, fmt.Errorf("%w: empty budget vector", ErrNotExtendable)
	}
	if bs[0] >= n {
		return nil, fmt.Errorf("%w: top budget %d covers the whole graph", ErrNotExtendable, bs[0])
	}

	logn := math.Log(float64(n))
	ellPrimeOld := oldOpts.Ell + math.Ln2/logn + math.Log(float64(len(obs)))/logn
	ellPrimeNew := newOpts.Ell + math.Ln2/logn + math.Log(float64(len(bs)))/logn
	lamOld := imm.LambdaStar(n, obs[0], oldOpts.Eps, ellPrimeOld)
	lamNew := imm.LambdaStar(n, bs[0], newOpts.Eps, ellPrimeNew)

	maxBudget := bs[0]
	if sk.MaxBudget > maxBudget {
		maxBudget = sk.MaxBudget
	}
	thetaOld := int64(sk.Col.Len())
	thetaNew := thetaOld
	if lamNew > lamOld {
		thetaNew = int64(math.Ceil(float64(thetaOld) * lamNew / lamOld))
	}
	if thetaNew <= thetaOld {
		// Already large enough. Under an unchanged ceiling the sketch is
		// the answer as it stands, memoised selection included; a larger
		// ceiling shares the collection read-only and starts a fresh
		// memo, since the memoised order stops at the old MaxBudget.
		if maxBudget == sk.MaxBudget {
			return sk, nil
		}
		return &Sketch{Col: sk.Col, MaxBudget: maxBudget, Phase1: sk.Phase1}, nil
	}

	col := sk.Col.Clone()
	smp := col.Sampler()
	smp.Cascade = newOpts.Cascade
	smp.NodeCoin = newOpts.NodeCoin
	err := col.GrowParallelCtx(ctx, thetaNew, rng, newOpts.Workers, func(done, total int64) {
		if newOpts.Progress != nil {
			newOpts.Progress(progress.Event{Stage: progress.StageSketch, Round: 1, Done: int(done), Total: int(total)})
		}
	})
	if err != nil {
		return nil, err
	}
	col.ReleaseScratch()
	return &Sketch{Col: col, MaxBudget: maxBudget, Phase1: sk.Phase1}, nil
}
