package imm

import (
	"context"
	"errors"
	"fmt"
	"math"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/progress"
	"uicwelfare/internal/stats"
)

// ErrNotExtendable marks a sketch that cannot grow in place (degenerate
// or empty — no collection to append to). Callers fall back to a cold
// build.
var ErrNotExtendable = errors.New("imm: sketch not extendable")

// ExtendSketchCtx grows a resident sketch into one serving budget k
// under opts (whose ε must not be looser than the build's), by
// appending RR sets instead of rebuilding. The sketch's stored lower
// bound LB on OPT_K sizes the extension: OPT is monotone in the budget,
// so LB also lower-bounds OPT_{k'} for any k' >= K, and θ = λ*(n, k',
// ε, ℓ')/LB RR sets carry the IMM guarantee for k'. Appended sets are
// i.i.d. draws from the same RR distribution, so the extended
// collection is distributionally identical to a cold final-phase
// collection of its size.
//
// The original sketch is never mutated: growth happens on a clone, so
// concurrent readers of the resident sketch are undisturbed. When no
// growth is needed the returned sketch shares the original's collection
// read-only (and is the original itself when K does not move either).
func ExtendSketchCtx(ctx context.Context, g *graph.Graph, sk *Sketch, k int, opts Options, rng *stats.RNG) (*Sketch, error) {
	opts = opts.withDefaults()
	if sk == nil || sk.Col == nil || sk.Col.Len() == 0 {
		return nil, ErrNotExtendable
	}
	n := g.N()
	if sk.Col.N() != n {
		return nil, fmt.Errorf("imm: sketch built on a %d-node graph, extending on %d nodes", sk.Col.N(), n)
	}
	if k <= 0 {
		return nil, fmt.Errorf("%w: budget %d", ErrNotExtendable, k)
	}
	if k >= n {
		return nil, fmt.Errorf("%w: budget %d covers the whole graph", ErrNotExtendable, k)
	}
	newK := k
	if sk.K > newK {
		newK = sk.K
	}
	lb := sk.LB
	if lb < 1 {
		lb = 1
	}
	ellPrime := EllPlusLog2(opts.Ell, n)
	thetaNew := int64(math.Ceil(LambdaStar(n, newK, opts.Eps, ellPrime) / lb))
	if thetaNew <= int64(sk.Col.Len()) {
		// Already large enough. Under an unchanged K the sketch is the
		// answer as it stands, memoised selection included; a larger K
		// shares the collection read-only and starts a fresh memo, since
		// the memoised order stops at the old K.
		if newK == sk.K {
			return sk, nil
		}
		return &Sketch{Col: sk.Col, K: newK, Phase1: sk.Phase1, LB: sk.LB}, nil
	}

	col := sk.Col.Clone()
	smp := col.Sampler()
	smp.Cascade = opts.Cascade
	smp.NodeCoin = opts.NodeCoin
	err := col.GrowParallelCtx(ctx, thetaNew, rng, opts.Workers, func(done, total int64) {
		if opts.Progress != nil {
			opts.Progress(progress.Event{Stage: progress.StageSketch, Round: 1, Done: int(done), Total: int(total)})
		}
	})
	if err != nil {
		return nil, err
	}
	col.ReleaseScratch()
	return &Sketch{Col: col, K: newK, Phase1: sk.Phase1, LB: sk.LB}, nil
}
