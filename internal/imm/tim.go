package imm

import (
	"context"
	"math"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
)

// RunTIM executes the TIM+ algorithm of Tang et al. (SIGMOD'14). TIM
// estimates KPT (a lower bound on OPT_k/n in expectation-of-width form)
// and then draws θ = λ/KPT RR sets, where
//
//	λ = (8 + 2ε)·n·(ℓ·log n + log C(n,k) + log 2)·ε^-2.
//
// TIM's bound is looser than IMM's, so it generates noticeably more RR
// sets — the property Fig. 6 of the paper measures. The Com-IC baselines
// (RR-SIM+, RR-CIM) are built on TIM, matching the original research code.
func RunTIM(g *graph.Graph, k int, opts rrset.Options, rng *stats.RNG) rrset.Result {
	opts = opts.WithDefaults()
	n := g.N()
	if k <= 0 || n == 0 {
		return rrset.Result{}
	}
	if k > n {
		k = n
	}
	m := g.M()

	col := opts.NewCollection(g)
	ctx := context.Background() // never canceled: the grows below cannot fail

	// KPT estimation (Algorithm 2 of TIM): probe with geometrically
	// growing sample counts until the width statistic certifies a level.
	kpt := 1.0
	logn := math.Log(float64(n))
	maxI := int(math.Log2(float64(n))) - 1
	if maxI < 1 {
		maxI = 1
	}
	prevWidthSum := 0.0
	prevCount := 0
	for i := 1; i <= maxI; i++ {
		ci := int64(math.Ceil((6*opts.Ell*logn + 6*math.Log(math.Log2(float64(n)))) * math.Pow(2, float64(i))))
		start := col.Len()
		_ = col.GrowParallelCtx(ctx, int64(prevCount)+ci, rng, opts.Workers, nil)
		// κ(R) = 1 - (1 - w(R)/m)^k, averaged over the batch
		sum := prevWidthSum
		for j := start; j < col.Len(); j++ {
			w := widthOf(g, col.Set(j))
			sum += 1 - math.Pow(1-float64(w)/float64(m), float64(k))
		}
		prevWidthSum = sum
		prevCount = col.Len()
		kappa := sum / float64(col.Len())
		if kappa > 1/math.Pow(2, float64(i)) {
			kpt = kappa * float64(n) / 2
			break
		}
	}
	if kpt < 1 {
		kpt = 1
	}

	lambda := (8 + 2*opts.Eps) * float64(n) *
		(opts.Ell*logn + stats.LogNChooseK(n, k) + math.Ln2) / (opts.Eps * opts.Eps)
	theta := lambda / kpt
	probes := col.Len()

	col.Reset()
	_ = col.GrowParallelCtx(ctx, int64(math.Ceil(theta)), rng, opts.Workers, nil)
	seeds, frac := col.NodeSelection(k)
	return rrset.Result{
		Seeds:       seeds,
		Coverage:    frac,
		SpreadEst:   float64(n) * frac,
		NumRRSets:   col.Len(),
		TotalRRSets: probes + col.Len(),
		LB:          kpt,
	}
}

// widthOf returns w(R): the number of edges in g pointing into members of
// the RR set.
func widthOf(g *graph.Graph, set []graph.NodeID) int64 {
	var w int64
	for _, v := range set {
		w += int64(g.InDegree(v))
	}
	return w
}
