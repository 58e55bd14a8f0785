package expr

import (
	"context"
	"time"

	"uicwelfare/internal/bdhs"
	"uicwelfare/internal/core"
	"uicwelfare/internal/graph"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/uic"
	"uicwelfare/internal/utility"
)

// Fig9Row is one point of the propagation-vs-externality study (Fig. 9
// a-c): bundleGRD's welfare when every item's budget is pct% of the node
// count, against the no-budget BDHS benchmarks.
type Fig9Row struct {
	Network        string
	BudgetPct      int
	Welfare        float64
	StepBenchmark  float64
	ConcBenchmark  float64
	ReachedStepPct float64 // welfare as % of the step benchmark
}

// Fig9 reproduces Fig. 9(a-c) on one network: sweep the per-item budget
// as a percentage of n and report where bundleGRD's propagation-driven
// welfare crosses the BDHS externality-only benchmarks. The model is the
// paper's real 5-item parameter set; BDHS assigns the best virtual item
// (itemset) to every node with no budget.
func Fig9(network string, pcts []int, p Params) ([]Fig9Row, error) {
	p = p.withDefaults()
	spec, err := NetworkByName(network)
	if err != nil {
		return nil, err
	}
	g := spec.Generate(p.Scale, p.Seed)
	m := utility.RealParams()

	rng := stats.NewRNG(p.Seed)
	stepBench := bdhs.StepBenchmark(g, m, rng, 200)
	concBench := bdhs.ConcaveBenchmark(g.UniformProb(0.01), m, 0.01)

	if len(pcts) == 0 {
		pcts = []int{5, 10, 20, 35, 50, 75, 100}
	}
	var rows []Fig9Row
	for _, pct := range pcts {
		b := g.N() * pct / 100
		if b < 1 {
			b = 1
		}
		budgets := []int{b, b, b, b, b}
		prob := core.MustProblem(g, m, budgets)
		res, err := core.Plan(context.Background(), core.AlgoBundleGRD, prob, core.Options{Eps: p.Eps, Ell: p.Ell}, stats.NewRNG(p.Seed+uint64(pct)))
		if err != nil {
			return nil, err
		}
		est := uic.NewSimulator(g, m).EstimateWelfare(res.Alloc, stats.NewRNG(p.Seed+23), p.Runs)
		reached := 0.0
		if stepBench > 0 {
			reached = 100 * est.Mean / stepBench
		}
		rows = append(rows, Fig9Row{
			Network: spec.Name, BudgetPct: pct,
			Welfare: est.Mean, StepBenchmark: stepBench, ConcBenchmark: concBench,
			ReachedStepPct: reached,
		})
	}
	return rows, nil
}

// Fig9dRow is one point of the scalability study (Fig. 9d).
type Fig9dRow struct {
	NetworkPct int
	Nodes      int
	Variant    string // "wc" (1/indeg) or "p=0.01"
	Welfare    float64
	Millis     float64
}

// Fig9d reproduces the scalability test: grow the Orkut stand-in by BFS
// prefixes of 20%..100% of the nodes, run bundleGRD with a uniform
// budget of 50 per item under both edge-probability settings, and report
// welfare and running time.
func Fig9d(p Params) ([]Fig9dRow, error) {
	p = p.withDefaults()
	spec, _ := NetworkByName("orkut")
	full := spec.Generate(p.Scale, p.Seed)
	m := utility.RealParams()
	bscale := p.Scale
	if bscale > 1 {
		bscale = 1
	}
	budget := int(50 * bscale)
	if budget < 1 {
		budget = 1
	}
	var rows []Fig9dRow
	for _, pct := range []int{20, 40, 60, 80, 100} {
		want := full.N() * pct / 100
		sub, _ := graph.BFSPrefix(full, want)
		for _, variant := range []string{"wc", "p=0.01"} {
			g := sub
			if variant == "p=0.01" {
				g = sub.UniformProb(0.01)
			} else {
				g = sub.WeightedCascade()
			}
			budgets := []int{budget, budget, budget, budget, budget}
			prob := core.MustProblem(g, m, budgets)
			start := time.Now()
			res, err := core.Plan(context.Background(), core.AlgoBundleGRD, prob, core.Options{Eps: p.Eps, Ell: p.Ell}, stats.NewRNG(p.Seed+uint64(pct)))
			if err != nil {
				return nil, err
			}
			ms := float64(time.Since(start).Microseconds()) / 1000.0
			est := uic.NewSimulator(g, m).EstimateWelfare(res.Alloc, stats.NewRNG(p.Seed+29), p.Runs)
			rows = append(rows, Fig9dRow{
				NetworkPct: pct, Nodes: g.N(), Variant: variant,
				Welfare: est.Mean, Millis: ms,
			})
		}
	}
	return rows, nil
}
