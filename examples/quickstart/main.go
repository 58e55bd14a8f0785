// Quickstart: allocate seeds for two complementary items on a synthetic
// social network and estimate the expected social welfare through the
// context-aware welfare.Run entrypoint.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"

	welfare "uicwelfare"
)

func main() {
	ctx := context.Background()

	// A Flixster-like social network (Table 2 stand-in) with the paper's
	// weighted-cascade influence probabilities p(u,v) = 1/indeg(v).
	g, err := welfare.GenerateNetwork("flixster", 0.5, 42)
	if err != nil {
		panic(err)
	}
	fmt.Printf("network: %v\n", g)

	// Two complementary items (Table 3, configuration 1): each item is
	// worth its price on its own, but the bundle carries a surplus.
	m := welfare.Config1()

	// Seed budgets: item 0 may be seeded at 40 users, item 1 at 20.
	p, err := welfare.NewProblem(g, m, []int{40, 20})
	if err != nil {
		panic(err)
	}

	// bundleGRD: the (1-1/e-ε)-approximate greedy allocation. It never
	// looks at the utilities — complementarity alone justifies bundling.
	// Run dispatches by registry name, honors ctx cancellation, and
	// appends a Monte-Carlo welfare estimate when WithRuns is given.
	res, err := welfare.Run(ctx, p,
		welfare.WithAlgorithm(welfare.AlgoBundleGRD),
		welfare.WithSeed(42),
		welfare.WithRuns(20000),
		welfare.WithProgress(func(ev welfare.Progress) {
			if ev.Done == ev.Total { // one line per completed phase
				fmt.Printf("  [%s] round %d: %d/%d\n", ev.Stage, ev.Round, ev.Done, ev.Total)
			}
		}))
	if err != nil {
		panic(err)
	}
	fmt.Printf("bundleGRD selected %d seed pairs using %d RR sets\n",
		res.Alloc.Pairs(), res.NumRRSets)

	// The smaller-budget item rides on a prefix of the same seed ranking.
	fmt.Printf("item 0 seeds (first 5 of %d): %v\n", len(res.Alloc.Seeds[0]), res.Alloc.Seeds[0][:5])
	fmt.Printf("item 1 seeds (first 5 of %d): %v\n", len(res.Alloc.Seeds[1]), res.Alloc.Seeds[1][:5])
	fmt.Printf("expected social welfare: %.1f ± %.1f\n", res.Welfare.Mean, 1.96*res.Welfare.StdErr)

	// Compare against the item-disjoint baseline — same entrypoint,
	// different registry name.
	base, err := welfare.Run(ctx, p,
		welfare.WithAlgorithm(welfare.AlgoItemDisjoint),
		welfare.WithSeed(42),
		welfare.WithRuns(20000))
	if err != nil {
		panic(err)
	}
	fmt.Printf("item-disj baseline:      %.1f ± %.1f\n", base.Welfare.Mean, 1.96*base.Welfare.StdErr)
}
