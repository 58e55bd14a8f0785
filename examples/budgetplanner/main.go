// Budget planner: given a fixed total seed budget, how should a network
// host split it across complementary items? This reproduces the question
// behind Fig. 8(d): uniform splits exploit supermodular bundling best,
// while skewed splits strand budget on items that cannot be co-adopted.
//
// Run with: go run ./examples/budgetplanner
package main

import (
	"context"
	"fmt"
	"sort"

	welfare "uicwelfare"
)

func main() {
	g, err := welfare.GenerateNetwork("douban-movie", 0.5, 11)
	if err != nil {
		panic(err)
	}
	m := welfare.RealParams()
	fmt.Printf("network: %v\n", g)
	fmt.Println("items: PlayStation, controller, game1, game2, game3 (Table 5 utilities)")

	const total = 250
	splits := map[string][]int{
		"uniform":       {total / 5, total / 5, total / 5, total / 5, total / 5},
		"large-skew":    {total * 82 / 100, total * 45 / 1000, total * 45 / 1000, total * 45 / 1000, total * 45 / 1000},
		"moderate-skew": {total * 30 / 100, total * 30 / 100, total * 20 / 100, total * 10 / 100, total * 10 / 100},
		"games-heavy":   {total * 10 / 100, total * 10 / 100, total * 27 / 100, total * 27 / 100, total * 26 / 100},
	}

	type outcome struct {
		name    string
		welfare float64
		ci      float64
	}
	var results []outcome
	for name, budgets := range splits {
		p, err := welfare.NewProblem(g, m, budgets)
		if err != nil {
			panic(err)
		}
		// One seed per split: the outcome of a split never depends on the
		// order the map is ranged in.
		res, err := welfare.Run(context.Background(), p, welfare.WithSeed(11), welfare.WithRuns(10000))
		if err != nil {
			panic(err)
		}
		results = append(results, outcome{name, res.Welfare.Mean, 1.96 * res.Welfare.StdErr})
	}
	sort.Slice(results, func(i, j int) bool { return results[i].welfare > results[j].welfare })

	fmt.Printf("\n%-15s %12s\n", "split", "welfare")
	for _, r := range results {
		fmt.Printf("%-15s %9.1f ± %.1f\n", r.name, r.welfare, r.ci)
	}
	fmt.Printf("\nrecommendation: split the budget \"%s\"\n", results[0].name)
	fmt.Println("skewed splits waste budget: a seed holding only the over-funded item")
	fmt.Println("cannot adopt it alone, and the prefix allocation cannot bundle it.")
}
