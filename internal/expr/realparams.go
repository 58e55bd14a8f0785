package expr

import (
	"context"
	"fmt"
	"math"
	"time"

	"uicwelfare/internal/auction"
	"uicwelfare/internal/core"
	"uicwelfare/internal/imm"
	"uicwelfare/internal/prima"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/uic"
	"uicwelfare/internal/utility"
)

// RealSplit returns the Fig. 8(b,c) budget split of a total budget over
// the five real items: 30% console, 30% controller, 20%/10%/10% games.
func RealSplit(total int) []int {
	b := []int{total * 30 / 100, total * 30 / 100, total * 20 / 100, total * 10 / 100, total * 10 / 100}
	for i := range b {
		if b[i] < 1 {
			b[i] = 1
		}
	}
	return b
}

// SkewSplits returns the three Fig. 8(d) budget distributions for a total
// budget: uniform, large skew (82% on the console) and moderate skew
// ([150 150 100 50 50] at total 500).
func SkewSplits(total int) map[string][]int {
	uniform := make([]int, 5)
	for i := range uniform {
		uniform[i] = total / 5
		if uniform[i] < 1 {
			uniform[i] = 1
		}
	}
	large := []int{total * 82 / 100, 0, 0, 0, 0}
	rest := (total - large[0]) / 4
	if rest < 1 {
		rest = 1
	}
	for i := 1; i < 5; i++ {
		large[i] = rest
	}
	moderate := []int{total * 30 / 100, total * 30 / 100, total * 20 / 100, total * 10 / 100, total * 10 / 100}
	for i := range moderate {
		if moderate[i] < 1 {
			moderate[i] = 1
		}
	}
	return map[string][]int{"uniform": uniform, "large-skew": large, "moderate-skew": moderate}
}

// RealRow is one point of Fig. 8(b-d).
type RealRow struct {
	Split     string
	Total     int
	Algorithm string
	Welfare   float64
	WelfareSE float64
	Millis    float64
}

// Fig8bc reproduces the real-parameter welfare and running-time sweep:
// Table 5 utilities on the Twitter stand-in, total budget 100..500 in
// steps of 100 split 30/30/20/10/10. item-disj is omitted exactly as in
// the paper: every singleton has negative utility, so its welfare is 0.
func Fig8bc(p Params) ([]RealRow, error) {
	p = p.withDefaults()
	spec, _ := NetworkByName("twitter")
	g := spec.Generate(p.Scale, p.Seed)
	m := utility.RealParams()
	bscale := p.Scale
	if bscale > 1 {
		bscale = 1
	}
	var rows []RealRow
	for total := 100; total <= 500; total += 100 {
		scaled := int(float64(total) * bscale)
		if scaled < 5 {
			scaled = 5
		}
		budgets := RealSplit(scaled)
		prob := core.MustProblem(g, m, budgets)
		for _, algo := range []string{core.AlgoBundleGRD, core.AlgoBundleDisjoint} {
			start := time.Now()
			res := runMultiItemAlgo(algo, prob, p, stats.NewRNG(p.Seed+uint64(total)))
			ms := float64(time.Since(start).Microseconds()) / 1000.0
			est := uic.NewSimulator(g, m).EstimateWelfare(res.Alloc, stats.NewRNG(p.Seed+13), p.Runs)
			rows = append(rows, RealRow{
				Split: "30/30/20/10/10", Total: scaled, Algorithm: algo,
				Welfare: est.Mean, WelfareSE: est.StdErr, Millis: ms,
			})
		}
	}
	return rows, nil
}

// Fig8d reproduces the budget-skew study: total budget 500 (scaled) under
// the three Fig. 8(d) distributions, measuring bundleGRD's welfare and
// running time.
func Fig8d(p Params) ([]RealRow, error) {
	p = p.withDefaults()
	spec, _ := NetworkByName("twitter")
	g := spec.Generate(p.Scale, p.Seed)
	m := utility.RealParams()
	bscale := p.Scale
	if bscale > 1 {
		bscale = 1
	}
	total := int(500 * bscale)
	if total < 5 {
		total = 5
	}
	var rows []RealRow
	for _, name := range []string{"uniform", "large-skew", "moderate-skew"} {
		budgets := SkewSplits(total)[name]
		prob := core.MustProblem(g, m, budgets)
		start := time.Now()
		res, err := core.Plan(context.Background(), core.AlgoBundleGRD, prob, core.Options{Eps: p.Eps, Ell: p.Ell}, stats.NewRNG(p.Seed))
		if err != nil {
			return nil, err
		}
		ms := float64(time.Since(start).Microseconds()) / 1000.0
		est := uic.NewSimulator(g, m).EstimateWelfare(res.Alloc, stats.NewRNG(p.Seed+17), p.Runs)
		rows = append(rows, RealRow{
			Split: name, Total: total, Algorithm: core.AlgoBundleGRD,
			Welfare: est.Mean, WelfareSE: est.StdErr, Millis: ms,
		})
	}
	return rows, nil
}

// Table5Row compares the ground-truth auction parameters with what the
// hidden-bid learner recovers from simulated bidding histories.
type Table5Row struct {
	Itemset      string
	Price        float64
	TrueValue    float64
	TrueNoiseVar float64
	LearnedValue float64
	LearnedVar   float64
}

// table5GroundTruth lists the five observed rows of Table 5.
var table5GroundTruth = []struct {
	name     string
	price    float64
	value    float64
	noiseVar float64
}{
	{"{ps}", 260, 213, 4},
	{"{ps,c}", 280, 220, 6},
	{"{ps,g1,g2,g3}", 275, 258, 4},
	{"{ps,g1,g2,c}", 290, 292.5, 5},
	{"{ps,g1,g2,g3,c}", 295, 302, 7},
}

// Table5 simulates eBay-style auctions for each observed itemset and
// learns the value/noise parameters back, reproducing the §4.3.4.1
// pipeline. Simulated bidding stands in for the eBay data, which is not
// bundled: auctions are simulated from each itemset's ground-truth value
// and noise, so the table checks that the learning step recovers them.
func Table5(p Params) ([]Table5Row, error) {
	p = p.withDefaults()
	rng := stats.NewRNG(p.Seed)
	const bidders, auctions = 8, 2000
	rows := make([]Table5Row, 0, len(table5GroundTruth))
	for _, gt := range table5GroundTruth {
		learned, err := auction.LearnFromGroundTruth(gt.value, sqrtf(gt.noiseVar), bidders, auctions, rng)
		if err != nil {
			return nil, fmt.Errorf("expr: learning %s: %w", gt.name, err)
		}
		rows = append(rows, Table5Row{
			Itemset:      gt.name,
			Price:        gt.price,
			TrueValue:    gt.value,
			TrueNoiseVar: gt.noiseVar,
			LearnedValue: learned.Value,
			LearnedVar:   learned.NoiseStd * learned.NoiseStd,
		})
	}
	return rows, nil
}

func sqrtf(x float64) float64 { return math.Sqrt(x) }

// Table6Row compares RR-set counts of PRIMA against the two IMM variants
// of §4.3.4.6 for one budget distribution.
type Table6Row struct {
	Split     string
	BundleGRD int // PRIMA's final collection
	MaxIMM    int // max over per-budget IMM runs
	IMMMax    int // IMM run at the maximum budget
}

// Table6 reproduces the memory-usage comparison: the number of RR sets
// generated by bundleGRD (PRIMA) versus MAX_IMM and IMM_MAX under the
// three Fig. 8(d) budget distributions on the Twitter stand-in.
func Table6(p Params) ([]Table6Row, error) {
	p = p.withDefaults()
	spec, _ := NetworkByName("twitter")
	g := spec.Generate(p.Scale, p.Seed)
	bscale := p.Scale
	if bscale > 1 {
		bscale = 1
	}
	total := int(500 * bscale)
	if total < 5 {
		total = 5
	}
	var rows []Table6Row
	for _, name := range []string{"uniform", "large-skew", "moderate-skew"} {
		budgets := SkewSplits(total)[name]
		pres := prima.Select(g, budgets, rrset.Options{Eps: p.Eps, Ell: p.Ell}, stats.NewRNG(p.Seed))
		maxIMM := 0
		for _, b := range dedupInts(budgets) {
			r := imm.Run(g, b, rrset.Options{Eps: p.Eps, Ell: p.Ell}, stats.NewRNG(p.Seed))
			if r.NumRRSets > maxIMM {
				maxIMM = r.NumRRSets
			}
		}
		maxBudget := 0
		for _, b := range budgets {
			if b > maxBudget {
				maxBudget = b
			}
		}
		immMax := imm.Run(g, maxBudget, rrset.Options{Eps: p.Eps, Ell: p.Ell}, stats.NewRNG(p.Seed))
		rows = append(rows, Table6Row{
			Split:     name,
			BundleGRD: pres.NumRRSets,
			MaxIMM:    maxIMM,
			IMMMax:    immMax.NumRRSets,
		})
	}
	return rows, nil
}

func dedupInts(xs []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
