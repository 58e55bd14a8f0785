// Command experiments regenerates the paper's tables and figures on the
// synthetic stand-in networks. Each -run target prints the rows of one
// table or figure; "all" runs everything.
//
// Examples:
//
//	experiments -run table2
//	experiments -run fig4 -scale 0.2 -runs 2000
//	experiments -run all -scale 0.1
//
// With -remote the mini grid runs against a live welmaxd or cluster
// router via POST /v1/sweeps instead of in-process:
//
//	experiments -remote http://127.0.0.1:8080 -scale 0.05 -runs 200
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"uicwelfare/internal/expr"
)

func main() {
	var (
		run    = flag.String("run", "all", "target: table2|fig4|fig5|fig6|fig7|fig8a|fig8bc|fig8d|fig9|fig9d|table5|table6|all")
		scale  = flag.Float64("scale", 0.25, "network scale factor")
		seed   = flag.Uint64("seed", 1, "random seed")
		runs   = flag.Int("runs", 2000, "Monte-Carlo runs per welfare estimate")
		items  = flag.Int("items", 5, "item count for multi-item experiments")
		remote = flag.String("remote", "", "base URL of a welmaxd or router; runs the mini grid via POST /v1/sweeps")
	)
	flag.Parse()

	p := expr.Params{Scale: *scale, Seed: *seed, Runs: *runs}
	if *remote != "" {
		if err := runRemote(*remote, p, *items); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}
	targets := strings.Split(*run, ",")
	if *run == "all" {
		targets = []string{"table2", "fig4", "fig5", "fig6", "fig7", "fig8a", "fig8bc", "fig8d", "fig9", "fig9d", "table5", "table6"}
	}
	for _, target := range targets {
		if err := dispatch(strings.TrimSpace(target), p, *items); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
}

func dispatch(target string, p expr.Params, items int) error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	defer w.Flush()
	switch target {
	case "table2":
		fmt.Println("== Table 2: network statistics (stand-ins vs paper) ==")
		fmt.Fprintln(w, "network\tpaper n\tpaper m\tgen n\tgen m\tavg deg\ttype")
		for _, r := range expr.Table2(p.Scale, p.Seed) {
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%.2f\t%s\n",
				r.Name, r.PaperNodes, r.PaperEdges, r.Nodes, r.Edges, r.AvgDegree, r.Type)
		}
	case "fig4":
		for cfg := 1; cfg <= 4; cfg++ {
			rows, err := expr.Fig4(cfg, p)
			if err != nil {
				return err
			}
			fmt.Printf("== Fig 4(%c): expected social welfare, configuration %d (douban-movie) ==\n", 'a'+cfg-1, cfg)
			fmt.Fprintln(w, "budget\talgorithm\twelfare\t±95%")
			for _, r := range rows {
				fmt.Fprintf(w, "%s\t%s\t%.1f\t%.1f\n", r.Budget, r.Algorithm, r.Welfare, 1.96*r.WelfareSE)
			}
			w.Flush()
		}
	case "fig5", "fig6":
		names := []string{"flixster", "douban-book", "douban-movie", "twitter"}
		for i, net := range names {
			rows, err := expr.Fig5And6(net, p)
			if err != nil {
				return err
			}
			if target == "fig5" {
				fmt.Printf("== Fig 5(%c): running time (ms), configuration 1, %s ==\n", 'a'+i, net)
				fmt.Fprintln(w, "budget\talgorithm\tmillis")
				for _, r := range rows {
					fmt.Fprintf(w, "%s\t%s\t%.1f\n", r.Budget, r.Algorithm, r.Millis)
				}
			} else {
				fmt.Printf("== Fig 6(%c): #RR sets, configuration 1, %s ==\n", 'a'+i, net)
				fmt.Fprintln(w, "budget\talgorithm\tRR sets")
				for _, r := range rows {
					fmt.Fprintf(w, "%s\t%s\t%d\n", r.Budget, r.Algorithm, r.RRSets)
				}
			}
			w.Flush()
		}
	case "fig7":
		for cfg := 5; cfg <= 8; cfg++ {
			rows, err := expr.Fig7(cfg, items, p)
			if err != nil {
				return err
			}
			fmt.Printf("== Fig 7(%c): multi-item welfare, configuration %d (twitter) ==\n", 'a'+cfg-5, cfg)
			fmt.Fprintln(w, "total budget\talgorithm\twelfare\t±95%")
			for _, r := range rows {
				fmt.Fprintf(w, "%d\t%s\t%.1f\t%.1f\n", r.TotalBudget, r.Algorithm, r.Welfare, 1.96*r.WelfareSE)
			}
			w.Flush()
		}
	case "fig8a":
		rows, err := expr.Fig8a(10, p)
		if err != nil {
			return err
		}
		fmt.Println("== Fig 8(a): running time vs number of items (configuration 5, twitter) ==")
		fmt.Fprintln(w, "items\talgorithm\tmillis")
		for _, r := range rows {
			fmt.Fprintf(w, "%d\t%s\t%.1f\n", r.Items, r.Algorithm, r.Millis)
		}
	case "fig8bc":
		rows, err := expr.Fig8bc(p)
		if err != nil {
			return err
		}
		fmt.Println("== Fig 8(b,c): real Param welfare and running time (twitter) ==")
		fmt.Fprintln(w, "total budget\talgorithm\twelfare\t±95%\tmillis")
		for _, r := range rows {
			fmt.Fprintf(w, "%d\t%s\t%.1f\t%.1f\t%.1f\n", r.Total, r.Algorithm, r.Welfare, 1.96*r.WelfareSE, r.Millis)
		}
	case "fig8d":
		rows, err := expr.Fig8d(p)
		if err != nil {
			return err
		}
		fmt.Println("== Fig 8(d): budget skew under real Param (twitter) ==")
		fmt.Fprintln(w, "split\twelfare\t±95%\tmillis")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\n", r.Split, r.Welfare, 1.96*r.WelfareSE, r.Millis)
		}
	case "fig9":
		for i, net := range []string{"orkut", "douban-book", "douban-movie"} {
			rows, err := expr.Fig9(net, nil, p)
			if err != nil {
				return err
			}
			fmt.Printf("== Fig 9(%c): propagation vs externality, %s ==\n", 'a'+i, net)
			fmt.Fprintln(w, "budget %\twelfare\tBDHS-Step\tBDHS-Concave\t% of step benchmark")
			for _, r := range rows {
				fmt.Fprintf(w, "%d\t%.1f\t%.1f\t%.1f\t%.1f\n",
					r.BudgetPct, r.Welfare, r.StepBenchmark, r.ConcBenchmark, r.ReachedStepPct)
			}
			w.Flush()
		}
	case "fig9d":
		rows, err := expr.Fig9d(p)
		if err != nil {
			return err
		}
		fmt.Println("== Fig 9(d): scalability of bundleGRD (orkut) ==")
		fmt.Fprintln(w, "network %\tnodes\tvariant\twelfare\tmillis")
		for _, r := range rows {
			fmt.Fprintf(w, "%d\t%d\t%s\t%.1f\t%.1f\n", r.NetworkPct, r.Nodes, r.Variant, r.Welfare, r.Millis)
		}
	case "table5":
		rows, err := expr.Table5(p)
		if err != nil {
			return err
		}
		fmt.Println("== Table 5: learned value/noise parameters (simulated auctions) ==")
		fmt.Fprintln(w, "itemset\tprice\ttrue value\tlearned value\ttrue noise var\tlearned var")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.0f\t%.1f\t%.1f\t%.1f\t%.1f\n",
				r.Itemset, r.Price, r.TrueValue, r.LearnedValue, r.TrueNoiseVar, r.LearnedVar)
		}
	case "table6":
		rows, err := expr.Table6(p)
		if err != nil {
			return err
		}
		fmt.Println("== Table 6: #RR sets generated (real Param, twitter) ==")
		fmt.Fprintln(w, "budget split\tbundleGRD\tMAX_IMM\tIMM_MAX")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\n", r.Split, r.BundleGRD, r.MaxIMM, r.IMMMax)
		}
	default:
		return fmt.Errorf("unknown target %q", target)
	}
	return nil
}
