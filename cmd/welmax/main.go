// Command welmax solves a WelMax instance: it loads or generates a social
// network, picks a utility configuration, runs one of the registered
// allocation algorithms, and reports the allocation and its estimated
// expected social welfare. Ctrl-C cancels a run cleanly mid-sketch.
//
// Examples:
//
//	welmax -network flixster -config config1 -budgets 50,50
//	welmax -graph edges.txt -directed -config real -budgets 30,30,20,10,10 -algo bundle-disj
//	welmax -network twitter -budgets 50,50 -eps 0.1 -progress
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	welfare "uicwelfare"
	"uicwelfare/internal/service"
	"uicwelfare/internal/store"
)

func main() {
	var (
		graphPath  = flag.String("graph", "", "edge-list file (\"u v [p]\" lines); overrides -network")
		directed   = flag.Bool("directed", true, "treat the edge-list file as directed")
		network    = flag.String("network", "flixster", "built-in network stand-in (flixster|douban-book|douban-movie|twitter|orkut)")
		scale      = flag.Float64("scale", 1.0, "network scale factor")
		configName = flag.String("config", "config1", "utility configuration (config1|config3|additive|cone|levelwise|real|real-smoothed)")
		items      = flag.Int("items", 5, "item count for additive/cone/levelwise configurations")
		budgetsStr = flag.String("budgets", "50,50", "comma-separated per-item seed budgets")
		algo       = flag.String("algo", welfare.DefaultAlgorithm,
			fmt.Sprintf("allocation algorithm (%s)", strings.Join(welfare.AlgorithmNames(), "|")))
		eps      = flag.Float64("eps", 0.5, "approximation parameter ε")
		ell      = flag.Float64("ell", 1.0, "confidence exponent ℓ")
		runs     = flag.Int("runs", 10000, "Monte-Carlo runs for the welfare estimate")
		seed     = flag.Uint64("seed", 1, "random seed")
		verbose  = flag.Bool("v", false, "print the full allocation")
		progress = flag.Bool("progress", false, "report sketch/estimation progress on stderr")
		jsonOut  = flag.Bool("json", false, "emit the result as JSON (the welmaxd AllocateResult payload)")
	)
	flag.Parse()

	// Ctrl-C / SIGTERM cancels the context threaded through sketch
	// construction and estimation, so long runs stop promptly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	budgets, err := parseBudgets(*budgetsStr)
	if err != nil {
		fatal(err)
	}

	g, err := loadOrGenerate(*graphPath, *directed, *network, *scale, *seed)
	if err != nil {
		fatal(err)
	}
	if !*jsonOut {
		fmt.Printf("network: %v\n", g)
	}

	m, err := service.BuildModel(*configName, *items, len(budgets), *seed)
	if err != nil {
		fatal(err)
	}
	if len(budgets) != m.K() {
		fatal(fmt.Errorf("%d budgets for %d items", len(budgets), m.K()))
	}

	prob, err := welfare.NewProblem(g, m, budgets)
	if err != nil {
		fatal(err)
	}

	// Progress can fire every few hundred RR sets / Monte-Carlo runs;
	// throttle to phase completions plus a heartbeat so -progress stays
	// readable on large graphs.
	var progressFn func(welfare.Progress)
	if *progress {
		var last time.Time
		progressFn = func(p welfare.Progress) {
			if p.Done != p.Total && time.Since(last) < 500*time.Millisecond {
				return
			}
			last = time.Now()
			if p.Round > 0 {
				fmt.Fprintf(os.Stderr, "welmax: %s round %d: %d/%d\n", p.Stage, p.Round, p.Done, p.Total)
			} else {
				fmt.Fprintf(os.Stderr, "welmax: %s: %d/%d\n", p.Stage, p.Done, p.Total)
			}
		}
	}

	runOpts := []welfare.RunOption{
		welfare.WithAlgorithm(*algo),
		welfare.WithEps(*eps),
		welfare.WithEll(*ell),
		welfare.WithSeed(*seed),
	}
	if progressFn != nil {
		runOpts = append(runOpts, welfare.WithProgress(progressFn))
	}

	started := time.Now()
	res, err := welfare.Run(ctx, prob, runOpts...)
	if err != nil {
		fatal(err)
	}

	// Text mode reports the allocation as soon as it exists; the
	// Monte-Carlo estimate below can take a while on large graphs.
	if !*jsonOut {
		fmt.Printf("algorithm: %s (RR sets: %d, IMM invocations: %d)\n",
			res.Algorithm, res.NumRRSets, res.IMMInvocations)
		if *verbose {
			for i, seeds := range res.Alloc.Seeds {
				fmt.Printf("  item %d (budget %d): %v\n", i, budgets[i], seeds)
			}
		}
	}

	est, err := welfare.EstimateWelfareCtx(ctx, prob, res.Alloc, welfare.CascadeIC, welfare.NewRNG(*seed+1), *runs, 1, progressFn)
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		// The same DTO welmaxd returns from an allocation job, so CLI and
		// daemon outputs are interchangeable.
		out := service.NewAllocateResult(res.Algorithm, res.Result)
		out.Welfare = &service.WelfareDTO{Mean: est.Mean, StdErr: est.StdErr, Runs: est.Runs}
		out.ElapsedMS = time.Since(started).Milliseconds()
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("expected social welfare: %.2f ± %.2f (%d runs)\n", est.Mean, 1.96*est.StdErr, est.Runs)
}

func parseBudgets(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		b, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || b < 0 {
			return nil, fmt.Errorf("bad budget %q", p)
		}
		out = append(out, b)
	}
	return out, nil
}

func loadOrGenerate(path string, directed bool, network string, scale float64, seed uint64) (*welfare.Graph, error) {
	if path != "" {
		// Both formats load here: binary .wmg files (gengraph -format
		// binary, or a welmaxd data dir) keep their stored probabilities,
		// text edge lists get the weighted-cascade reset.
		g, binary, err := store.LoadGraphFile(path, !directed)
		if err != nil {
			return nil, err
		}
		if binary {
			return g, nil
		}
		return g.WeightedCascade(), nil
	}
	return welfare.GenerateNetwork(network, scale, seed)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "welmax:", err)
	os.Exit(1)
}
