// Benchmarks regenerating every table and figure of the paper's
// evaluation at reduced scale, plus ablation and substrate benchmarks.
// Run the full harness with:
//
//	go test -bench=. -benchmem
//
// Scale factors are kept small so the whole suite completes on a laptop;
// cmd/experiments runs the same drivers at full stand-in scale and
// EXPERIMENTS.md records those results.
package welfare

import (
	"sync"
	"testing"
	"time"

	"uicwelfare/internal/blocks"
	"uicwelfare/internal/core"
	"uicwelfare/internal/diffusion"
	"uicwelfare/internal/expr"
	"uicwelfare/internal/graph"
	"uicwelfare/internal/imm"
	"uicwelfare/internal/oracle"
	"uicwelfare/internal/prima"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/service"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/telemetry"
	"uicwelfare/internal/uic"
	"uicwelfare/internal/utility"
)

// benchParams returns the reduced-scale experiment parameters used by
// the figure benchmarks.
func benchParams() expr.Params {
	return expr.Params{Scale: 0.05, Seed: 1, Runs: 300}
}

// --- Table 2 ---

func BenchmarkTable2NetworkStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := expr.Table2(0.05, 1)
		if len(rows) != 5 {
			b.Fatal("wrong row count")
		}
	}
}

// --- Figure 4: two-item welfare, configurations 1-4 ---

func benchmarkFig4(b *testing.B, cfg int) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		rows, err := expr.Fig4(cfg, p)
		if err != nil {
			b.Fatal(err)
		}
		reportWelfareRatio(b, rows)
	}
}

// reportWelfareRatio attaches bundleGRD's welfare advantage over
// item-disj as a custom metric.
func reportWelfareRatio(b *testing.B, rows []expr.TwoItemRow) {
	var grd, disj float64
	for _, r := range rows {
		switch r.Algorithm {
		case "bundleGRD":
			grd += r.Welfare
		case "item-disj":
			disj += r.Welfare
		}
	}
	if disj > 0 {
		b.ReportMetric(grd/disj, "welfare-ratio")
	}
}

func BenchmarkFig4Config1(b *testing.B) { benchmarkFig4(b, 1) }
func BenchmarkFig4Config2(b *testing.B) { benchmarkFig4(b, 2) }
func BenchmarkFig4Config3(b *testing.B) { benchmarkFig4(b, 3) }
func BenchmarkFig4Config4(b *testing.B) { benchmarkFig4(b, 4) }

// --- Figures 5 and 6: running time and #RR sets per network ---

func benchmarkFig5And6(b *testing.B, network string) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		rows, err := expr.Fig5And6(network, p)
		if err != nil {
			b.Fatal(err)
		}
		var grdRR, cimRR float64
		for _, r := range rows {
			switch r.Algorithm {
			case "bundleGRD":
				grdRR += float64(r.RRSets)
			case "RR-CIM":
				cimRR += float64(r.RRSets)
			}
		}
		b.ReportMetric(grdRR, "bundleGRD-RRsets")
		b.ReportMetric(cimRR, "RR-CIM-RRsets")
	}
}

func BenchmarkFig5And6Flixster(b *testing.B)    { benchmarkFig5And6(b, "flixster") }
func BenchmarkFig5And6DoubanBook(b *testing.B)  { benchmarkFig5And6(b, "douban-book") }
func BenchmarkFig5And6DoubanMovie(b *testing.B) { benchmarkFig5And6(b, "douban-movie") }
func BenchmarkFig5And6Twitter(b *testing.B)     { benchmarkFig5And6(b, "twitter") }

// --- Figure 7: multi-item welfare, configurations 5-8 ---

func benchmarkFig7(b *testing.B, cfg int) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := expr.Fig7(cfg, 5, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7Config5(b *testing.B) { benchmarkFig7(b, 5) }
func BenchmarkFig7Config6(b *testing.B) { benchmarkFig7(b, 6) }
func BenchmarkFig7Config7(b *testing.B) { benchmarkFig7(b, 7) }
func BenchmarkFig7Config8(b *testing.B) { benchmarkFig7(b, 8) }

// --- Figure 8 ---

func BenchmarkFig8aItemsScaling(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		rows, err := expr.Fig8a(5, p)
		if err != nil {
			b.Fatal(err)
		}
		// bundleGRD's time at 5 items over its time at 1 item: the paper's
		// headline is that this stays ~1 (independent of item count).
		var t1, t5 float64
		for _, r := range rows {
			if r.Algorithm == "bundleGRD" {
				if r.Items == 1 {
					t1 = r.Millis
				}
				if r.Items == 5 {
					t5 = r.Millis
				}
			}
		}
		if t1 > 0 {
			b.ReportMetric(t5/t1, "items5/items1-time")
		}
	}
}

func BenchmarkFig8bcRealParams(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := expr.Fig8bc(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8dBudgetSkew(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		rows, err := expr.Fig8d(p)
		if err != nil {
			b.Fatal(err)
		}
		var uniform, large float64
		for _, r := range rows {
			switch r.Split {
			case "uniform":
				uniform = r.Welfare
			case "large-skew":
				large = r.Welfare
			}
		}
		if large > 0 {
			b.ReportMetric(uniform/large, "uniform/large-welfare")
		}
	}
}

// --- Figure 9 ---

func BenchmarkFig9BDHS(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		rows, err := expr.Fig9("douban-book", []int{10, 50, 100}, p)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].ReachedStepPct, "pct-of-BDHS-at-full-budget")
	}
}

func BenchmarkFig9dScalability(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := expr.Fig9d(p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Tables 5 and 6 ---

func BenchmarkTable5Learning(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		rows, err := expr.Table5(p)
		if err != nil {
			b.Fatal(err)
		}
		// report worst relative value error across the five itemsets
		worst := 0.0
		for _, r := range rows {
			e := (r.LearnedValue - r.TrueValue) / r.TrueValue
			if e < 0 {
				e = -e
			}
			if e > worst {
				worst = e
			}
		}
		b.ReportMetric(worst*100, "worst-value-err-%")
	}
}

func BenchmarkTable6RRSetMemory(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		rows, err := expr.Table6(p)
		if err != nil {
			b.Fatal(err)
		}
		r := rows[0]
		b.ReportMetric(float64(r.BundleGRD)/float64(r.MaxIMM), "PRIMA/MAX_IMM")
	}
}

// --- Ablations called out in DESIGN.md ---

// BenchmarkAblationPRIMA measures bundleGRD's single PRIMA call against
// re-running IMM once per distinct budget (what a non-prefix-preserving
// implementation would have to do).
func BenchmarkAblationPRIMA(b *testing.B) {
	rng := stats.NewRNG(1)
	g := expr.Networks[0].Generate(0.1, 1)
	budgets := []int{40, 25, 10, 5, 2}
	b.Run("prima-once", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prima.Select(g, budgets, prima.Options{}, rng)
		}
	})
	b.Run("imm-per-budget", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, k := range budgets {
				imm.Run(g, k, imm.Options{}, rng)
			}
		}
	})
}

// BenchmarkAblationWelfareEstimator compares the sequential and sharded
// Monte-Carlo welfare estimators.
func BenchmarkAblationWelfareEstimator(b *testing.B) {
	rng := stats.NewRNG(2)
	g := expr.Networks[0].Generate(0.1, 2)
	m := utility.RealParams()
	p := core.MustProblem(g, m, []int{20, 20, 15, 10, 10})
	res := core.BundleGRD(p, core.Options{}, rng)
	b.Run("sequential", func(b *testing.B) {
		sim := uic.NewSimulator(g, m)
		for i := 0; i < b.N; i++ {
			sim.EstimateWelfare(res.Alloc, rng, 2000)
		}
	})
	b.Run("parallel-4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			uic.EstimateWelfareParallel(g, m, res.Alloc, rng, 2000, 4)
		}
	})
}

// BenchmarkAblationCascade compares the full bundleGRD+welfare pipeline
// under the IC and LT triggering models (§5's "results carry over"
// extension).
func BenchmarkAblationCascade(b *testing.B) {
	g := expr.Networks[1].Generate(0.1, 3)
	m := utility.Config1()
	p := core.MustProblem(g, m, []int{20, 10})
	for _, cascade := range []graph.Cascade{graph.CascadeIC, graph.CascadeLT} {
		b.Run(cascade.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rng := stats.NewRNG(uint64(i) + 1)
				res := core.BundleGRD(p, core.Options{Cascade: cascade}, rng)
				sim := uic.NewSimulator(g, m)
				sim.Cascade = cascade
				est := sim.EstimateWelfare(res.Alloc, rng, 500)
				b.ReportMetric(est.Mean, "welfare")
			}
		})
	}
}

// BenchmarkAblationOracle compares answering 8 budget queries from the
// prefix oracle against rerunning bundleGRD per query.
func BenchmarkAblationOracle(b *testing.B) {
	g := expr.Networks[0].Generate(0.1, 4)
	m := utility.Config1()
	queries := [][]int{{2, 1}, {4, 2}, {8, 3}, {16, 5}, {16, 16}, {12, 7}, {3, 3}, {16, 1}}
	b.Run("oracle", func(b *testing.B) {
		rng := stats.NewRNG(5)
		o, err := oracle.Build(g, 16, oracle.Options{}, rng)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				if _, err := o.Allocate(q); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("rerun-bundleGRD", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				p := core.MustProblem(g, m, q)
				core.BundleGRD(p, core.Options{}, stats.NewRNG(uint64(i)+6))
			}
		}
	})
}

// --- Substrate micro-benchmarks ---

func BenchmarkRRSetSampling(b *testing.B) {
	g := expr.Networks[2].Generate(0.2, 3)
	s := rrset.NewSampler(g)
	rng := stats.NewRNG(3)
	var buf []NodeID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = s.Sample(rng, buf[:0])
	}
}

func BenchmarkNodeSelection(b *testing.B) {
	g := expr.Networks[2].Generate(0.2, 4)
	col := rrset.NewCollection(g)
	rng := stats.NewRNG(4)
	col.Grow(20000, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.NodeSelection(50)
	}
}

func BenchmarkICCascade(b *testing.B) {
	g := expr.Networks[2].Generate(0.2, 5)
	sim := diffusion.NewSim(g)
	rng := stats.NewRNG(5)
	seeds := []NodeID{0, 1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunOnce(seeds, rng)
	}
}

func BenchmarkUICDiffusion(b *testing.B) {
	g := expr.Networks[2].Generate(0.2, 6)
	m := utility.RealParams()
	sim := uic.NewSimulator(g, m)
	rng := stats.NewRNG(6)
	alloc := uic.NewAllocation(5)
	for i := 0; i < 5; i++ {
		for s := 0; s < 20; s++ {
			alloc.Assign(NodeID(s), i)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunOnce(alloc, rng)
	}
}

func BenchmarkAdoptionArgmax(b *testing.B) {
	m := utility.RealParams()
	rng := stats.NewRNG(7)
	noise := m.SampleNoise(rng)
	util := m.UtilityTable(noise, nil)
	all := NewItemSet(0, 1, 2, 3, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		utility.Adopt(util, all, 0)
	}
}

func BenchmarkBlockGeneration(b *testing.B) {
	m := utility.Config8(8, stats.NewRNG(8))
	rng := stats.NewRNG(9)
	noise := m.SampleNoise(rng)
	util := m.UtilityTable(noise, nil)
	budgets := []int{80, 70, 60, 50, 40, 30, 20, 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blocks.Generate(blocks.Instance{Util: util, Budgets: budgets}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUtilityTable(b *testing.B) {
	m := utility.RealParams()
	rng := stats.NewRNG(10)
	noise := m.SampleNoise(rng)
	var dst []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = m.UtilityTable(noise, dst)
	}
}

// --- welmaxd service: sketch cache cold vs. warm ---

// BenchmarkServiceAllocate measures one allocation request through the
// welmaxd service layer with a cold sketch cache (every iteration
// regenerates RR sketches) versus a warm one (every iteration reuses the
// cached sketch), quantifying the daemon's amortization of sketch
// generation. Runs is 0 so the measurement isolates the allocation path.
func BenchmarkServiceAllocate(b *testing.B) {
	req := func(id string) *service.AllocateRequest {
		return &service.AllocateRequest{GraphID: id, Budgets: []int{20, 20}, Seed: 1}
	}
	// load takes the sub-benchmark's b so failures are attributed (and
	// FailNow'd) on the right goroutine.
	load := func(b *testing.B, svc *service.Service) string {
		_, g, err := service.LoadGraph(&service.GraphRequest{Network: "flixster", Scale: 0.25})
		if err != nil {
			b.Fatal(err)
		}
		entry, _, err := svc.Registry().Add("flixster", g)
		if err != nil {
			b.Fatal(err)
		}
		return entry.ID
	}
	newService := func(b *testing.B, opts service.Options) *service.Service {
		opts.Workers = 1
		svc, err := service.New(opts)
		if err != nil {
			b.Fatal(err)
		}
		return svc
	}

	b.Run("cold", func(b *testing.B) {
		svc := newService(b, service.Options{})
		defer svc.Close()
		id := load(b, svc)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			svc.ResetSketchCache()
			b.StartTimer()
			res, err := svc.Allocate(req(id))
			if err != nil {
				b.Fatal(err)
			}
			if res.SketchCached {
				b.Fatal("cold iteration hit the cache")
			}
		}
	})

	warm := func(b *testing.B, opts service.Options) {
		svc := newService(b, opts)
		defer svc.Close()
		id := load(b, svc)
		if _, err := svc.Allocate(req(id)); err != nil {
			b.Fatal(err) // prime the cache
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := svc.Allocate(req(id))
			if err != nil {
				b.Fatal(err)
			}
			if !res.SketchCached {
				b.Fatal("warm iteration missed the cache")
			}
		}
	}

	b.Run("warm", func(b *testing.B) { warm(b, service.Options{}) })

	// warm-notelemetry is the telemetry overhead guard's baseline: the
	// identical warm path with tracing and histograms disabled.
	// scripts/bench_snapshot.sh compares the two and fails the smoke when
	// the instrumented path costs more than 25 µs per request over this
	// one.
	b.Run("warm-notelemetry", func(b *testing.B) { warm(b, service.Options{TelemetryOff: true}) })
}

// BenchmarkBatchedAllocate measures the batch scheduler's coalescing
// win: 8 concurrent allocate requests that differ only in budgets
// against a cold cache, unbatched (every request builds its
// exact-budget sketch) versus batched (the first request builds at once
// on its own budgets; the other seven gather behind that build into one
// follow-up, which extends the finished sketch to their merged vector).
// sketchbuilds/op counts sketch constructions per iteration — 8
// unbatched, 2 batched (the build and the delta-build) — and rrsets/op
// the RR sets they sampled, which is what the constructions cost: the
// batched burst must sample about what ONE build of the merged vector
// would, and finish sooner than the unbatched one. Compare with
// BenchmarkServiceAllocate, which measures the same layer under
// identical repeated (not mixed-budget) load.
func BenchmarkBatchedAllocate(b *testing.B) {
	const concurrent = 8
	run := func(b *testing.B, opts service.Options) {
		svc, err := service.New(opts)
		if err != nil {
			b.Fatal(err)
		}
		defer svc.Close()
		_, g, err := service.LoadGraph(&service.GraphRequest{Network: "flixster", Scale: 0.1})
		if err != nil {
			b.Fatal(err)
		}
		entry, _, err := svc.Registry().Add("flixster", g)
		if err != nil {
			b.Fatal(err)
		}
		grownBefore := telemetry.ResourceTotals()[telemetry.ResRRSetsGrown]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			svc.ResetSketchCache()
			b.StartTimer()
			var wg sync.WaitGroup
			for j := 0; j < concurrent; j++ {
				wg.Add(1)
				go func(j int) {
					defer wg.Done()
					if _, err := svc.Allocate(&service.AllocateRequest{
						GraphID: entry.ID,
						Budgets: []int{j + 10, j + 11}, // all distinct
						Seed:    1,
					}); err != nil {
						b.Error(err)
					}
				}(j)
			}
			wg.Wait()
		}
		b.StopTimer()
		st := svc.Stats()
		b.ReportMetric(float64(st.SketchCache.Misses)/float64(b.N), "sketchbuilds/op")
		b.ReportMetric(float64(st.Batch.CoalescedRequests)/float64(b.N), "coalesced/op")
		b.ReportMetric(float64(telemetry.ResourceTotals()[telemetry.ResRRSetsGrown]-grownBefore)/float64(b.N), "rrsets/op")
	}
	b.Run("unbatched", func(b *testing.B) { run(b, service.Options{Workers: 1}) })
	b.Run("batched", func(b *testing.B) {
		run(b, service.Options{Workers: 1, BatchWindow: 25 * time.Millisecond})
	})
}
