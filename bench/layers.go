package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"uicwelfare/internal/batch"
	"uicwelfare/internal/core"
	"uicwelfare/internal/graph"
	"uicwelfare/internal/journal"
	"uicwelfare/internal/prima"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/service"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/store"
	"uicwelfare/internal/telemetry"
	"uicwelfare/internal/tracestore"
	"uicwelfare/internal/uic"
	"uicwelfare/internal/utility"
)

// layerBudget caps the time spent sampling one layer call: a call that
// alone overruns it (a cold build at eps 0.2 takes a second) runs once.
const (
	layerBudget  = 300 * time.Millisecond
	layerMaxReps = 200 // bounds the span file; a 1 ms call is well sampled by then
	// batchWindow is welmaxd's -batch-window default, which every
	// workload runs under.
	batchWindow = 10 * time.Millisecond
)

// opCost is one layer call's price: median wall time, and bytes and
// objects allocated per call.
type opCost struct {
	ms, allocBytes, allocs float64
}

// layerTimer samples layer calls and records a span around each.
type layerTimer struct {
	rec *spanRecorder
}

// sample calls fn until layerBudget is spent (at least once, at most
// layerMaxReps times), a span around each call. Allocation is read from the Go
// runtime around the whole loop; nothing else runs in this process
// during the layer pass.
func (t *layerTimer) sample(name string, fn func() error) (opCost, error) {
	var (
		times  []float64
		before runtime.MemStats
		after  runtime.MemStats
	)
	runtime.GC()
	runtime.ReadMemStats(&before)
	begin := time.Now()
	for len(times) == 0 || (time.Since(begin) < layerBudget && len(times) < layerMaxReps) {
		start := time.Now()
		if err := fn(); err != nil {
			return opCost{}, fmt.Errorf("bench: layer %s: %w", name, err)
		}
		end := time.Now()
		t.rec.add(t.rec.nextOp(), "layer."+name, "", start, end)
		times = append(times, ms(end.Sub(start)))
	}
	runtime.ReadMemStats(&after)
	reps := float64(len(times))
	return opCost{
		ms:         median(times),
		allocBytes: float64(after.TotalAlloc-before.TotalAlloc) / reps,
		allocs:     float64(after.Mallocs-before.Mallocs) / reps,
	}, nil
}

// layerPass rebuilds the workload's graph, budgets, eps and seed
// in-process and calls each layer's public functions in the order the
// service does, so every client-observed millisecond has a layer number
// beside it. probeP50 is the one-client warm HTTP p50 of the same
// request, against which the HTTP overhead is taken.
func (r *runner) layerPass(ctx context.Context, s *session, m *measured, rec *spanRecorder, probeP50 float64) error {
	t := &layerTimer{rec: rec}
	req := s.w.request(s, 0, 0)
	budgets, eps, k := req.Budgets, req.Eps, req.Budgets[0]
	nproc := runtime.GOMAXPROCS(0)
	newRNG := func() *stats.RNG { return stats.NewRNG(req.Seed) }

	dir, err := os.MkdirTemp(filepath.Join(r.root, ".bench_build", "runs"), s.w.name+"-layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// expr + store graph codec: what set-up pays per graph.
	g, err := s.benchGraph(0)
	if err != nil {
		return err
	}
	c, err := t.sample("expr.generate", func() error {
		_, _, err := service.LoadGraph(&service.GraphRequest{Network: benchNetwork, Scale: s.scale, Seed: s.graphSeeds[0]})
		return err
	})
	if err != nil {
		return err
	}
	m.set("expr.generate_ms", c.ms, "ms")
	c, _ = t.sample("store.graph_id", func() error { store.GraphID(g); return nil })
	m.set("store.graph_id_ms", c.ms, "ms")
	var wmg bytes.Buffer
	if c, err = t.sample("store.encode_graph", func() error { wmg.Reset(); return store.EncodeGraph(&wmg, benchNetwork, g) }); err != nil {
		return err
	}
	m.set("store.encode_graph_ms", c.ms, "ms")
	if c, err = t.sample("store.decode_graph", func() error {
		_, _, err := store.DecodeGraph(bytes.NewReader(wmg.Bytes()))
		return err
	}); err != nil {
		return err
	}
	m.set("store.decode_graph_ms", c.ms, "ms")

	// prima.build: the cold path. The daemon's own spans (already in the
	// program) split each build into sampling and selection, so the
	// layer's self time is what is left.
	popts := prima.Options{Eps: eps, Cascade: graph.CascadeIC, Workers: nproc}
	var sk *prima.Sketch
	var selfMS []float64
	c, err = t.sample("prima.build", func() error {
		tr := telemetry.NewTrace("bench-layer", true)
		start := time.Now()
		sk, err = prima.BuildSketchCtx(telemetry.NewContext(ctx, tr), g, budgets, popts, newRNG())
		self := ms(time.Since(start))
		for _, child := range []string{"rrset_grow_parallel", "rrset_grow", "greedy_select"} {
			self -= tr.Stages()[child].TotalMS
		}
		selfMS = append(selfMS, self)
		return err
	})
	if err != nil {
		return err
	}
	theta := int64(sk.NumRRSets())
	m.set("prima.build_ms", c.ms, "ms")
	m.set("prima.build_rr_sets", float64(theta), "count")
	m.set("prima.build_self_ms", median(selfMS), "ms")

	// rrset.grow: sampling theta sets into a fresh collection, at nproc
	// workers and at one (the scaling the parallel grower buys).
	grow := func(workers int) func() error {
		return func() error {
			col := rrset.NewCollection(g)
			return col.GrowParallelCtx(ctx, theta, newRNG(), workers, nil)
		}
	}
	par, err := t.sample("rrset.grow", grow(nproc))
	if err != nil {
		return err
	}
	ser, err := t.sample("rrset.grow_serial", grow(1))
	if err != nil {
		return err
	}
	m.set("rrset.grow_ms", par.ms, "ms")
	m.set("rrset.grow_sets_per_s", float64(theta)/(par.ms/1000), "1/s")
	m.set("rrset.grow_alloc_mb", par.allocBytes/(1<<20), "MB")
	m.set("rrset.grow_allocs", par.allocs, "count")
	m.set("rrset.grow_speedup", ser.ms/par.ms, "ratio")

	// Selection on the built collection, bare and through each wrapper.
	c, _ = t.sample("rrset.select", func() error { sk.Col.NodeSelection(k); return nil })
	m.set("rrset.select_ms", c.ms, "ms")
	m.set("rrset.select_alloc_kb", c.allocBytes/1024, "KB")
	c, _ = t.sample("prima.select", func() error { sk.Select(); return nil })
	m.set("prima.select_ms", c.ms, "ms")
	prob, err := core.NewProblem(g, utility.Config1(), budgets)
	if err != nil {
		return err
	}
	planner, _, err := core.Lookup(benchAlgo)
	if err != nil {
		return err
	}
	sp, ok := planner.(core.BatchSketchPlanner)
	if !ok {
		return fmt.Errorf("bench: planner %s has no sketch seam", benchAlgo)
	}
	if c, err = t.sample("core.plan_from_sketch", func() error { _, err := sp.PlanFromSketch(prob, sk); return err }); err != nil {
		return err
	}
	m.set("core.plan_from_sketch_ms", c.ms, "ms")
	m.set("core.plan_from_sketch_alloc_kb", c.allocBytes/1024, "KB")

	// The two other ways the same index comes to exist.
	if c, err = t.sample("rrset.restore", func() error {
		_, err := rrset.Restore(g, sk.Col.Members(), sk.Col.Offsets())
		return err
	}); err != nil {
		return err
	}
	m.set("rrset.restore_ms", c.ms, "ms")
	m.set("rrset.restore_alloc_mb", c.allocBytes/(1<<20), "MB")
	c, _ = t.sample("rrset.clone", func() error { sk.Col.Clone(); return nil })
	m.set("rrset.clone_ms", c.ms, "ms")
	m.set("rrset.clone_alloc_mb", c.allocBytes/(1<<20), "MB")

	// prima.extend: one budget_creep step (budget k → k+10).
	wider := []int{k + 10, k + 10}
	var ext *prima.Sketch
	if c, err = t.sample("prima.extend", func() error {
		ext, err = prima.ExtendSketchCtx(ctx, g, sk, budgets, popts, wider, popts, newRNG())
		return err
	}); err != nil {
		return err
	}
	m.set("prima.extend_ms", c.ms, "ms")
	m.set("prima.extend_appended_frac", float64(ext.NumRRSets()-sk.NumRRSets())/float64(ext.NumRRSets()), "ratio")

	// store sketch codec, in memory and through the disk tier.
	var wms bytes.Buffer
	if c, err = t.sample("store.encode_sketch", func() error { wms.Reset(); return store.EncodeSketch(&wms, sk) }); err != nil {
		return err
	}
	m.set("store.encode_sketch_ms", c.ms, "ms")
	m.set("store.sketch_file_kb", float64(wms.Len())/1024, "KB")
	if c, err = t.sample("store.decode_sketch", func() error {
		_, err := store.DecodeSketch(bytes.NewReader(wms.Bytes()), g)
		return err
	}); err != nil {
		return err
	}
	m.set("store.decode_sketch_ms", c.ms, "ms")
	m.set("store.decode_sketch_alloc_mb", c.allocBytes/(1<<20), "MB")
	disk, err := store.Open(dir, 0)
	if err != nil {
		return err
	}
	canonical := prima.CanonicalBudgets(budgets, g.N())
	gid, key := s.graphIDs[0], service.SketchKey(s.graphIDs[0], "prima", int(graph.CascadeIC), eps, 1, canonical)
	if c, err = t.sample("store.save_sketch", func() error { return disk.SaveSketch(gid, key, sk) }); err != nil {
		return err
	}
	m.set("store.save_sketch_ms", c.ms, "ms")
	if c, err = t.sample("store.load_sketch", func() error {
		if disk.LoadSketch(gid, key, g, 0) == nil {
			return fmt.Errorf("spilled sketch did not load back")
		}
		return nil
	}); err != nil {
		return err
	}
	m.set("store.load_sketch_ms", c.ms, "ms")

	// batch: what a lone request waits in the gather window.
	sched := batch.New(batchWindow)
	if c, err = t.sample("batch.gather_wait", func() error {
		_, _, _, err := sched.Submit(ctx, key, canonical, sp.MergeBudgets,
			func(context.Context, []int) (any, bool, error) { return sk, false, nil })
		return err
	}); err != nil {
		return err
	}
	m.set("batch.gather_wait_ms", c.ms, "ms")

	// service: the whole warm request in-process, no HTTP.
	svc, err := service.New(service.Options{Workers: 2, BatchWindow: batchWindow})
	if err != nil {
		return err
	}
	defer svc.Close()
	entry, _, err := svc.RegisterGraph(benchNetwork, g)
	if err != nil {
		return err
	}
	areq := &service.AllocateRequest{GraphID: entry.ID, Algo: benchAlgo, Budgets: budgets, Eps: eps, Seed: req.Seed}
	var last *service.AllocateResult
	if _, err := svc.AllocateCtx(ctx, areq, nil); err != nil { // builds the sketch
		return err
	}
	if c, err = t.sample("service.allocate_warm", func() error {
		last, err = svc.AllocateCtx(ctx, areq, nil)
		return err
	}); err != nil {
		return err
	}
	if !last.SketchCached {
		return fmt.Errorf("bench: in-process warm allocate missed its sketch")
	}
	m.set("service.allocate_warm_ms", c.ms, "ms")
	m.set("service.allocate_warm_alloc_kb", c.allocBytes/1024, "KB")
	m.set("service.http_overhead_ms", probeP50-c.ms, "ms")

	// journal, tracestore: the observability stores' per-record price.
	const burst = 1000
	flight, err := journal.New(journal.Options{})
	if err != nil {
		return err
	}
	defer flight.Close()
	c, _ = t.sample("journal.record", func() error {
		for i := 0; i < burst; i++ {
			flight.Record(journal.Event{Type: journal.BatchFire, Graph: gid, Count: int64(i)})
		}
		return nil
	})
	m.set("journal.record_us", c.ms*1000/burst, "us")
	traces, err := tracestore.New(tracestore.Options{SampleAll: true})
	if err != nil {
		return err
	}
	defer traces.Close()
	c, _ = t.sample("tracestore.add", func() error {
		for i := 0; i < burst; i++ {
			traces.Add(tracestore.Record{TraceID: "bench", Route: "POST /v1/allocate", Graph: gid, DurationMS: 1})
		}
		return nil
	})
	m.set("tracestore.add_us", c.ms*1000/burst, "us")

	// uic: the estimator behind welfare_mean (off the clock).
	const estRuns = 500
	c, _ = t.sample("uic.estimate", func() error {
		uic.EstimateWelfareParallelCascade(g, utility.Config1(), graph.CascadeIC, last.Allocation.Allocation(), stats.NewRNG(welfareSeed), estRuns, nproc)
		return nil
	})
	m.set("uic.estimate_runs_per_s", estRuns/(c.ms/1000), "1/s")
	return nil
}
