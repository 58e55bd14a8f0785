package service

import (
	"context"
	"fmt"
	"log"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"uicwelfare/internal/core"
	"uicwelfare/internal/graph"
	"uicwelfare/internal/journal"
	"uicwelfare/internal/progress"
	"uicwelfare/internal/resolve"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/store"
	"uicwelfare/internal/telemetry"
	"uicwelfare/internal/tracestore"
	"uicwelfare/internal/uic"
	"uicwelfare/internal/utility"
)

// Options configures a Service.
type Options struct {
	// Workers is the allocation/estimation worker-pool size (default 2).
	Workers int
	// SketchWorkers is the RR-set growth parallelism inside each sketch
	// build (welmaxd -sketch-workers): this many goroutines claim the
	// grow's chunks, each sampled from its own seeded stream, so answers
	// do not depend on it. 0 (the default) resolves to GOMAXPROCS.
	SketchWorkers int
	// QueueCap bounds the job queue (default 64).
	QueueCap int
	// CacheEntries bounds the sketch cache (default 64).
	CacheEntries int
	// CacheMB bounds the in-memory sketch cache by approximate resident
	// cost in megabytes (0 = entry bound only).
	CacheMB int
	// JobRetention bounds how many finished jobs stay queryable
	// (default 1024).
	JobRetention int
	// MaxGraphs bounds the graph registry (default 64).
	MaxGraphs int
	// AllowPathLoads permits POST /v1/graphs requests naming
	// server-side files. Off by default: an unauthenticated daemon
	// must not let remote callers open arbitrary local paths.
	AllowPathLoads bool
	// DataDir enables the persistence tier: graphs are stored
	// content-addressed under <DataDir>/graphs, completed sketch builds
	// are spilled under <DataDir>/sketches, and New re-indexes both so a
	// restarted daemon keeps its graph ids and answers its first repeated
	// allocate from a warm path. Empty keeps today's purely in-memory
	// behavior.
	DataDir string
	// DiskMB bounds the spilled-sketch tier in megabytes (0 = unbounded);
	// only meaningful with DataDir set.
	DiskMB int
	// CacheTTL bounds how long a completed in-memory sketch stays
	// servable (0 = forever); expired entries read as misses and are
	// counted in /v1/stats.
	CacheTTL time.Duration
	// NodeID names this backend inside a cluster. When set, job ids are
	// minted as "<NodeID>-j<seq>" so the routing tier can map a job id
	// back to its backend, and GET /v1/healthz reports it so the router
	// can verify it is probing the backend it thinks it is. Empty (the
	// single-node default) keeps plain "j<seq>" ids.
	NodeID string
	// BatchWindow caps how long the sketch resolver's batch scheduler
	// may hold a sketch miss behind an in-flight build of its group (see
	// internal/resolve). Zero (or negative) means DefaultBatchWindow;
	// batching cannot be turned off.
	BatchWindow time.Duration
	// AdmissionMB enables cost-based admission control: allocate and
	// warm requests whose predicted sketch cost (the planner's
	// core.Meta.CostEstimator, calibrated by observed builds) exceeds
	// this many megabytes are rejected with 429 and a retryable body
	// instead of queueing work that would blow the cache budget. Zero
	// disables admission (every request is queued).
	AdmissionMB int
	// ClusterToken, when set, is the shared secret the cluster-internal
	// endpoints (POST /v1/graphs/import and the sketch export/import
	// routes) require in the ClusterTokenHeader. Imported sketches become
	// authoritative for allocation results, so a backend reachable
	// beyond its private network should set this (the router attaches
	// the token to its own backend traffic and relays a client's token on
	// proxied requests). Empty skips the check — appropriate only when
	// backends listen on a private network.
	ClusterToken string
	// TelemetryOff disables span recording and histogram observation
	// (-telemetry=off). Trace ids are still minted and propagated — they
	// are too cheap and too useful for correlation to turn off — but
	// every StartSpan and metric observe becomes a no-op, which is what
	// the warm-path overhead benchmark measures against.
	TelemetryOff bool
	// SlowThreshold is the job duration at or above which a structured
	// slow-request log line is emitted (default 1s; < 0 disables).
	SlowThreshold time.Duration
	// TraceSample is the probability of keeping a completed trace that
	// was neither slow nor errored (those are always kept — tail
	// sampling). Zero keeps only the always-kept classes; 1 keeps
	// everything.
	TraceSample float64
}

// DefaultBatchWindow is the batch window a zero Options.BatchWindow
// resolves to, and the one welmaxd runs.
const DefaultBatchWindow = 10 * time.Millisecond

// Service owns the daemon's state: the graph registry, the sketch
// resolver, the job store, and the worker pool. Handler exposes it over
// HTTP.
type Service struct {
	registry     *Registry
	disk         *store.Store // nil without a data dir
	jobs         *JobStore
	pool         *Pool
	start        time.Time
	allowPaths   bool
	nodeID       string
	clusterToken string

	// sketchWorkers is the resolved RR-set growth parallelism handed to
	// every sketch build (Options.SketchWorkers, with 0 resolved to
	// GOMAXPROCS at construction).
	sketchWorkers int

	// res decides which RR sets answer a sketch request: the sketch
	// cache, the disk tier's sketch spills, the batch scheduler, extends,
	// phase-1 streams and the cost model all live behind it.
	res *resolve.Resolver
	// admissionBytes is the cost-based admission budget (0 = off);
	// admissionRejects counts 429s for /v1/stats.
	admissionBytes   int64
	admissionRejects atomic.Int64

	// sweeps runs POST /v1/sweeps grids as jobs of this service's store,
	// each cell an ordinary pool job (see newSweepEngine).
	sweeps *SweepEngine

	// telemetryOn gates span recording and histogram observation;
	// metrics is the latency-histogram registry /v1/metrics serves
	// (always non-nil, so observe sites need no nil checks);
	// slowThreshold is the slow-request log cutoff and slowLogf the log
	// sink (a test seam; defaults to log.Printf).
	telemetryOn   bool
	metrics       *telemetry.Metrics
	slowThreshold time.Duration
	slowLogf      func(format string, args ...any)

	// flight is the control-plane flight recorder: admission verdicts,
	// cache evictions/expiries, job spills land here and are served by
	// GET /v1/events. Always non-nil.
	flight *journal.Recorder

	// traces retains completed request traces (span trees) for GET
	// /v1/traces, tail-sampled; nil when telemetry is off (a nil store
	// keeps nothing, so record sites need no gate of their own).
	traces *tracestore.Store
}

// New assembles a Service and starts its worker pool. With a data
// directory configured it also opens the disk tier and re-indexes it:
// every readable stored graph is registered under its content id (up to
// the registry bound), so clients' graph ids — and the sketch-cache keys
// derived from them — survive restarts.
func New(opts Options) (*Service, error) {
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.SketchWorkers <= 0 {
		opts.SketchWorkers = runtime.GOMAXPROCS(0)
	}
	if opts.BatchWindow <= 0 {
		opts.BatchWindow = DefaultBatchWindow
	}
	// Open the disk tier before starting the worker pool: a failed Open
	// must not leave the pool's goroutines running behind the error.
	var disk *store.Store
	if opts.DataDir != "" {
		var err error
		if disk, err = store.Open(opts.DataDir, opts.DiskMB); err != nil {
			return nil, err
		}
	}
	s := &Service{
		registry:       NewRegistry(opts.MaxGraphs),
		disk:           disk,
		jobs:           NewJobStore(opts.JobRetention),
		pool:           NewPool(opts.Workers, opts.QueueCap),
		start:          time.Now(),
		allowPaths:     opts.AllowPathLoads,
		nodeID:         opts.NodeID,
		clusterToken:   opts.ClusterToken,
		sketchWorkers:  opts.SketchWorkers,
		admissionBytes: int64(opts.AdmissionMB) << 20,
		telemetryOn:    !opts.TelemetryOff,
		metrics:        telemetry.NewMetrics(),
		slowThreshold:  opts.SlowThreshold,
		slowLogf:       log.Printf,
	}
	if s.slowThreshold == 0 {
		s.slowThreshold = time.Second
	}
	// The flight recorder journals control-plane decisions. The ring is
	// in-memory and always on; a data dir additionally spills segments.
	var journalDir string
	if opts.DataDir != "" {
		journalDir = filepath.Join(opts.DataDir, "journal")
	}
	flight, err := journal.New(journal.Options{Node: opts.NodeID, Dir: journalDir})
	if err != nil {
		return nil, err
	}
	s.flight = flight
	// The trace store follows the telemetry switch: without spans there
	// is nothing worth retaining. A data dir additionally spills
	// CRC-framed segments under <DataDir>/traces.
	if s.telemetryOn {
		var traceDir string
		if opts.DataDir != "" {
			traceDir = filepath.Join(opts.DataDir, "traces")
		}
		s.traces, err = tracestore.New(tracestore.Options{
			Node:       opts.NodeID,
			SampleRate: opts.TraceSample,
			Dir:        traceDir,
		})
		if err != nil {
			flight.Close()
			return nil, err
		}
	}
	cache := resolve.NewSketchCache(opts.CacheEntries, int64(opts.CacheMB)<<20, opts.CacheTTL, store.SketchCost)
	s.res = resolve.New(cache, disk, opts.BatchWindow, flight, func(graphID string) bool {
		_, ok := s.registry.Get(graphID)
		return ok
	})
	s.sweeps = s.newSweepEngine()
	s.jobs.SetNodeID(opts.NodeID)
	if disk != nil {
		// Terminal jobs spill to the audit trail; append failures are
		// counted in the disk tier's spill errors, never fail the job.
		s.jobs.SetFinalSink(func(v JobView) {
			err := disk.AppendJobRecord(v)
			ev := journal.Event{Type: journal.JobSpill, Job: v.ID, TraceID: v.TraceID}
			if err != nil {
				ev.Error = err.Error()
			}
			s.flight.Record(ev)
		})
		for _, sg := range disk.LoadGraphs() {
			if _, _, err := s.registry.AddWithID(sg.ID, sg.Name, sg.Graph); err != nil {
				break // registry full: keep what fit
			}
		}
		// The boot-time re-index is itself a control-plane event: record
		// how many terminal job records the resurrected audit trail
		// carries, so an operator can see a restart (and its recovered
		// history) in the same stream as everything else.
		if n := len(disk.JobHistory()); n > 0 {
			s.flight.Record(journal.Event{Type: journal.JobReplay, Count: int64(n)})
		}
	}
	return s, nil
}

// Close drains the worker pool and flushes the flight recorder and the
// trace store.
func (s *Service) Close() {
	s.pool.Close()
	s.flight.Close()
	s.traces.Close()
}

// Traces exposes the trace store (nil with telemetry off; handlers go
// through GET /v1/traces).
func (s *Service) Traces() *tracestore.Store { return s.traces }

// Journal exposes the control-plane flight recorder (the events
// endpoint, gauges, and tests read it; emitters hold the Service).
func (s *Service) Journal() *journal.Recorder { return s.flight }

// ResetSketchCache drops all cached in-memory sketches and phase-1
// streams (used by the cold-path benchmark). Safe to call while
// requests are in flight.
func (s *Service) ResetSketchCache() { s.res.Cache.Reset() }

// Registry exposes the graph registry (used by tests; registration that
// should persist goes through RegisterGraph).
func (s *Service) Registry() *Registry { return s.registry }

// RegisterGraph adds a graph to the registry under its content id and,
// when the disk tier is enabled, persists it so a restart re-registers
// it under the same id. A duplicate of a resident graph dedupes to the
// existing entry (existed = true) without touching disk.
func (s *Service) RegisterGraph(name string, g *graph.Graph) (entry *GraphEntry, existed bool, err error) {
	entry, existed, err = s.registry.Add(name, g)
	if err != nil || existed {
		return entry, existed, err
	}
	if s.disk != nil {
		// Persistence is best-effort: on a write error the graph is still
		// resident and usable, a restart simply won't have it. After the
		// write, re-check for a concurrent DELETE — its disk sweep may
		// have run before our SaveGraph, and an orphaned graph file would
		// resurrect the deleted graph at every restart.
		_ = s.disk.SaveGraph(entry.ID, entry.Name, entry.Graph)
		if _, ok := s.registry.Get(entry.ID); !ok {
			s.disk.DeleteGraph(entry.ID)
		}
	}
	return entry, false, nil
}

// DeleteGraph removes a graph from the registry, drops its cached
// sketches, and deletes its persisted artifacts (graph file and spilled
// sketches). It reports whether the graph existed.
func (s *Service) DeleteGraph(id string) bool {
	if !s.registry.Delete(id) {
		return false
	}
	s.res.DropGraph(id)
	return true
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	// Node is the backend's cluster node id; empty on a single-node
	// daemon.
	Node        string             `json:"node,omitempty"`
	Graphs      int                `json:"graphs"`
	SketchCache resolve.CacheStats `json:"sketch_cache"`
	// DiskTier reports the persistence tier's counters; nil when the
	// daemon runs without -data-dir.
	DiskTier *store.Stats `json:"disk_tier,omitempty"`
	// Batch reports the budget-coalescing scheduler and the cost-based
	// admission control (admission fields zero when it is disabled).
	Batch resolve.BatchStats `json:"batch"`
	// Sweeps reports the experiment-sweep subsystem's cell counters.
	Sweeps SweepStats `json:"sweeps"`
	// Phase1 reports the resident phase-1 streams the builds' θ rules
	// read.
	Phase1      resolve.Phase1Stats `json:"phase1"`
	Jobs        map[JobState]int    `json:"jobs"`
	Workers     int                 `json:"workers"`
	BusyWorkers int                 `json:"busy_workers"`
	QueueDepth  int                 `json:"queue_depth"`
	QueueCap    int                 `json:"queue_cap"`
	UptimeMS    int64               `json:"uptime_ms"`
}

// Stats snapshots the service counters.
func (s *Service) Stats() StatsResponse {
	out := StatsResponse{
		Node:        s.nodeID,
		Graphs:      s.registry.Len(),
		Jobs:        s.jobs.CountByState(),
		Workers:     s.pool.Workers(),
		BusyWorkers: s.pool.Busy(),
		QueueDepth:  s.pool.QueueDepth(),
		QueueCap:    s.pool.QueueCap(),
		UptimeMS:    time.Since(s.start).Milliseconds(),
	}
	if s.disk != nil {
		ds := s.disk.Stats()
		out.DiskTier = &ds
	}
	out.SketchCache = s.res.Cache.Stats()
	out.Batch, out.Phase1 = s.res.Stats()
	out.Batch.AdmissionRejects, out.Batch.AdmissionMaxBytes = s.admissionRejects.Load(), s.admissionBytes
	out.Sweeps = s.sweeps.Stats()
	return out
}

// HealthzResponse is the body of GET /v1/healthz: the lightweight
// liveness probe the cluster router polls. Node echoes the backend's
// -node id so the router can detect a miswired topology (probing b1 at
// b0's address) instead of silently routing jobs to the wrong shard.
type HealthzResponse struct {
	Status   string `json:"status"`
	Node     string `json:"node,omitempty"`
	Graphs   int    `json:"graphs"`
	UptimeMS int64  `json:"uptime_ms"`
}

// Healthz snapshots the liveness view.
func (s *Service) Healthz() HealthzResponse {
	return HealthzResponse{
		Status:   "ok",
		Node:     s.nodeID,
		Graphs:   s.registry.Len(),
		UptimeMS: time.Since(s.start).Milliseconds(),
	}
}

// allocatePlan is a validated AllocateRequest resolved to its problem
// instance, registry planner, and options.
type allocatePlan struct {
	prob    *core.Problem
	planner core.Planner
	meta    core.Meta
	opts    core.Options
	seed    uint64
}

// validateAllocate resolves the parts of an AllocateRequest that can be
// rejected synchronously (unknown graph/algo/config/cascade, budget
// mismatch), so bad requests fail with 400 instead of a failed job. The
// algorithm name resolves through the core planner registry — the same
// dispatch the job itself uses, so the two cannot disagree.
func (s *Service) validateAllocate(req *AllocateRequest) (*allocatePlan, error) {
	entry, ok := s.registry.Get(req.GraphID)
	if !ok {
		return nil, fmt.Errorf("unknown graph %q", req.GraphID)
	}
	if len(req.Budgets) == 0 {
		return nil, fmt.Errorf("budgets required")
	}
	planner, meta, err := core.Lookup(req.Algo)
	if err != nil {
		return nil, err
	}
	cascade, err := ParseCascade(req.Cascade)
	if err != nil {
		return nil, err
	}
	if err := checkWorkload(len(req.Budgets), req.Items, req.Runs, req.Workers); err != nil {
		return nil, err
	}
	if req.Eps != 0 && req.Eps < MinEps {
		return nil, fmt.Errorf("eps %g below the minimum of %g (omit or 0 for the default)", req.Eps, MinEps)
	}
	if req.Ell < 0 || req.Ell > MaxEll {
		return nil, fmt.Errorf("ell %g outside (0, %g] (omit or 0 for the default)", req.Ell, MaxEll)
	}
	model, err := BuildModel(req.Config, req.Items, len(req.Budgets), seedOf(req.Seed))
	if err != nil {
		return nil, err
	}
	prob, err := core.NewProblem(entry.Graph, model, req.Budgets)
	if err != nil {
		return nil, err
	}
	if req.Runs > 0 {
		// The inline welfare estimate walks every (seed, item) pair per
		// run; cap the pair count like the estimate endpoint does.
		pairs := 0
		for _, b := range req.Budgets {
			pairs += min(b, entry.Graph.N())
			if pairs > MaxSeedPairs {
				return nil, fmt.Errorf("budgets yield over %d seed pairs; set runs=0 or shrink budgets", MaxSeedPairs)
			}
		}
	}
	return &allocatePlan{
		prob:    prob,
		planner: planner,
		meta:    meta,
		opts:    core.Options{Eps: req.Eps, Ell: req.Ell, Cascade: cascade, SketchWorkers: s.sketchWorkers},
		seed:    seedOf(req.Seed),
	}, nil
}

// checkWorkload rejects parameters that could exhaust the host: item
// counts blow up the 2^k utility table, and runs/workers directly size
// the Monte-Carlo estimator's work and goroutine count.
func checkWorkload(items, explicitItems, runs, workers int) error {
	if explicitItems > items {
		items = explicitItems
	}
	if items > MaxItems {
		return fmt.Errorf("%d items exceeds the limit of %d", items, MaxItems)
	}
	if runs > MaxRuns {
		return fmt.Errorf("%d runs exceeds the limit of %d", runs, MaxRuns)
	}
	if workers > MaxEstimateWorkers {
		return fmt.Errorf("%d estimate workers exceeds the limit of %d", workers, MaxEstimateWorkers)
	}
	return nil
}

func seedOf(s uint64) uint64 {
	if s == 0 {
		return 1
	}
	return s
}

// ResolveEpsEll applies the paper's approximation-parameter defaults
// (ε = 0.5, ℓ = 1) to unset request values. This is the single place
// the service-wide defaults live — the allocate/warm paths and
// admission pricing both resolve through it, so admission cannot price
// one sketch while the build keys another.
func ResolveEpsEll(eps, ell float64) (float64, float64) {
	if eps <= 0 {
		eps = 0.5
	}
	if ell <= 0 {
		ell = 1
	}
	return eps, ell
}

// Allocate synchronously solves one allocation request with no
// cancellation or progress reporting (the warm-path benchmarks and the
// tests use this).
func (s *Service) Allocate(req *AllocateRequest) (*AllocateResult, error) {
	return s.AllocateCtx(context.Background(), req, nil)
}

// SketchKey is the sketch-cache key (resolve.Key) of a request at the
// default seed. It is kept only for the benchmark module, which is
// pinned to this six-argument form; everything else keys through
// resolve.Key with the request's seed.
func SketchKey(graphID, family string, cascade int, eps, ell float64, budgets []int) string {
	return resolve.Key(graphID, family, cascade, eps, ell, seedOf(0), budgets)
}

// sketchReq is the resolver request for a validated plan of a sketch
// planner (sp nil prices a planner with no sketch; see
// resolve.Resolver.Price).
func (s *Service) sketchReq(graphID string, sp core.SketchPlanner, plan *allocatePlan) resolve.Req {
	opts := plan.opts
	opts.Eps, opts.Ell = ResolveEpsEll(opts.Eps, opts.Ell)
	return resolve.Req{GraphID: graphID, Planner: sp, Meta: plan.meta, Problem: plan.prob, Opts: opts, Seed: plan.seed}
}

// AllocateCtx solves one allocation request under ctx, reporting
// progress through report (which may be nil). Dispatch goes through the
// core planner registry; for planners with the SketchPlanner capability
// the sketch resolver decides which RR sets answer the request (see
// resolve.Resolver.Resolve), the rest run their Plan directly.
// Cancellation: ctx is threaded through sketch construction, cache
// waits, and the inline welfare estimate, so a canceled context aborts
// the request promptly with ctx.Err(). A canceled cache build caches
// nothing — concurrent waiters for the same sketch receive the error and
// the next request rebuilds.
func (s *Service) AllocateCtx(ctx context.Context, req *AllocateRequest, report progress.Func) (*AllocateResult, error) {
	startT := time.Now()
	// A direct call (no HTTP layer, e.g. the benchmarks) carries no
	// trace; mint an owned one so span timings and histograms cover
	// this path too. The owner observes its own histograms at return —
	// HTTP-minted traces are observed by finishJob instead.
	tr := telemetry.FromContext(ctx)
	ownedTrace := tr == nil && s.telemetryOn
	if ownedTrace {
		tr = telemetry.NewTrace(telemetry.NewTraceID(), true)
		ctx = telemetry.NewContext(ctx, tr)
	}
	plan, err := s.validateAllocate(req)
	if err != nil {
		return nil, err
	}
	tr.SetFamily(planFamily(plan.meta))
	plan.opts.Progress = report
	prob, opts, seed := plan.prob, plan.opts, plan.seed

	var (
		res core.Result
		hit bool
	)
	if sp, ok := plan.planner.(core.SketchPlanner); ok {
		v, cached, err := s.res.Resolve(ctx, s.sketchReq(req.GraphID, sp, plan))
		if err != nil {
			return nil, err
		}
		hit = cached
		endSel := telemetry.StartSpan(ctx, "greedy_select")
		res, err = sp.PlanFromSketchProgress(prob, v, report)
		endSel()
		if err != nil {
			return nil, err
		}
	} else {
		res, err = plan.planner.Plan(ctx, prob, opts, stats.NewRNG(seed))
		if err != nil {
			return nil, err
		}
	}

	out := NewAllocateResult(plan.meta.Name, res)
	out.SketchCached = hit
	if req.Runs > 0 {
		endEst := telemetry.StartSpan(ctx, "estimate")
		est, err := uic.EstimateWelfareParallelCascadeCtx(ctx, prob.G, prob.Model, opts.Cascade, res.Alloc,
			stats.NewRNG(seed+1), req.Runs, req.Workers, report)
		endEst()
		if err != nil {
			return nil, err
		}
		out.Welfare = &WelfareDTO{Mean: est.Mean, StdErr: est.StdErr, Runs: est.Runs}
	}
	out.ElapsedMS = time.Since(startT).Milliseconds()
	if ownedTrace {
		s.observeTrace("allocate", tr, time.Since(startT))
	}
	return out, nil
}

// planFamily labels a plan's traces and stage histograms: the sketch
// family when the planner has one, the algorithm name otherwise.
func planFamily(meta core.Meta) string {
	if meta.SketchFamily != "" {
		return meta.SketchFamily
	}
	return meta.Name
}

// validateWarm resolves a warm request against the same checks as an
// allocation, additionally requiring a sketch-capable algorithm —
// warming a planner with no reusable sketch would build nothing a later
// request could reuse.
func (s *Service) validateWarm(graphID string, req *WarmRequest) (*allocatePlan, core.SketchPlanner, error) {
	plan, err := s.validateAllocate(&AllocateRequest{
		GraphID: graphID,
		Algo:    req.Algo,
		Config:  req.Config,
		Items:   req.Items,
		Budgets: req.Budgets,
		Eps:     req.Eps,
		Ell:     req.Ell,
		Cascade: req.Cascade,
		Seed:    req.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	sp, ok := plan.planner.(core.SketchPlanner)
	if !ok {
		return nil, nil, fmt.Errorf("algorithm %q has no cacheable sketch to warm", plan.meta.Name)
	}
	return plan, sp, nil
}

// WarmCtx prebuilds the sketch an equivalent allocate request would
// need, through the same sketch resolver, and runs its selection once,
// so a later allocation starts warm — as does, short of the selection, a
// daemon restart followed by one, since completed builds spill to the
// disk tier. It runs as an ordinary cancelable job.
func (s *Service) WarmCtx(ctx context.Context, graphID string, req *WarmRequest, report progress.Func) (*WarmResult, error) {
	startT := time.Now()
	plan, sp, err := s.validateWarm(graphID, req)
	if err != nil {
		return nil, err
	}
	telemetry.FromContext(ctx).SetFamily(planFamily(plan.meta))
	plan.opts.Progress = report
	sketch, hit, err := s.res.Resolve(ctx, s.sketchReq(graphID, sp, plan))
	if err != nil {
		return nil, err
	}
	// Prime the sketch's memoised selection, so the first allocation on a
	// warmed sketch is already a prefix read.
	endSel := telemetry.StartSpan(ctx, "greedy_select")
	_, err = sp.PlanFromSketch(plan.prob, sketch)
	endSel()
	if err != nil {
		return nil, err
	}
	return &WarmResult{
		Algorithm:    plan.meta.Name,
		SketchFamily: plan.meta.SketchFamily,
		AlreadyWarm:  hit,
		NumRRSets:    sketch.NumRRSets(),
		ElapsedMS:    time.Since(startT).Milliseconds(),
	}, nil
}

// validateEstimate resolves the parts of an EstimateRequest that can be
// rejected synchronously.
func (s *Service) validateEstimate(req *EstimateRequest) (*GraphEntry, *uic.Allocation, *utility.Model, error) {
	entry, ok := s.registry.Get(req.GraphID)
	if !ok {
		return nil, nil, nil, fmt.Errorf("unknown graph %q", req.GraphID)
	}
	if len(req.Allocation.Seeds) == 0 {
		return nil, nil, nil, fmt.Errorf("allocation required")
	}
	if _, err := ParseCascade(req.Cascade); err != nil {
		return nil, nil, nil, err
	}
	if err := checkWorkload(len(req.Allocation.Seeds), req.Items, req.Runs, req.Workers); err != nil {
		return nil, nil, nil, err
	}
	// Range-check the raw wire values: converting first would let ids
	// beyond int32 silently truncate into valid node ids. Also bound the
	// total pair count — every Monte-Carlo run walks every pair.
	pairs := 0
	for _, seeds := range req.Allocation.Seeds {
		pairs += len(seeds)
		if pairs > MaxSeedPairs {
			return nil, nil, nil, fmt.Errorf("allocation exceeds %d seed pairs", MaxSeedPairs)
		}
		for _, v := range seeds {
			if v < 0 || v >= int64(entry.Graph.N()) {
				return nil, nil, nil, fmt.Errorf("seed node %d out of range [0, %d)", v, entry.Graph.N())
			}
		}
	}
	alloc := req.Allocation.Allocation()
	model, err := BuildModel(req.Config, req.Items, alloc.K(), seedOf(req.Seed))
	if err != nil {
		return nil, nil, nil, err
	}
	if model.K() != alloc.K() {
		return nil, nil, nil, fmt.Errorf("allocation has %d items, configuration %q has %d",
			alloc.K(), req.Config, model.K())
	}
	return entry, alloc, model, nil
}

// EstimateCtx runs one estimation request under ctx, reporting progress
// through report (which may be nil); a canceled context aborts the
// Monte-Carlo loop promptly with ctx.Err(). The estimator is seeded by
// the request, so identical requests get identical answers.
func (s *Service) EstimateCtx(ctx context.Context, req *EstimateRequest, report progress.Func) (*EstimateResult, error) {
	startT := time.Now()
	entry, alloc, model, err := s.validateEstimate(req)
	if err != nil {
		return nil, err
	}
	cascade, _ := ParseCascade(req.Cascade)
	runs := req.Runs
	if runs <= 0 {
		runs = 10000
	}
	endEst := telemetry.StartSpan(ctx, "estimate")
	est, err := uic.EstimateWelfareParallelCascadeCtx(ctx, entry.Graph, model, cascade, alloc,
		stats.NewRNG(seedOf(req.Seed)), runs, req.Workers, report)
	endEst()
	if err != nil {
		return nil, err
	}
	return &EstimateResult{
		Welfare:   WelfareDTO{Mean: est.Mean, StdErr: est.StdErr, Runs: est.Runs},
		ElapsedMS: time.Since(startT).Milliseconds(),
	}, nil
}
