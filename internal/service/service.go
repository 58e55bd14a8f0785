package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"uicwelfare/internal/batch"
	"uicwelfare/internal/core"
	"uicwelfare/internal/graph"
	"uicwelfare/internal/journal"
	"uicwelfare/internal/progress"
	"uicwelfare/internal/rrset"
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
	// BatchWindow caps how long the budget-coalescing batch scheduler
	// (internal/batch) may hold a sketch miss. Every miss goes through
	// it: a miss whose group — same graph, sketch family, cascade, ε, ℓ;
	// budgets free — has no build in flight builds at once on its own
	// budgets. Misses arriving while that build runs share it when it
	// dominates them, and otherwise merge into one follow-up that
	// extends the finished sketch the moment the build returns, or when
	// BatchWindow elapses if the build is still running. Zero (or
	// negative) means DefaultBatchWindow; batching cannot be turned off.
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

// Service owns the daemon's state: the graph registry, the RR-sketch
// cache (in-memory tier plus optional disk tier), the job store, and the
// worker pool. Handler exposes it over HTTP.
type Service struct {
	registry     *Registry
	cache        *SketchCache
	disk         *store.Store // nil without a data dir
	jobs         *JobStore
	pool         *Pool
	start        time.Time
	allowPaths   bool
	nodeID       string
	clusterToken string
	cacheTTL     time.Duration

	// sketchWorkers is the resolved RR-set growth parallelism handed to
	// every sketch build (Options.SketchWorkers, with 0 resolved to
	// GOMAXPROCS at construction).
	sketchWorkers int

	// batcher coalesces concurrent mixed-budget sketch builds: every
	// sketch miss short of the degenerate whole-graph one resolves
	// through it.
	batcher     *batch.Scheduler
	batchWindow time.Duration
	// sketchExtends counts batched builds served by extending a resident
	// near-dominating sketch instead of cold-building; rrSetsAppended
	// counts the RR sets those extensions appended (the delta the cold
	// build would have resampled from zero).
	sketchExtends  atomic.Int64
	rrSetsAppended atomic.Int64
	// phase1Reused counts the phase-1 sets builds read off a resident
	// stream without sampling them (see lendPhase1).
	phase1Reused atomic.Int64
	// mergedIdx remembers, per batch group key, the budget vector and
	// cache key of the most recent batch-built sketch, so a later
	// request dominated by it is served from (and admitted against) the
	// resident dominating sketch instead of cold-building its
	// exact-budget one — without it, a repeat of any coalesced
	// request's budgets would rebuild while the dominating sketch sits
	// in the cache.
	mergedMu  sync.Mutex
	mergedIdx map[string]mergedSketch
	// admissionBytes is the cost-based admission budget (0 = off);
	// costModels calibrates the planners' a-priori cost estimates
	// against observed builds, per graph with a global fallback;
	// admissionRejects counts 429s for /v1/stats.
	admissionBytes   int64
	costModels       *store.CostModels
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
		cache:          NewSketchCache(opts.CacheEntries, int64(opts.CacheMB)<<20, opts.CacheTTL, store.SketchCost),
		disk:           disk,
		jobs:           NewJobStore(opts.JobRetention),
		pool:           NewPool(opts.Workers, opts.QueueCap),
		start:          time.Now(),
		allowPaths:     opts.AllowPathLoads,
		nodeID:         opts.NodeID,
		clusterToken:   opts.ClusterToken,
		cacheTTL:       opts.CacheTTL,
		batcher:        batch.New(opts.BatchWindow),
		batchWindow:    opts.BatchWindow,
		mergedIdx:      map[string]mergedSketch{},
		sketchWorkers:  opts.SketchWorkers,
		admissionBytes: int64(opts.AdmissionMB) << 20,
		costModels:     store.NewCostModels(),
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
	// Evictions and expiries are cache-lock-held callbacks; the journal
	// ring append is O(1) and non-blocking, which is why it is safe
	// here. The trace id is the evicting request's — the eviction is a
	// side effect of that request's insert, and carrying its id makes
	// the trace's control-plane fallout greppable (?trace=).
	s.cache.SetEvictHook(func(key string, cost int64, traceID string) {
		gid, _, _ := strings.Cut(key, "|")
		s.flight.Record(journal.Event{Type: journal.CacheEvict, Graph: gid, Key: key, Bytes: cost, TraceID: traceID})
	})
	// Journal every group that reaches its build: which group fired, how
	// many requests share the one sketch, how long they were held and
	// what released them. The hook runs on the build's goroutine; the
	// ring append is O(1) and non-blocking. The trace id is the group's
	// first submitter's.
	s.batcher.SetFireHook(func(f batch.Fire) {
		gid, _, _ := strings.Cut(f.Key, "|")
		s.flight.Record(journal.Event{
			Type:    journal.BatchFire,
			Graph:   gid,
			Key:     f.Key,
			Count:   int64(f.Waiters),
			WaitMS:  f.Wait.Milliseconds(),
			Reason:  f.Reason,
			TraceID: f.TraceID,
		})
	})
	s.sweeps = s.newSweepEngine()
	s.jobs.SetNodeID(opts.NodeID)
	// A TTL expiry must invalidate the disk spill too — otherwise the
	// "rebuild" reloads the identical stale sketch from disk and the
	// TTL never refreshes anything on a persistent daemon.
	s.cache.SetExpireHook(func(key string) {
		gid, _, _ := strings.Cut(key, "|")
		if disk != nil && gid != "" {
			disk.DeleteSketch(gid, key)
		}
		s.flight.Record(journal.Event{Type: journal.CacheExpire, Graph: gid, Key: key})
	})
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
func (s *Service) ResetSketchCache() { s.cache.Reset() }

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
	s.cache.InvalidateGraph(id)
	s.dropMergedForGraph(id)
	s.costModels.Forget(id)
	if s.disk != nil {
		s.disk.DeleteGraph(id)
	}
	return true
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	// Node is the backend's cluster node id; empty on a single-node
	// daemon.
	Node        string     `json:"node,omitempty"`
	Graphs      int        `json:"graphs"`
	SketchCache CacheStats `json:"sketch_cache"`
	// DiskTier reports the persistence tier's counters; nil when the
	// daemon runs without -data-dir.
	DiskTier *store.Stats `json:"disk_tier,omitempty"`
	// Batch reports the budget-coalescing scheduler and the cost-based
	// admission control (admission fields zero when it is disabled).
	Batch BatchStats `json:"batch"`
	// Sweeps reports the experiment-sweep subsystem's cell counters.
	Sweeps SweepStats `json:"sweeps"`
	// Phase1 reports the resident phase-1 streams the builds' θ rules
	// read.
	Phase1      Phase1Stats      `json:"phase1"`
	Jobs        map[JobState]int `json:"jobs"`
	Workers     int              `json:"workers"`
	BusyWorkers int              `json:"busy_workers"`
	QueueDepth  int              `json:"queue_depth"`
	QueueCap    int              `json:"queue_cap"`
	UptimeMS    int64            `json:"uptime_ms"`
}

// BatchStats is the /v1/stats view of the batch scheduler and the
// cost-based admission control. All sources are atomics or
// mutex-guarded snapshots — /v1/stats is served concurrently with
// allocates, so every counter read here must be synchronized with its
// writer.
type BatchStats struct {
	// Enabled is always true — every sketch miss resolves through the
	// scheduler — and stays on the wire for clients that read it.
	Enabled bool `json:"enabled"`
	// WindowMS is the configured batch window in milliseconds: the
	// longest a miss may be held behind an in-flight build of its group.
	WindowMS float64 `json:"window_ms,omitempty"`
	// Batched counts the sketch builds the scheduler ran, one per group.
	Batched int64 `json:"batched"`
	// HeldGroups counts the batched builds that first gathered behind an
	// in-flight build; the other Batched − HeldGroups started the moment
	// their request missed.
	HeldGroups int64 `json:"held_groups"`
	// CoalescedRequests counts requests beyond each batch's first that
	// were answered from a shared build instead of building their own
	// sketch.
	CoalescedRequests int64 `json:"coalesced_requests"`
	// SketchExtends counts batched builds served by extending a resident
	// near-dominating sketch (a delta-build) instead of cold-building;
	// RRSetsAppended counts the RR sets those extensions appended.
	SketchExtends  int64 `json:"sketch_extends"`
	RRSetsAppended int64 `json:"rr_sets_appended"`
	// AdmissionRejects counts requests refused with 429 because their
	// predicted sketch cost exceeded the admission budget.
	AdmissionRejects int64 `json:"admission_rejects"`
	// AdmissionMaxBytes is the configured admission budget (0 = off).
	AdmissionMaxBytes int64 `json:"admission_max_bytes,omitempty"`
	// CostRatio and CostSamples describe the cost-model calibration:
	// the learned observed/predicted ratio and how many completed
	// builds informed it.
	CostRatio   float64 `json:"cost_ratio"`
	CostSamples int     `json:"cost_samples"`
}

// Phase1Stats is the /v1/stats view of the resident phase-1 streams:
// one per (graph, cascade, seed), each the S₁ every PRIMA or IMM build
// on that triple reads its θ decision from (see lendPhase1). They live
// in the sketch cache's memory tier, under its entry bound and byte
// budget.
type Phase1Stats struct {
	// Streams counts the resident streams.
	Streams int `json:"streams"`
	// SetsReused counts the phase-1 sets builds read without sampling
	// them: each build's read prefix, minus what it grew.
	SetsReused int64 `json:"sets_reused"`
}

// Stats snapshots the service counters.
func (s *Service) Stats() StatsResponse {
	out := StatsResponse{
		Node:        s.nodeID,
		Graphs:      s.registry.Len(),
		SketchCache: s.cache.Stats(),
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
	bs := s.batcher.Stats()
	out.Batch = BatchStats{
		Enabled:           true,
		WindowMS:          float64(s.batchWindow) / float64(time.Millisecond),
		Batched:           bs.Batches,
		HeldGroups:        bs.Held,
		CoalescedRequests: bs.Coalesced,
		SketchExtends:     s.sketchExtends.Load(),
		RRSetsAppended:    s.rrSetsAppended.Load(),
		AdmissionRejects:  s.admissionRejects.Load(),
		AdmissionMaxBytes: s.admissionBytes,
	}
	out.Sweeps = s.sweeps.Stats()
	out.Phase1.Streams = s.cache.Streams()
	out.Phase1.SetsReused = s.phase1Reused.Load()
	out.Batch.CostRatio, out.Batch.CostSamples = s.costModels.Snapshot()
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

// ExportSketches streams the graph's completed in-memory sketches as a
// sketch-stream container (store.WriteSketchStreamEntry frames) — the
// payload one backend ships another so rebalancing a graph does not
// discard its warm-sketch work. Disk-tier spills are not exported: their
// cache keys are stored hashed, and anything recently used is resident
// in memory anyway. It returns how many sketches were written.
func (s *Service) ExportSketches(graphID string, w io.Writer) (int, error) {
	if _, ok := s.registry.Get(graphID); !ok {
		return 0, fmt.Errorf("unknown graph %q", graphID)
	}
	entries := s.cache.CompletedForGraph(graphID)
	for i, e := range entries {
		if err := store.WriteSketchStreamEntry(w, e.Key, e.Sketch); err != nil {
			return i, err
		}
	}
	return len(entries), nil
}

// ImportSketches reads a sketch-stream container into the graph's cache
// (and, with a data dir, the disk tier), so this backend starts warm for
// a graph it just received. Entries keyed for a different graph are
// rejected — a misrouted stream must not poison the cache — and entries
// whose key is already resident are skipped, not replaced.
func (s *Service) ImportSketches(graphID string, r io.Reader) (imported, skipped int, err error) {
	entry, ok := s.registry.Get(graphID)
	if !ok {
		return 0, 0, fmt.Errorf("unknown graph %q", graphID)
	}
	prefix := graphID + "|"
	_, err = store.ReadSketchStream(r, entry.Graph, func(key string, sketch *rrset.Sketch) error {
		if !strings.HasPrefix(key, prefix) {
			return fmt.Errorf("sketch key %q does not belong to graph %q", key, graphID)
		}
		if !s.cache.Put(key, sketch) {
			skipped++
			return nil
		}
		if s.disk != nil {
			_ = s.disk.SaveSketch(graphID, key, sketch) // best-effort, like local builds
		}
		imported++
		return nil
	})
	if err != nil {
		return imported, skipped, err
	}
	// Mirror sketchForPlan's delete race guard: if the graph vanished
	// while the stream was importing, sweep what we just inserted.
	if _, ok := s.registry.Get(graphID); !ok {
		s.cache.InvalidateGraph(graphID)
		if s.disk != nil {
			s.disk.DeleteGraph(graphID)
		}
	}
	return imported, skipped, nil
}

// allocatePlan is a validated AllocateRequest resolved to its problem
// instance, registry planner, and options.
type allocatePlan struct {
	prob    *core.Problem
	planner core.Planner
	meta    core.Meta
	opts    core.Options
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

// mergedSketch is one mergedIdx record: the canonical budget vector a
// batch build was sized for and the cache key it lives under.
type mergedSketch struct {
	budgets []int
	key     string
}

// maxMergedRecords bounds mergedIdx: group keys are request-controlled
// (ε, ℓ, cascade sweeps mint fresh ones), and unlike the sketch cache
// nothing else evicts these records, so without a cap the index would
// grow for the life of a graph.
const maxMergedRecords = 512

// recordMerged notes the group's latest batch-built sketch. Past the
// bound an arbitrary record is dropped — records are an advisory fast
// path, so losing one only costs a rebuild the cache may still absorb.
func (s *Service) recordMerged(groupKey string, budgets []int, key string) {
	s.mergedMu.Lock()
	if _, exists := s.mergedIdx[groupKey]; !exists && len(s.mergedIdx) >= maxMergedRecords {
		for k := range s.mergedIdx {
			delete(s.mergedIdx, k)
			break
		}
	}
	s.mergedIdx[groupKey] = mergedSketch{budgets: budgets, key: key}
	s.mergedMu.Unlock()
}

// lookupMerged returns the group's latest batch-built sketch record.
func (s *Service) lookupMerged(groupKey string) (mergedSketch, bool) {
	s.mergedMu.Lock()
	defer s.mergedMu.Unlock()
	rec, ok := s.mergedIdx[groupKey]
	return rec, ok
}

// dominatingMerged returns the cache key of the group's latest
// batch-built sketch when that sketch dominates budgets and is resident
// (completed or in flight): the one check by which admission waves a
// request through and the resolver serves it without new sketch work.
func (s *Service) dominatingMerged(groupKey string, merge batch.MergeFunc, budgets []int) (string, bool) {
	rec, ok := s.lookupMerged(groupKey)
	if !ok || !batch.Dominates(merge, rec.budgets, budgets) || !s.cache.Resident(rec.key) {
		return "", false
	}
	return rec.key, true
}

// dropMergedForGraph forgets a deleted graph's merged-sketch records
// (group keys start with "<graphID>|", like cache keys) so the index
// does not grow with long-dead graphs.
func (s *Service) dropMergedForGraph(graphID string) {
	prefix := graphID + "|"
	s.mergedMu.Lock()
	for k := range s.mergedIdx {
		if strings.HasPrefix(k, prefix) {
			delete(s.mergedIdx, k)
		}
	}
	s.mergedMu.Unlock()
}

// degenerateBudgets reports whether canonical sketch budgets hit the
// PRIMA/IMM builders' whole-graph shortcut (top budget >= n). Such a
// "build" samples nothing and returns the all-nodes identity ordering,
// which is only prefix-preserving for the full budget — so a degenerate
// request must never coalesce with sampled builds: merging would drag
// every group member's result onto the unsampled ordering. The resolver
// builds these requests directly instead, its one exit before the
// scheduler; they cost nothing to build, so there is nothing to
// coalesce anyway.
func degenerateBudgets(budgets []int, n int) bool {
	for _, b := range budgets {
		if b >= n {
			return true
		}
	}
	return false
}

// sweepIfDeleted re-checks a graph's residency after sketch work
// completed: the graph may have been deleted while the sketch was
// building — after the delete's sweeps already ran, so the memory entry
// and a just-written spill would otherwise outlive the deletion (the
// spill permanently: nothing else sweeps a deleted graph's sketch
// files). Sweeps both tiers when the graph is gone.
func (s *Service) sweepIfDeleted(graphID string) {
	if _, ok := s.registry.Get(graphID); !ok {
		s.cache.InvalidateGraph(graphID)
		s.dropMergedForGraph(graphID)
		if s.disk != nil {
			s.disk.DeleteGraph(graphID)
		}
	}
}

// inheritedCancel reports whether err is a cancellation or deadline
// expiry this request inherited from someone else's build through a
// shared cache entry or batch group, while its own ctx is still live.
// Such a request retries — becoming the new builder if need be —
// instead of failing a job nobody canceled.
func inheritedCancel(ctx context.Context, err error) bool {
	return ctx.Err() == nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// lookupResident serves a request from the in-memory tier without
// building: the exact-budget key first, then the group's resident
// merged sketch when it dominates budgets. Both lookups wait
// (cancelably) on an in-flight entry. found reports a resident entry;
// err is that entry's build error or ctx's own cancellation.
func (s *Service) lookupResident(ctx context.Context, key string, merge batch.MergeFunc, budgets []int) (sketch *rrset.Sketch, found bool, err error) {
	defer telemetry.StartSpan(ctx, "cache_lookup")()
	if sk, ok, err := s.cache.LookupCtx(ctx, key); ok {
		return sk, true, err
	}
	if mkey, ok := s.dominatingMerged(groupKeyOf(key), merge, budgets); ok {
		return s.cache.LookupCtx(ctx, mkey)
	}
	return nil, false, nil
}

// buildThroughTiers resolves key through the tiered cache: the
// in-memory tier first (with singleflight semantics), then — inside the
// build callback, so concurrent requesters share one disk read exactly
// like they share one build — the disk tier, and only then build, whose
// result is spilled back to disk. hit reports whether any tier avoided
// a rebuild.
func (s *Service) buildThroughTiers(ctx context.Context, graphID, key string, g *graph.Graph, build func(ctx context.Context) (*rrset.Sketch, error)) (sketch *rrset.Sketch, hit bool, err error) {
	var diskHit bool
	for {
		var memHit bool
		// The lookup span covers the in-memory tier only: it is ended
		// (idempotently) the moment the build callback starts, so a miss
		// that turns into a disk load or a fresh build does not inflate
		// the cache-lookup timing with build work.
		endLookup := telemetry.StartSpan(ctx, "cache_lookup")
		sketch, memHit, err = s.cache.GetOrBuildCtx(ctx, key, func() (*rrset.Sketch, error) {
			endLookup()
			if s.disk != nil {
				// The TTL bounds spill age too: a spill left by cost
				// eviction or a restart must not resurrect a sketch older
				// than the TTL promises.
				endLoad := telemetry.StartSpan(ctx, "disk_load")
				sk := s.disk.LoadSketch(graphID, key, g, s.cacheTTL)
				endLoad()
				if sk != nil {
					diskHit = true
					return sk, nil
				}
			}
			sk, err := build(ctx)
			if err == nil && s.disk != nil {
				// The spill persists the sketch's greedy selection: run
				// it first, under its own span, so sketch_spill times
				// only the encode and write, and every Select after it is
				// a prefix read.
				endSel := telemetry.StartSpan(ctx, "greedy_select")
				sk.Selection()
				endSel()
				endSpill := telemetry.StartSpan(ctx, "sketch_spill")
				_ = s.disk.SaveSketch(graphID, key, sk) // best-effort; failure only costs warmth
				endSpill()
			}
			return sk, err
		})
		endLookup()
		if err == nil {
			s.sweepIfDeleted(graphID)
			return sketch, memHit || diskHit, nil
		}
		// The dead singleflight entry has already been evicted: a waiter
		// that inherited its builder's cancellation retries here, because
		// inside the scheduler's detached group build sketchForPlan's own
		// retry never sees the error.
		if inheritedCancel(ctx, err) {
			continue
		}
		return nil, false, err
	}
}

// observeBuildCost feeds a completed fresh build into the cost-model
// calibration: predicted bytes (the planner's a-priori estimator on the
// budgets actually built) against the finished sketch's real resident
// cost, keyed by the graph it built on (plus the global fallback). Disk
// loads and cache hits are not observed — they carry no new information
// about the estimator's bias. The build's resident bytes also land on
// the request's resource accounting, and the recalibration itself is
// journaled — admission verdicts change when the model moves, and the
// journal is where an operator reconstructs why.
func (s *Service) observeBuildCost(ctx context.Context, graphID string, plan *allocatePlan, eps, ell float64, budgets []int, sketch *rrset.Sketch) {
	cost := store.SketchCost(sketch)
	telemetry.AddResource(ctx, telemetry.ResSketchBytesBuilt, cost)
	if plan.meta.CostEstimator == nil {
		return
	}
	raw := plan.meta.CostEstimator(plan.prob.G.N(), plan.prob.G.M(), eps, ell, budgets)
	s.costModels.Observe(graphID, raw, cost)
	s.flight.Record(journal.Event{
		Type:    journal.AdmissionRecalibrate,
		Graph:   graphID,
		TraceID: telemetry.FromContext(ctx).ID(),
		Bytes:   cost,
		Count:   raw,
	})
}

// sketchForPlan resolves a sketch-capable plan's sketch — the one way a
// sketch request resolves. A request is served, in order, by its
// exact-budget key, then by the group's resident merged sketch when that
// dominates it (memory tier, cancelable in-flight waits — see
// lookupResident), and otherwise by buildMiss. hit reports whether any
// tier or a shared batch build avoided fresh sketch work for this
// caller; it is what AllocateResult exposes as SketchCached and what the
// restart-warm smoke asserts on.
func (s *Service) sketchForPlan(ctx context.Context, graphID string, sp core.SketchPlanner, plan *allocatePlan, eps, ell float64, seed uint64) (sketch *rrset.Sketch, hit bool, err error) {
	budgets := sp.SketchBudgets(plan.prob)
	key := SketchKey(graphID, plan.meta.SketchFamily, int(plan.opts.Cascade), eps, ell, budgets)
	for {
		sk, found, err := s.lookupResident(ctx, key, sp.MergeBudgets, budgets)
		if !found && err == nil {
			sk, found, err = s.buildMiss(ctx, graphID, key, budgets, sp, plan, eps, ell, seed)
		}
		if err == nil {
			s.sweepIfDeleted(graphID)
			return sk, found, nil
		}
		// A request can inherit a cancellation that was never its own:
		// the in-flight entry it waited on lost its builder, or the batch
		// group it joined lost every other waiter mid-build. Re-resolve
		// from the top, leading a fresh group if need be.
		if !inheritedCancel(ctx, err) {
			return nil, false, err
		}
	}
}

// buildMiss resolves a request no resident sketch serves. Degenerate
// budgets build directly through the tiered cache, the one path around
// the scheduler. Every other miss enters the batch scheduler: with no
// build of its group in flight it builds at once on its own budgets;
// otherwise it shares the in-flight build, or the one follow-up that
// merges every uncovered request's budgets and extends the finished
// sketch when that build returns. The group's sketch is cached under its
// merged key, so the disk tier and singleflight semantics apply to it
// unchanged.
func (s *Service) buildMiss(ctx context.Context, graphID, key string, budgets []int, sp core.SketchPlanner, plan *allocatePlan, eps, ell float64, seed uint64) (*rrset.Sketch, bool, error) {
	buildOpts := plan.opts
	buildOpts.Eps, buildOpts.Ell = eps, ell
	buildOpts.Phase1Stream = s.lendPhase1(graphID, int(plan.opts.Cascade), seed)
	build := func(bctx context.Context, target []int) (*rrset.Sketch, error) {
		sk, err := sp.BuildSketchForBudgets(bctx, plan.prob, target, buildOpts, stats.NewRNG(seed))
		if err == nil {
			s.observeBuildCost(bctx, graphID, plan, eps, ell, target, sk)
		}
		return sk, err
	}
	if degenerateBudgets(budgets, plan.prob.G.N()) {
		return s.buildThroughTiers(ctx, graphID, key, plan.prob.G, func(bctx context.Context) (*rrset.Sketch, error) {
			return build(bctx, budgets)
		})
	}

	// The scheduler runs the first member's build closure on behalf of
	// the whole group, so it depends only on group-key material plus the
	// merged budgets it is handed.
	groupKey := groupKeyOf(key)
	// Submit records the wait on this request's trace: batch_gather until
	// its group's build starts, shared_build from there when the build is
	// another member's.
	v, cacheHit, shared, err := s.batcher.Submit(ctx, groupKey, budgets, sp.MergeBudgets,
		func(bctx context.Context, merged []int) (any, bool, error) {
			// The scheduler runs the group build on its own goroutine with
			// a detached context; re-attach the submitting request's trace
			// so build-stage spans land on it rather than vanishing.
			bctx = telemetry.NewContext(bctx, telemetry.FromContext(ctx))
			// Delta-build seam: when the group's previous batch-built
			// sketch is still resident but does not dominate the new
			// merged vector (a full dominance hit was already served
			// before Submit), extend it to the union of the two vectors
			// instead of cold-building. This is the path a follow-up group
			// takes: the scheduler starts it only after the build it
			// gathered behind has returned, i.e. after that build's sketch
			// is resident and recorded below. Peek never waits: blocking
			// here on the old key's entry could deadlock the build
			// callback.
			target := merged
			var base *rrset.Sketch
			var baseBudgets []int
			if rec, ok := s.lookupMerged(groupKey); ok {
				if sk, resident := s.cache.Peek(rec.key); resident && sk.NumRRSets() > 0 {
					base, baseBudgets = sk, rec.budgets
					target = sp.MergeBudgets(rec.budgets, merged)
				}
			}
			// Inside the group build: disk, then extend-or-build, then
			// spill.
			mergedKey := SketchKey(graphID, plan.meta.SketchFamily, int(plan.opts.Cascade), eps, ell, target)
			sk, hit, err := s.buildThroughTiers(bctx, graphID, mergedKey, plan.prob.G, func(bctx context.Context) (*rrset.Sketch, error) {
				if base != nil {
					esk, err := sp.ExtendSketch(bctx, plan.prob, base, baseBudgets, target, buildOpts, stats.NewRNG(seed))
					if err == nil {
						s.sketchExtends.Add(1)
						s.rrSetsAppended.Add(int64(esk.NumRRSets() - base.NumRRSets()))
						s.observeBuildCost(bctx, graphID, plan, eps, ell, target, esk)
						return esk, nil
					}
					if bctx.Err() != nil {
						return nil, err
					}
					// Not extendable (degenerate family state, shape
					// mismatch): fall through to the cold build.
				}
				return build(bctx, target)
			})
			if err == nil {
				s.recordMerged(groupKey, target, mergedKey)
			}
			return sk, hit, err
		})
	// batch.Scheduler is sketch-agnostic (bench/layers.go drives it with
	// its own build func); every build above returns a *rrset.Sketch.
	sk, _ := v.(*rrset.Sketch)
	return sk, cacheHit || shared, err
}

// lendPhase1 lends a build the resident phase-1 stream S₁ of (graph,
// cascade, seed) — the sketch cache's stream entry under phase1Key. Its
// base is the first draw of stats.NewRNG(seed) for PRIMA and IMM alike
// (rrset.StreamBases), so every build from that seed reads the same
// stream, whatever its family, budgets, ε or ℓ. A build reads exactly
// the prefix a fresh S₁ would have given it and samples only past the
// resident length; its final collection stays its own. Release counts
// the prefix it read without sampling into phase1Reused.
func (s *Service) lendPhase1(graphID string, cascade int, seed uint64) rrset.Phase1Func {
	key := phase1Key(graphID, cascade, seed)
	return func(ctx context.Context, fresh *rrset.Collection) (*rrset.Collection, func(int), error) {
		col, release, err := s.cache.LendStream(ctx, key, fresh)
		if err != nil {
			return nil, nil, err
		}
		resident := col.Len()
		return col, func(read int) {
			s.phase1Reused.Add(int64(min(resident, read)))
			release()
		}, nil
	}
}

// phase1Key is the sketch-cache key of a phase-1 stream. It leads with
// the graph id like SketchKey, so InvalidateGraph drops it, and its
// family segment "phase1" is no sketch family's.
func phase1Key(graphID string, cascade int, seed uint64) string {
	return fmt.Sprintf("%s|phase1|c%d|s%d", graphID, cascade, seed)
}

// AllocateCtx solves one allocation request under ctx, reporting
// progress through report (which may be nil). Dispatch goes through the
// core planner registry; for planners with the SketchPlanner capability
// sketch resolution goes through the tiered cache (memory, then disk,
// then build — see sketchForPlan), the rest run their Plan directly.
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
	prob, opts := plan.prob, plan.opts
	seed := seedOf(req.Seed)
	eps, ell := ResolveEpsEll(opts.Eps, opts.Ell)

	var (
		res core.Result
		hit bool
	)
	if sp, ok := plan.planner.(core.SketchPlanner); ok {
		v, h, err := s.sketchForPlan(ctx, req.GraphID, sp, plan, eps, ell, seed)
		if err != nil {
			return nil, err
		}
		hit = h
		countSketchOutcome(ctx, h)
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

// countSketchOutcome lands a request's sketch resolution on its
// resource accounting: one cache hit when any tier (or a shared batch
// build) avoided fresh sketch work, one miss otherwise. The acceptance
// check for warm failover reads exactly this pair next to
// rr_sets_grown: a warm serve is hits=1, misses=0, rr_sets_grown=0.
func countSketchOutcome(ctx context.Context, hit bool) {
	if hit {
		telemetry.AddResource(ctx, telemetry.ResCacheHits, 1)
	} else {
		telemetry.AddResource(ctx, telemetry.ResCacheMisses, 1)
	}
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
// need, through the same tiered cache path, and runs its selection once,
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
	eps, ell := ResolveEpsEll(plan.opts.Eps, plan.opts.Ell)
	sketch, hit, err := s.sketchForPlan(ctx, graphID, sp, plan, eps, ell, seedOf(req.Seed))
	if err != nil {
		return nil, err
	}
	countSketchOutcome(ctx, hit)
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
