// Package resolve decides which RR sets answer a sketch request. It
// rests on one fact from the paper's RR-sketch machinery (PRIMA/IMM): a
// sketch sized for a canonical budget vector b serves every request
// whose budgets b dominates (batch.Dominates). A Resolver owns every
// tier that can supply such a sketch — the in-memory cache, the disk
// tier, the batch scheduler that coalesces concurrent misses, the
// extend path that grows a resident sketch by its θ-delta, and the
// resident phase-1 streams builds size θ on — plus the counters, the
// cost-model calibration and the graph-drop sweeping that go with them.
// Resolve is the one entry point; Price answers admission's question
// about the same request. Every miss goes through the batch scheduler
// (internal/batch documents how a group — same graph, sketch family,
// cascade, ε, ℓ, seed; budgets free — gathers behind its in-flight
// build).
package resolve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"uicwelfare/internal/batch"
	"uicwelfare/internal/core"
	"uicwelfare/internal/graph"
	"uicwelfare/internal/journal"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/store"
	"uicwelfare/internal/telemetry"
)

// Resolver answers sketch requests from its tiers; see the package
// comment. Construct it with New.
type Resolver struct {
	// Cache is the in-memory tier and Costs the cost-model calibration.
	// Callers read them (stats, metrics, the cold-path benchmark's
	// reset) and never replace them.
	Cache *SketchCache
	Costs *store.CostModels

	disk    *store.Store
	batcher *batch.Scheduler
	window  time.Duration
	journal *journal.Recorder
	live    func(graphID string) bool

	// extends counts group builds served by extending a resident sketch
	// instead of cold-building; appended counts the RR sets those
	// extensions appended (the delta a cold build would have resampled
	// from zero); phase1Reused counts the phase-1 sets builds read off a
	// resident stream without sampling them, and phase1Selections the
	// coverage tests a stream's memo answered without a greedy run (see
	// lendPhase1).
	extends          atomic.Int64
	appended         atomic.Int64
	phase1Reused     atomic.Int64
	phase1Selections atomic.Int64
}

// New returns a Resolver over cache and, when disk is non-nil, that
// spill tier. window caps how long the scheduler holds a miss behind an
// in-flight build of its group (see batch.New); rec receives
// evictions, expiries, batch fires and cost-model recalibrations (nil
// records nothing); live reports whether a graph is still registered,
// so sketch work that finishes for a graph deleted meanwhile is swept.
func New(cache *SketchCache, disk *store.Store, window time.Duration, rec *journal.Recorder, live func(graphID string) bool) *Resolver {
	r := &Resolver{
		Cache:   cache,
		Costs:   store.NewCostModels(),
		disk:    disk,
		batcher: batch.New(window),
		window:  window,
		journal: rec,
		live:    live,
	}
	// Evictions and expiries are cache-lock-held callbacks; the journal
	// ring append is O(1) and non-blocking, which is why it is safe
	// here. The trace id is the evicting request's — the eviction is a
	// side effect of that request's insert, and carrying its id makes
	// the trace's control-plane fallout greppable (?trace=).
	cache.onEvict = func(key string, cost int64, traceID string) {
		rec.Record(journal.Event{Type: journal.CacheEvict, Graph: graphOf(key), Key: key, Bytes: cost, TraceID: traceID})
	}
	// A TTL expiry must invalidate the disk spill too — otherwise the
	// "rebuild" reloads the identical stale sketch from disk and the
	// TTL never refreshes anything on a persistent daemon.
	cache.onExpire = func(key string) {
		gid := graphOf(key)
		if disk != nil && gid != "" {
			disk.DeleteSketch(gid, key)
		}
		rec.Record(journal.Event{Type: journal.CacheExpire, Graph: gid, Key: key})
	}
	// Journal every group that reaches its build: which group fired, how
	// many requests share the one sketch, how long they were held and
	// what released them. The hook runs on the build's goroutine; the
	// ring append is O(1) and non-blocking. The trace id is the group's
	// first submitter's.
	r.batcher.SetFireHook(func(f batch.Fire) {
		rec.Record(journal.Event{
			Type:    journal.BatchFire,
			Graph:   graphOf(f.Key),
			Key:     f.Key,
			Count:   int64(f.Waiters),
			WaitMS:  f.Wait.Milliseconds(),
			Reason:  f.Reason,
			TraceID: f.TraceID,
		})
	})
	return r
}

// graphOf is the graph id a cache or group key leads with.
func graphOf(key string) string {
	gid, _, _ := strings.Cut(key, "|")
	return gid
}

// Req is one sketch request: everything that names the sketch, plus how
// to build it.
type Req struct {
	GraphID string
	// Planner builds, extends and merges the family's sketches; Meta is
	// its registration (SketchFamily keys the sketch, CostEstimator
	// prices it). Price also takes a nil Planner: a planner with no
	// sketch, priced on Problem's budgets.
	Planner core.SketchPlanner
	Meta    core.Meta
	Problem *core.Problem
	// Opts are the build options, with Eps and Ell resolved: they and
	// Opts.Cascade key the sketch.
	Opts core.Options
	// Seed seeds the build's RNG, names its phase-1 stream and is part
	// of its sketch key.
	Seed uint64
}

// key is req's sketch key and canonical budgets.
func (req *Req) key() (string, []int) {
	budgets := req.Planner.SketchBudgets(req.Problem)
	return Key(req.GraphID, req.Meta.SketchFamily, int(req.Opts.Cascade), req.Opts.Eps, req.Opts.Ell, req.Seed, budgets), budgets
}

// serves is the test a resident sketch of req's group, built for the
// canonical budgets have, must pass to answer a request for budgets: it
// dominates them under the planner's merge, and it was sampled — a
// degenerate sketch answers only its own key (see degenerateBudgets).
func (req *Req) serves(budgets []int) func(have []int) bool {
	n := req.Problem.G.N()
	return func(have []int) bool {
		return !degenerateBudgets(have, n) && batch.Dominates(req.Planner.MergeBudgets, have, budgets)
	}
}

// Resolve returns the sketch that answers req. In order: the
// exact-budget key (an in-flight entry waited on cancelably), then a
// completed sketch of the group that serves it (see Req.serves), and
// otherwise buildMiss. cached reports whether a tier or a shared build
// avoided fresh sketch work for this request: what AllocateResult
// exposes as sketch_cached, and what lands on the request's resource
// accounting as one cache hit (one miss otherwise) — a warm serve is
// hits=1, misses=0, rr_sets_grown=0. A request that inherits a
// cancellation that was never its own — the in-flight entry it waited
// on lost its builder, or the batch group it joined lost every other
// waiter mid-build — re-resolves from the top, leading a fresh group if
// need be.
func (r *Resolver) Resolve(ctx context.Context, req Req) (sketch *rrset.Sketch, cached bool, err error) {
	key, budgets := req.key()
	serves := req.serves(budgets)
	for {
		endLookup := telemetry.StartSpan(ctx, "cache_lookup")
		sk, cached, err := r.Cache.Lookup(ctx, key, serves)
		endLookup()
		if !cached && err == nil {
			sk, cached, err = r.buildMiss(ctx, &req, key, budgets)
		}
		if err == nil {
			counter := telemetry.ResCacheMisses
			if cached {
				counter = telemetry.ResCacheHits
			}
			telemetry.AddResource(ctx, counter, 1)
			return sk, cached, nil
		}
		if !inheritedCancel(ctx, err) {
			return nil, false, err
		}
	}
}

// inheritedCancel reports whether err is a cancellation or deadline
// expiry this request inherited from someone else's build through a
// shared cache entry or batch group, while its own ctx is still live.
func inheritedCancel(ctx context.Context, err error) bool {
	return ctx.Err() == nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// degenerateBudgets reports whether canonical sketch budgets hit the
// PRIMA/IMM builders' whole-graph shortcut (top budget >= n). Such a
// "build" samples nothing and returns the all-nodes identity ordering,
// which is only prefix-preserving for the full budget — so a degenerate
// sketch must never answer another request: neither by coalescing with
// sampled builds, which would drag every group member's result onto the
// unsampled ordering, nor as a resident sketch that dominates a smaller
// request. buildMiss builds degenerate requests directly instead, its
// one exit before the scheduler (they cost nothing to build, so there is
// nothing to coalesce anyway), and Req.serves never lets one answer
// another key.
func degenerateBudgets(budgets []int, n int) bool {
	for _, b := range budgets {
		if b >= n {
			return true
		}
	}
	return false
}

// buildMiss resolves a request no resident sketch serves: degenerate
// budgets build directly through the tiers, the one path around the
// scheduler, and every other miss enters the batch scheduler. The
// group's sketch is cached under its merged key, so the disk tier and
// singleflight semantics apply to it unchanged.
func (r *Resolver) buildMiss(ctx context.Context, req *Req, key string, budgets []int) (*rrset.Sketch, bool, error) {
	sp, opts := req.Planner, req.Opts
	opts.Phase1Stream = r.lendPhase1(req.GraphID, int(opts.Cascade), req.Seed)
	build := func(bctx context.Context, target []int) (*rrset.Sketch, error) {
		sk, err := sp.BuildSketchForBudgets(bctx, req.Problem, target, opts, stats.NewRNG(req.Seed))
		if err == nil {
			r.observeBuildCost(bctx, req, target, sk)
		}
		return sk, err
	}
	if degenerateBudgets(budgets, req.Problem.G.N()) {
		return r.buildThroughTiers(ctx, req, key, func(bctx context.Context) (*rrset.Sketch, error) {
			return build(bctx, budgets)
		})
	}

	// The scheduler runs the first member's build closure on behalf of
	// the whole group, so it depends only on group-key material plus the
	// merged budgets it is handed. Submit records the wait on this
	// request's trace: batch_gather until its group's build starts,
	// shared_build from there when the build is another member's.
	groupKey := groupKeyOf(key)
	v, hit, shared, err := r.batcher.Submit(ctx, groupKey, budgets, sp.MergeBudgets,
		func(bctx context.Context, merged []int) (any, bool, error) {
			// The scheduler runs the group build on its own goroutine with
			// a detached context; re-attach the submitting request's trace
			// so build-stage spans land on it rather than vanishing.
			bctx = telemetry.NewContext(bctx, telemetry.FromContext(ctx))
			// Delta-build seam: when the group has a completed resident
			// sketch, extend the one with the most sets to the union of
			// its vector and the merged one instead of cold-building. This
			// is the path a follow-up group takes: the scheduler starts it
			// only after the build it gathered behind has returned, i.e.
			// after that build's sketch is resident.
			target := merged
			base, baseBudgets := r.Cache.ExtendBase(groupKey)
			if base != nil {
				target = sp.MergeBudgets(baseBudgets, merged)
			}
			// Inside the group build: disk, then extend-or-build, then
			// spill.
			return r.buildThroughTiers(bctx, req, groupKey+budgetSegment(target), func(bctx context.Context) (*rrset.Sketch, error) {
				if base != nil {
					esk, err := sp.ExtendSketch(bctx, req.Problem, base, baseBudgets, target, opts, stats.NewRNG(req.Seed))
					if err == nil {
						r.extends.Add(1)
						r.appended.Add(int64(esk.NumRRSets() - base.NumRRSets()))
						r.observeBuildCost(bctx, req, target, esk)
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
		})
	// batch.Scheduler is sketch-agnostic (bench/layers.go drives it with
	// its own build func); every build above returns a *rrset.Sketch.
	sk, _ := v.(*rrset.Sketch)
	return sk, hit || shared, err
}

// buildThroughTiers resolves key through the tiered cache: the
// in-memory tier first (with singleflight semantics), then — inside the
// build callback, so concurrent requesters share one disk read exactly
// like they share one build — the disk tier, and only then build, whose
// result is spilled back to disk. hit reports whether any tier avoided
// a rebuild. An inherited cancellation is returned like any error: the
// caller's Resolve loop retries it.
func (r *Resolver) buildThroughTiers(ctx context.Context, req *Req, key string, build func(ctx context.Context) (*rrset.Sketch, error)) (sketch *rrset.Sketch, hit bool, err error) {
	diskHit := false
	// The lookup span covers the in-memory tier only: it is ended
	// (idempotently) the moment the build callback starts, so a miss
	// that turns into a disk load or a fresh build does not inflate the
	// cache-lookup timing with build work.
	endLookup := telemetry.StartSpan(ctx, "cache_lookup")
	sketch, hit, err = r.Cache.GetOrBuildCtx(ctx, key, func() (*rrset.Sketch, error) {
		endLookup()
		if r.disk != nil {
			// The TTL bounds spill age too: a spill left by cost eviction
			// or a restart must not resurrect a sketch older than the TTL
			// promises.
			endLoad := telemetry.StartSpan(ctx, "disk_load")
			sk := r.disk.LoadSketch(req.GraphID, key, req.Problem.G, r.Cache.ttl)
			endLoad()
			if sk != nil {
				diskHit = true
				return sk, nil
			}
		}
		sk, err := build(ctx)
		if err == nil && r.disk != nil {
			// The spill persists the sketch's greedy selection: run it
			// first, under its own span, so sketch_spill times only the
			// encode and write, and every Select after it is a prefix
			// read.
			endSel := telemetry.StartSpan(ctx, "greedy_select")
			sk.Selection()
			endSel()
			endSpill := telemetry.StartSpan(ctx, "sketch_spill")
			_ = r.disk.SaveSketch(req.GraphID, key, sk) // best-effort; failure only costs warmth
			endSpill()
		}
		return sk, err
	})
	endLookup()
	if err != nil {
		return nil, false, err
	}
	r.sweepIfDeleted(req.GraphID)
	return sketch, hit || diskHit, nil
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
func (r *Resolver) observeBuildCost(ctx context.Context, req *Req, budgets []int, sketch *rrset.Sketch) {
	cost := store.SketchCost(sketch)
	telemetry.AddResource(ctx, telemetry.ResSketchBytesBuilt, cost)
	if req.Meta.CostEstimator == nil {
		return
	}
	raw := req.Meta.CostEstimator(req.Problem.G.N(), req.Problem.G.M(), req.Opts.Eps, req.Opts.Ell, budgets)
	r.Costs.Observe(req.GraphID, raw, cost)
	r.journal.Record(journal.Event{
		Type:    journal.AdmissionRecalibrate,
		Graph:   req.GraphID,
		TraceID: telemetry.FromContext(ctx).ID(),
		Bytes:   cost,
		Count:   raw,
	})
}

// Price answers admission's question about req: the predicted resident
// bytes of the new sketch work it would cause. That is 0 when serving it
// costs nothing new — its exact key is resident or in flight, a resident
// or in-flight sketch of its group serves it (see Req.serves), or an
// in-flight build or pending follow-up group's merged vector already
// covers it — and 0 for a planner with no cost estimator. Otherwise it
// is the planner's a-priori estimate on the request's budgets, scaled by
// the graph's learned observed/predicted ratio (the global ratio for a
// graph with no observed builds yet). A request that would *widen* a
// pending follow-up is priced as a cold build of its own budgets,
// although the follow-up will only pay a θ-delta on the finished sketch.
func (r *Resolver) Price(req *Req) int64 {
	if req.Meta.CostEstimator == nil {
		return 0
	}
	if req.Planner != nil {
		key, budgets := req.key()
		if r.Cache.Covers(key, req.serves(budgets)) || r.batcher.Covered(groupKeyOf(key), budgets, req.Planner.MergeBudgets) {
			return 0
		}
	}
	raw := req.Meta.CostEstimator(req.Problem.G.N(), req.Problem.G.M(), req.Opts.Eps, req.Opts.Ell, req.Problem.Budgets)
	return r.Costs.Predict(req.GraphID, raw)
}

// lendPhase1 lends a build the resident phase-1 stream S₁ of (graph,
// cascade, seed) — the sketch cache's stream entry under phase1Key. Its
// base is the first draw of stats.NewRNG(seed) for PRIMA and IMM alike
// (rrset.StreamBases), so every build from that seed reads the same
// stream, whatever its family, budgets, ε or ℓ. A build reads exactly
// the prefix a fresh S₁ would have given it and samples only past the
// resident length; its final collection stays its own. Release counts
// the prefix it read without sampling into phase1Reused, and the
// coverage tests the stream's selection memo answered into
// phase1Selections; the memo is part of the stream's priced bytes.
func (r *Resolver) lendPhase1(graphID string, cascade int, seed uint64) rrset.Phase1Func {
	key := phase1Key(graphID, cascade, seed)
	return func(ctx context.Context, fresh *rrset.Collection) (*rrset.Collection, func(int, int), error) {
		col, release, err := r.Cache.LendStream(ctx, key, fresh)
		if err != nil {
			return nil, nil, err
		}
		resident := col.Len()
		return col, func(read, reused int) {
			r.phase1Reused.Add(int64(min(resident, read)))
			r.phase1Selections.Add(int64(reused))
			release()
		}, nil
	}
}

// phase1Key is the sketch-cache key of a phase-1 stream. It leads with
// the graph id like Key, so InvalidateGraph drops it, and its family
// segment "phase1" is no sketch family's.
func phase1Key(graphID string, cascade int, seed uint64) string {
	return fmt.Sprintf("%s|phase1|c%d|s%d", graphID, cascade, seed)
}

// sweepIfDeleted re-checks a graph's residency after sketch work
// completed: the graph may have been deleted while the sketch was
// building or importing — after the delete's sweep already ran, so the
// memory entry and a just-written spill would otherwise outlive the
// deletion (the spill permanently: nothing else sweeps a deleted
// graph's sketch files). Drops the graph when it is gone.
func (r *Resolver) sweepIfDeleted(graphID string) {
	if !r.live(graphID) {
		r.DropGraph(graphID)
	}
}

// DropGraph forgets a deleted graph: its cached sketches and streams,
// its cost-model calibration, and its persisted artifacts (the graph
// file and every spilled sketch).
func (r *Resolver) DropGraph(graphID string) {
	r.Cache.InvalidateGraph(graphID)
	r.Costs.Forget(graphID)
	if r.disk != nil {
		r.disk.DeleteGraph(graphID)
	}
}

// Export streams the graph's completed in-memory sketches as a
// sketch-stream container (store.WriteSketchStreamEntry frames) — the
// payload one backend ships another so rebalancing a graph does not
// discard its warm-sketch work. Disk-tier spills are not exported: their
// cache keys are stored hashed, and anything recently used is resident
// in memory anyway. It returns how many sketches were written.
func (r *Resolver) Export(graphID string, w io.Writer) (int, error) {
	entries := r.Cache.CompletedForGraph(graphID)
	for i, e := range entries {
		if err := store.WriteSketchStreamEntry(w, e.Key, e.Sketch); err != nil {
			return i, err
		}
	}
	return len(entries), nil
}

// Import reads a sketch-stream container into the graph's cache (and,
// with a disk tier, its spills), so this backend starts warm for a
// graph it just received. An entry keyed for a different graph, or whose
// key does not end in a canonical budget vector, fails the import — a
// misrouted or mislabeled stream must not poison the cache — and
// entries whose key is already resident are skipped, not replaced. An
// imported sketch serves every request of its group it dominates, like
// a local build — unless its family is not its key's, when it answers
// its exact key only (see SketchCache.Lookup) and that request's planner
// refuses it.
func (r *Resolver) Import(graphID string, g *graph.Graph, rd io.Reader) (imported, skipped int, err error) {
	prefix := graphID + "|"
	_, err = store.ReadSketchStream(rd, g, func(key string, sketch *rrset.Sketch) error {
		if !strings.HasPrefix(key, prefix) {
			return fmt.Errorf("sketch key %q does not belong to graph %q", key, graphID)
		}
		if budgetsOf(key) == nil {
			return fmt.Errorf("sketch key %q does not end in canonical budgets", key)
		}
		if !r.Cache.Put(key, sketch) {
			skipped++
			return nil
		}
		if r.disk != nil {
			_ = r.disk.SaveSketch(graphID, key, sketch) // best-effort, like local builds
		}
		imported++
		return nil
	})
	if err != nil {
		return imported, skipped, err
	}
	r.sweepIfDeleted(graphID)
	return imported, skipped, nil
}

// BatchStats is the /v1/stats view of the batch scheduler, the extend
// path, the cost-model calibration and the admission check in front of
// them.
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
	// sketch of the group (a delta-build) instead of cold-building;
	// RRSetsAppended counts the RR sets those extensions appended.
	SketchExtends  int64 `json:"sketch_extends"`
	RRSetsAppended int64 `json:"rr_sets_appended"`
	// AdmissionRejects counts requests refused with 429 because their
	// Price exceeded the admission budget; AdmissionMaxBytes is that
	// budget (0 = off). The service's admission check fills both in.
	AdmissionRejects  int64 `json:"admission_rejects"`
	AdmissionMaxBytes int64 `json:"admission_max_bytes,omitempty"`
	// CostRatio and CostSamples describe the global cost-model
	// calibration: the learned observed/predicted ratio and how many
	// completed builds informed it.
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
	// SelectionsReused counts the θ rule's greedy coverage tests a
	// stream answered from the orders earlier builds left on it, without
	// a greedy run.
	SelectionsReused int64 `json:"selections_reused"`
}

// Stats snapshots the scheduler's, the extend path's, the cost model's
// and the phase-1 streams' counters (the memory tier's are
// Cache.Stats). All sources are atomics or mutex-guarded snapshots —
// /v1/stats is served concurrently with allocates, so every counter read
// here must be synchronized with its writer.
func (r *Resolver) Stats() (BatchStats, Phase1Stats) {
	bs := r.batcher.Stats()
	b := BatchStats{
		Enabled:           true,
		WindowMS:          float64(r.window) / float64(time.Millisecond),
		Batched:           bs.Batches,
		HeldGroups:        bs.Held,
		CoalescedRequests: bs.Coalesced,
		SketchExtends:     r.extends.Load(),
		RRSetsAppended:    r.appended.Load(),
	}
	b.CostRatio, b.CostSamples = r.Costs.Snapshot()
	return b, Phase1Stats{
		Streams:          r.Cache.Streams(),
		SetsReused:       r.phase1Reused.Load(),
		SelectionsReused: r.phase1Selections.Load(),
	}
}
