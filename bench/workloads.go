package main

import (
	"context"
	"fmt"
	"net/http"

	"uicwelfare/internal/cluster"
	"uicwelfare/internal/graph"
	"uicwelfare/internal/service"
	"uicwelfare/internal/store"
)

// Every workload allocates with the default planner and utility
// configuration on the douban-book stand-in at full scale (23.3k
// nodes), the paper's smallest "real" network and the largest whose
// cold build still yields a few hundred samples per run on two cores.
const (
	benchNetwork = "douban-book"
	benchAlgo    = "bundleGRD"
)

// workload is one traffic mix with the daemon topology it runs against
// and the identity it must prove from /v1/stats deltas and job results.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why     string
	clients int
	// flags are the backend daemon flags beyond the spawn plumbing
	// (-addr, -data-dir, -node, -pprof-addr).
	flags   []string
	dataDir bool // backends get a fresh -data-dir (disk tier on)
	routed  bool // router + two -node backends instead of one daemon
	// cycle is the number of consecutive operations that make one unit
	// of the mix; runs start and stop on cycle boundaries.
	cycle int
	// graphs is how many graphs set-up registers; prewarm says whether
	// set-up also runs request(c, 0) once per graph so its sketch exists
	// before the clock starts.
	graphs  int
	prewarm bool
	// request builds client c's i-th request.
	request func(s *session, c, i int) *allocateRequest
	// identity checks the run's counter deltas against its op count.
	identity func(delta counters, ops []*opResult) error
}

// session is one set-up instance of a workload: the spawned fleet, the
// registered graphs and the seed everything derives from.
type session struct {
	w    *workload
	seed uint64
	// scale sizes the generated network; 1 (23.3k nodes) in every
	// benchmark run, smaller only in the in-process smoke test.
	scale      float64
	fleet      *fleet
	graphs     graphCache
	graphSeeds []uint64
	graphIDs   []string
	owners     []string // routed only: the backend owning each graph
}

// routedNodes are the backend node names of a routed workload.
var routedNodes = []string{"b0", "b1"}

// graphCache holds the benchmark's own copies of the generated graphs
// with their content ids, keyed by generator seed: the welfare estimate
// and the layer pass replay on them, and set-up checks the daemon's ids
// against them.
type graphCache map[uint64]cachedGraph

type cachedGraph struct {
	g  *graph.Graph
	id string
}

func (c graphCache) get(scale float64, seed uint64) (*graph.Graph, string, error) {
	if e, ok := c[seed]; ok {
		return e.g, e.id, nil
	}
	_, g, err := service.LoadGraph(&service.GraphRequest{Network: benchNetwork, Scale: scale, Seed: seed})
	if err != nil {
		return nil, "", err
	}
	c[seed] = cachedGraph{g, store.GraphID(g)}
	return g, c[seed].id, nil
}

// reqSeed is the allocation RNG seed every request of a run carries:
// fixed per run, so repeated cold builds do identical work.
func (s *session) reqSeed() uint64 { return s.seed*0x9e3779b97f4a7c15 | 1 }

// jitterEps moves eps by a few parts per billion per step: a new cache
// key and a new batch group each time, the same sketch size to within
// a millionth.
func (s *session) jitterEps(eps float64, step int) float64 {
	return eps + 1e-7*float64(s.seed%1000) + 1e-9*float64(step+1)
}

func fixedRequest(eps float64, budget int) func(s *session, c, i int) *allocateRequest {
	return func(s *session, c, i int) *allocateRequest {
		return &allocateRequest{GraphID: s.graphIDs[c%len(s.graphIDs)], Algo: benchAlgo, Budgets: []int{budget, budget}, Eps: eps, Seed: s.reqSeed()}
	}
}

func allCached(want bool, ops []*opResult) error {
	for _, op := range ops {
		if op.view.Result.SketchCached != want {
			return fmt.Errorf("job %s: sketch_cached=%v, want %v", op.view.ID, op.view.Result.SketchCached, want)
		}
	}
	return nil
}

func warmIdentity(delta counters, ops []*opResult) error {
	if delta.cacheMisses != 0 {
		return fmt.Errorf("sketch_cache.misses rose by %d on a warm workload", delta.cacheMisses)
	}
	if delta.cacheHits != int64(len(ops)) {
		return fmt.Errorf("sketch_cache.hits rose by %d over %d ops", delta.cacheHits, len(ops))
	}
	return allCached(true, ops)
}

var workloads = []*workload{
	{
		name:    "warm_hit",
		why:     "identical request on a resident sketch: every tier above the sketch (http, jobs, cache hit, PlanFromSketch) and none below",
		clients: 2, flags: []string{"-workers", "2"},
		cycle: 1, graphs: 1, prewarm: true,
		request:  fixedRequest(0.5, 50),
		identity: warmIdentity,
	},
	{
		name: "cold_build",
		why:  "fresh eps per request so every op samples a full RR sketch, spills it and evicts: the paper's dominant cost plus the store write side",
		// -cache 16 and -disk-mb 16 (not the daemon's 64-entry default) so
		// both tiers reach their evicting steady state inside the 2 s
		// warm-up: with 64 entries the first 6 s of every run were a
		// different, 40 % slower regime (RSS still growing, every page a
		// first touch) and p50 depended on how long the run was.
		clients: 1, flags: []string{"-workers", "2", "-cache", "16", "-disk-mb", "16"}, dataDir: true,
		cycle: 1, graphs: 1,
		request: func(s *session, c, i int) *allocateRequest {
			r := fixedRequest(0, 50)(s, c, i)
			r.Eps = s.jitterEps(0.5, i)
			return r
		},
		identity: func(delta counters, ops []*opResult) error {
			if delta.diskSpills != int64(len(ops)) {
				return fmt.Errorf("disk_tier.spills rose by %d over %d ops", delta.diskSpills, len(ops))
			}
			for _, op := range ops {
				if op.view.Resources["rr_sets_grown"] <= 0 {
					return fmt.Errorf("job %s grew no RR sets on a cold build", op.view.ID)
				}
			}
			return allCached(false, ops)
		},
	},
	{
		name:    "disk_reload",
		why:     "four graphs round-robin over a one-entry memory tier: every op misses memory and decodes its sketch from disk (store read side, rrset.Restore)",
		clients: 1, flags: []string{"-workers", "2", "-cache", "1"}, dataDir: true,
		cycle: 4, graphs: 4, prewarm: true,
		request: func(s *session, c, i int) *allocateRequest {
			r := fixedRequest(0.2, 50)(s, c, i)
			r.GraphID = s.graphIDs[i%len(s.graphIDs)]
			return r
		},
		identity: func(delta counters, ops []*opResult) error {
			if delta.diskHits != int64(len(ops)) {
				return fmt.Errorf("disk_tier.hits rose by %d over %d ops", delta.diskHits, len(ops))
			}
			if delta.cacheHits != 0 {
				return fmt.Errorf("sketch_cache.hits rose by %d; the memory tier was meant to miss", delta.cacheHits)
			}
			return allCached(true, ops)
		},
	},
	{
		name:    "budget_creep",
		why:     "budgets grow 10..80 under one eps per cycle: one small cold build then seven ExtendSketch delta-builds (clone, append, re-select)",
		clients: 1, flags: []string{"-workers", "2"},
		cycle: 8, graphs: 1,
		request: func(s *session, c, i int) *allocateRequest {
			r := fixedRequest(0, 10+10*(i%8))(s, c, i)
			r.Eps = s.jitterEps(0.5, i/8)
			return r
		},
		identity: func(delta counters, ops []*opResult) error {
			if want := int64(len(ops) / 8 * 7); delta.sketchExtends != want {
				return fmt.Errorf("batch.sketch_extends rose by %d over %d ops, want %d", delta.sketchExtends, len(ops), want)
			}
			return allCached(false, ops)
		},
	},
	{
		name:    "routed_warm",
		why:     "warm_hit's stream through the router, one graph per backend: the same request plus only the cluster proxy hop",
		clients: 2, flags: []string{"-workers", "2"}, routed: true,
		cycle: 1, graphs: 2, prewarm: true,
		request:  fixedRequest(0.5, 50),
		identity: warmIdentity,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// registerGraph creates the benchmark network under the given
// generator seed and returns its content-addressed id.
func registerGraph(ctx context.Context, a *api, scale float64, seed uint64) (string, error) {
	var info struct {
		ID string `json:"id"`
	}
	req := map[string]any{"network": benchNetwork, "scale": scale, "seed": seed}
	if _, err := a.postJSON(ctx, "/v1/graphs", req, &info, http.StatusCreated); err != nil {
		return "", err
	}
	return info.ID, nil
}

// chooseGraphs fixes the generator seeds of the session's graphs:
// consecutive seeds from the run seed, except that a routed workload
// skips seeds until its graphs have different HRW owners, so that each
// backend serves one client. Ownership is a pure function of the graph's
// content id and the node names, so it is worked out here, before any
// daemon exists, and confirmed against the router in setUp.
func (s *session) chooseGraphs() error {
	owners := map[string]bool{}
	for gs := s.seed; len(s.graphSeeds) < s.w.graphs; gs++ {
		if gs > s.seed+64 {
			return fmt.Errorf("bench: no %d graph seeds in [%d,%d] land on different backends", s.w.graphs, s.seed, gs)
		}
		_, id, err := s.graphs.get(s.scale, gs)
		if err != nil {
			return err
		}
		if s.w.routed {
			owner, _ := cluster.Owner(routedNodes, id)
			if owners[owner] {
				continue
			}
			owners[owner] = true
			s.owners = append(s.owners, owner)
		}
		s.graphSeeds = append(s.graphSeeds, gs)
		s.graphIDs = append(s.graphIDs, id)
	}
	return nil
}

// setUp registers the workload's graphs and prewarms its sketches, so
// the clock starts on the state the workload is about. The daemon must
// arrive at the content ids the benchmark computed from its own copy of
// each graph, and a router at the predicted owners.
func (s *session) setUp(ctx context.Context) error {
	a := newAPI("http://" + s.fleet.front.addr)
	defer a.close()
	for k, gs := range s.graphSeeds {
		id, err := registerGraph(ctx, a, s.scale, gs)
		if err != nil {
			return err
		}
		if id != s.graphIDs[k] {
			return fmt.Errorf("bench: daemon registered seed %d as %s, the benchmark generated %s", gs, id, s.graphIDs[k])
		}
		if s.w.routed {
			var p struct {
				Owner string `json:"owner"`
			}
			if err := a.getJSON(ctx, "/v1/cluster/placement/"+id, &p); err != nil {
				return err
			}
			if p.Owner != s.owners[k] {
				return fmt.Errorf("bench: router placed %s on %q, HRW predicts %q", id, p.Owner, s.owners[k])
			}
		}
	}
	if !s.w.prewarm {
		return nil
	}
	for g := range s.graphIDs {
		req := s.w.request(s, g, g)
		op, err := a.allocate(ctx, req)
		if err != nil {
			return fmt.Errorf("bench: prewarm graph %d: %w", g, err)
		}
		if err := checkResult(&op.view, req.Budgets); err != nil {
			return fmt.Errorf("bench: prewarm graph %d: %w", g, err)
		}
	}
	return nil
}

// backendStats sums the identity counters over the job-executing
// daemons, asked directly (not through the router's wrapped view).
func (s *session) backendStats(ctx context.Context) (counters, error) {
	var sum counters
	for _, d := range s.fleet.backends {
		a := newAPI("http://" + d.addr)
		st, err := a.stats(ctx)
		a.close()
		if err != nil {
			return sum, err
		}
		sum = sum.add(st)
	}
	return sum, nil
}
