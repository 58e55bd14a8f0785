// Package service implements welmaxd, the welfare-allocation daemon: an
// HTTP/JSON API over the library that keeps graphs resident in an
// in-memory registry, runs allocation and welfare estimation as
// asynchronous jobs on a bounded worker pool, and amortizes RR-sketch
// generation — the dominant cost of every allocation — through the
// sketch resolver (internal/resolve), so repeated and concurrent queries
// against the same network reuse sketches instead of regenerating them,
// and requests that differ only in budgets and arrive while a sketch of
// their group is building coalesce onto that build or onto one
// delta-build behind it (Options.BatchWindow caps the hold). Cost-based
// admission control (Options.AdmissionMB) refuses — retryably, with 429
// — requests whose predicted sketch cost would blow the cache budget.
//
// Endpoints (docs/API.md is the complete reference, kept in sync with
// the mux by scripts/apidocs_check.sh):
//
//	POST   /v1/graphs                  load an edge list or generate a built-in network
//	                                   (content-addressed: duplicates dedupe to the resident entry)
//	POST   /v1/graphs/import           register raw .wmg bytes (cluster-internal, token-gated)
//	GET    /v1/graphs                  list resident graphs
//	GET    /v1/graphs/{id}             one graph's info
//	DELETE /v1/graphs/{id}             remove a graph, its sketches, and its persisted artifacts
//	POST   /v1/graphs/{id}/warm        prebuild a sketch as a cancelable job (admission applies)
//	GET    /v1/graphs/{id}/export      the resident graph as .wmg bytes
//	GET    /v1/graphs/{id}/sketches    export warm sketches as a .wms stream (cluster-internal)
//	POST   /v1/graphs/{id}/sketches    import a shipped sketch stream (cluster-internal)
//	GET    /v1/algorithms              list registered planners with capability flags
//	POST   /v1/allocate                enqueue an allocation job; 429 + retryable over the
//	                                   admission budget; returns a job id
//	POST   /v1/estimate                enqueue a welfare-estimation job; returns a job id
//	GET    /v1/jobs                    list jobs (?state= filters)
//	GET    /v1/jobs/{id}               poll a job (queued → running → done | failed | canceled)
//	GET    /v1/jobs/{id}/events        stream job progress as server-sent events
//	DELETE /v1/jobs/{id}               cancel an active job / delete a finished one
//	POST   /v1/sweeps                  expand a declarative experiment grid into cells and
//	                                   run them through the job pool; returns a sweep id
//	GET    /v1/sweeps                  list sweeps
//	GET    /v1/sweeps/{id}             poll a sweep (cell counters in the stats payload)
//	GET    /v1/sweeps/{id}/events      per-cell progress as server-sent events
//	GET    /v1/sweeps/{id}/results     filter/group_by aggregation over the result artifact
//	DELETE /v1/sweeps/{id}             cancel an active sweep / delete a finished one
//	GET    /v1/stats                   cache/batch/admission/disk counters, jobs by state,
//	                                   worker utilization
//	GET    /v1/metrics                 latency histograms + gauges, Prometheus text
//	                                   (?format=json for the mergeable form)
//	GET    /healthz                    plain liveness
//	GET    /v1/healthz                 structured liveness (node identity; the router's probe)
package service

import (
	"fmt"

	"uicwelfare/internal/core"
	"uicwelfare/internal/graph"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/uic"
	"uicwelfare/internal/utility"
)

// GraphRequest is the body of POST /v1/graphs. Exactly one source must
// be given: Network (a built-in synthetic stand-in), Edges (an inline
// "u v [p]" edge list), or Path (a server-side edge-list file).
type GraphRequest struct {
	// Name is the caller's label for the graph; defaults to the network
	// name or the path.
	Name string `json:"name,omitempty"`

	// Network selects a built-in generator
	// (flixster|douban-book|douban-movie|twitter|orkut).
	Network string  `json:"network,omitempty"`
	Scale   float64 `json:"scale,omitempty"` // default 1.0
	Seed    uint64  `json:"seed,omitempty"`  // default 1

	// Edges is inline edge-list content; Path is a server-side file.
	Edges    string `json:"edges,omitempty"`
	Path     string `json:"path,omitempty"`
	Directed *bool  `json:"directed,omitempty"` // default true

	// Wmg is an inline binary .wmg graph (base64 in JSON). The cluster
	// router ships graphs between backends with it: the codec preserves
	// exact probabilities, so the content address recomputed on the
	// receiving backend matches the sender's.
	Wmg []byte `json:"wmg,omitempty"`

	// KeepProbs keeps the probabilities of the edge list instead of
	// resetting them to the weighted-cascade 1/indeg(v) default.
	KeepProbs bool `json:"keep_probs,omitempty"`
}

// GraphInfo describes one resident graph.
type GraphInfo struct {
	ID    string `json:"id"`
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`
	Edges int    `json:"edges"`
	// ResidentSketches counts this node's cached sketches for the graph.
	// Filled on GET /v1/graphs/{id} (the registry itself cannot see the
	// cache); the cluster placement view reads it per backend.
	ResidentSketches int `json:"resident_sketches,omitempty"`
}

// AllocateRequest is the body of POST /v1/allocate: solve a WelMax
// instance on a resident graph.
type AllocateRequest struct {
	GraphID string `json:"graph_id"`
	// Algo names a planner registered in the core algorithm registry
	// (GET /v1/algorithms lists them); empty selects
	// core.DefaultAlgorithm (bundleGRD).
	Algo string `json:"algo,omitempty"`
	// Config names the utility configuration
	// (config1|config3|additive|cone|levelwise|real|real-smoothed).
	Config string `json:"config,omitempty"`
	// Items is the item count for the additive/cone/levelwise
	// configurations; defaults to len(Budgets).
	Items   int   `json:"items,omitempty"`
	Budgets []int `json:"budgets"`
	// Eps and Ell are the approximation parameters (defaults 0.5, 1).
	Eps float64 `json:"eps,omitempty"`
	Ell float64 `json:"ell,omitempty"`
	// Cascade is ic (default) or lt.
	Cascade string `json:"cascade,omitempty"`
	// Seed seeds the RNGs for sketch generation and welfare estimation
	// (0 means 1). It is part of the sketch-cache key: a request is
	// served only by sketches built from its own seed, so sketch_cached
	// is per seed.
	Seed uint64 `json:"seed,omitempty"`
	// Runs is the Monte-Carlo run count for the welfare estimate
	// appended to the result; 0 skips the estimate.
	Runs int `json:"runs,omitempty"`
	// Workers parallelizes the welfare estimate (default 1).
	Workers int `json:"workers,omitempty"`
}

// AllocationDTO is a seed allocation in wire form: Seeds[i] lists the
// seed nodes of item i.
type AllocationDTO struct {
	Seeds [][]int64 `json:"seeds"`
}

// Request caps: allocation/estimation work is CPU- and memory-bound, so
// an unauthenticated daemon rejects parameters that could exhaust the
// host (the utility table alone is 2^k entries).
const (
	// MaxItems bounds the item count k (utility tables are 2^k floats).
	MaxItems = 16
	// MaxRuns bounds Monte-Carlo welfare runs per request.
	MaxRuns = 10_000_000
	// MaxEstimateWorkers bounds per-request estimator goroutines.
	MaxEstimateWorkers = 64
	// MaxGraphNodes bounds generated stand-in networks (scale × default
	// size); loaded edge lists are already bounded by the body cap.
	MaxGraphNodes = 2_000_000
	// MaxSeedPairs bounds the total (node, item) pairs of an estimate
	// request's allocation — each Monte-Carlo run walks every pair.
	MaxSeedPairs = 100_000
	// MinEps / MaxEll bound the approximation parameters: RR-sketch
	// size grows as ~ℓ/ε², so a tiny ε or huge ℓ is a memory bomb.
	// (ε or ℓ left unset fall back to the paper's 0.5 and 1.)
	MinEps = 0.05
	MaxEll = 10.0
)

// NewAllocationDTO converts a uic.Allocation to wire form.
func NewAllocationDTO(a *uic.Allocation) AllocationDTO {
	out := AllocationDTO{Seeds: make([][]int64, a.K())}
	for i, seeds := range a.Seeds {
		out.Seeds[i] = make([]int64, len(seeds))
		for j, v := range seeds {
			out.Seeds[i][j] = int64(v)
		}
	}
	return out
}

// Allocation converts the wire form back to a uic.Allocation.
func (d AllocationDTO) Allocation() *uic.Allocation {
	a := uic.NewAllocation(len(d.Seeds))
	for i, seeds := range d.Seeds {
		for _, v := range seeds {
			a.Assign(graph.NodeID(v), i)
		}
	}
	return a
}

// WelfareDTO is a Monte-Carlo welfare estimate in wire form.
type WelfareDTO struct {
	Mean   float64 `json:"mean"`
	StdErr float64 `json:"stderr"`
	Runs   int     `json:"runs"`
}

// AllocateResult is the result payload of an allocation job. The welmax
// CLI's -json mode emits the same struct (via NewAllocateResult), so
// CLI and daemon outputs are interchangeable.
type AllocateResult struct {
	Algorithm  string        `json:"algorithm"`
	Allocation AllocationDTO `json:"allocation"`
	// SeedOrder is bundleGRD's prefix-preserving ordering (empty for
	// the baselines).
	SeedOrder      []int64 `json:"seed_order,omitempty"`
	NumRRSets      int     `json:"num_rr_sets"`
	TotalRRSets    int     `json:"total_rr_sets"`
	IMMInvocations int     `json:"imm_invocations"`
	// SketchCached reports whether the allocation reused a cached RR
	// sketch instead of generating one (always false in the CLI).
	SketchCached bool        `json:"sketch_cached"`
	Welfare      *WelfareDTO `json:"welfare,omitempty"`
	ElapsedMS    int64       `json:"elapsed_ms"`
}

// NewAllocateResult assembles the shared wire payload from an algorithm
// run; both service.Allocate and `welmax -json` go through it so the two
// outputs cannot drift.
func NewAllocateResult(algo string, res core.Result) *AllocateResult {
	out := &AllocateResult{
		Algorithm:      algo,
		Allocation:     NewAllocationDTO(res.Alloc),
		NumRRSets:      res.NumRRSets,
		TotalRRSets:    res.TotalRRSets,
		IMMInvocations: res.IMMInvocations,
	}
	if len(res.SeedOrder) > 0 {
		out.SeedOrder = make([]int64, len(res.SeedOrder))
		for i, v := range res.SeedOrder {
			out.SeedOrder[i] = int64(v)
		}
	}
	return out
}

// AlgorithmInfo is one entry of GET /v1/algorithms: a registered
// planner's name and capability flags.
type AlgorithmInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	// Default marks the planner an empty "algo" field resolves to.
	Default bool `json:"default"`
	// SketchCacheable reports whether the daemon's sketch cache can
	// amortize the planner's dominant cost across requests.
	SketchCacheable bool `json:"sketch_cacheable"`
	// SketchFamily is the cached sketch kind ("prima", "imm"); empty
	// when not sketch-cacheable.
	SketchFamily string `json:"sketch_family,omitempty"`
	// Cascades lists the supported diffusion models.
	Cascades []string `json:"cascades"`
}

// Algorithms lists every planner registered in the core registry in
// wire form.
func Algorithms() []AlgorithmInfo {
	metas := core.Algorithms()
	out := make([]AlgorithmInfo, len(metas))
	for i, m := range metas {
		out[i] = AlgorithmInfo{
			Name:            m.Name,
			Description:     m.Description,
			Default:         m.Name == core.DefaultAlgorithm,
			SketchCacheable: m.SketchCacheable(),
			SketchFamily:    m.SketchFamily,
			Cascades:        m.Cascades,
		}
	}
	return out
}

// WarmRequest is the body of POST /v1/graphs/{id}/warm: prebuild the
// sketch an equivalent allocate request (same algo, budgets, ε, ℓ,
// cascade) would need, as an ordinary cancelable job. With a data
// directory configured the built sketch also spills to disk, so warming
// survives restarts.
type WarmRequest struct {
	Algo    string  `json:"algo,omitempty"`
	Config  string  `json:"config,omitempty"`
	Items   int     `json:"items,omitempty"`
	Budgets []int   `json:"budgets"`
	Eps     float64 `json:"eps,omitempty"`
	Ell     float64 `json:"ell,omitempty"`
	Cascade string  `json:"cascade,omitempty"`
	Seed    uint64  `json:"seed,omitempty"`
}

// WarmResult is the result payload of a warm job.
type WarmResult struct {
	Algorithm    string `json:"algorithm"`
	SketchFamily string `json:"sketch_family"`
	// AlreadyWarm reports that some cache tier already had the sketch
	// and nothing was built.
	AlreadyWarm bool  `json:"already_warm"`
	NumRRSets   int   `json:"num_rr_sets"`
	ElapsedMS   int64 `json:"elapsed_ms"`
}

// EstimateRequest is the body of POST /v1/estimate: Monte-Carlo estimate
// the expected social welfare of an explicit allocation.
type EstimateRequest struct {
	GraphID    string        `json:"graph_id"`
	Config     string        `json:"config,omitempty"`
	Items      int           `json:"items,omitempty"`
	Allocation AllocationDTO `json:"allocation"`
	Cascade    string        `json:"cascade,omitempty"`
	Seed       uint64        `json:"seed,omitempty"`
	Runs       int           `json:"runs,omitempty"`    // default 10000
	Workers    int           `json:"workers,omitempty"` // default 1
}

// EstimateResult is the result payload of an estimation job.
type EstimateResult struct {
	Welfare   WelfareDTO `json:"welfare"`
	ElapsedMS int64      `json:"elapsed_ms"`
}

// BuildModel constructs a utility configuration by name, matching the
// welmax CLI's -config flag. items <= 0 defaults to budgetCount.
func BuildModel(name string, items, budgetCount int, seed uint64) (*utility.Model, error) {
	if name == "" {
		name = "config1"
	}
	if items <= 0 {
		items = budgetCount
	}
	switch name {
	case "config1":
		return utility.Config1(), nil
	case "config3":
		return utility.Config3(), nil
	case "additive":
		return utility.Config5(items), nil
	case "cone":
		return utility.ConfigCone(items, 0), nil
	case "levelwise":
		return utility.Config8(items, stats.NewRNG(seed^0xbeef)), nil
	case "real":
		return utility.RealParams(), nil
	case "real-smoothed":
		return utility.RealParamsSmoothed(), nil
	}
	return nil, fmt.Errorf("unknown configuration %q", name)
}

// ParseCascade maps the wire name to a graph.Cascade.
func ParseCascade(name string) (graph.Cascade, error) {
	switch name {
	case "", "ic":
		return graph.CascadeIC, nil
	case "lt":
		return graph.CascadeLT, nil
	}
	return graph.CascadeIC, fmt.Errorf("unknown cascade %q", name)
}
