package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"uicwelfare/internal/frame"
	"uicwelfare/internal/journal"
	"uicwelfare/internal/service"
	"uicwelfare/internal/store"
	"uicwelfare/internal/telemetry"
	"uicwelfare/internal/tracestore"
)

// Options configures a Router.
type Options struct {
	// Backends is the fixed topology (see ParseBackends).
	Backends []Backend
	// ProbeInterval is the health-probe cadence (default 2s).
	ProbeInterval time.Duration
	// ProxyTimeout bounds each proxied or fanned-out backend request
	// (default 30s). SSE streams are exempt — they live as long as the
	// client's connection.
	ProxyTimeout time.Duration
	// AllowPathLoads permits POST /v1/graphs bodies naming router-side
	// files, mirroring the backend flag.
	AllowPathLoads bool
	// SpillDir is where the router spills each cataloged graph's encoded
	// .wmg bytes so it can re-ship a graph whose owner died without
	// holding the whole cluster corpus in router memory. Empty uses a
	// temporary directory removed on Close.
	SpillDir string
	// ClusterToken, when set, is attached (as service.ClusterTokenHeader)
	// to the router's own backend requests — placement imports,
	// rebalancing, sketch ships — so backends started with -cluster-token
	// accept them. Proxied client requests are NOT stamped with it:
	// clients hitting token-gated endpoints through the router must
	// present the token themselves.
	ClusterToken string
	// TraceSample is the tail-sampling keep probability for fast
	// successful router trace fragments (errored ones are always kept).
	TraceSample float64
	// Client is the HTTP client for probes and proxying (default: a
	// plain &http.Client{}; timeouts come from request contexts).
	Client *http.Client
}

// Router fronts N welmaxd backends behind the single-node API: it places
// each graph on one backend by HRW hash of the content-addressed graph
// id, proxies graph-scoped requests to the owner, fans multi-graph
// requests out, follows job ids to the backend that minted them, and
// re-routes graphs (shipping warm sketches along) when membership
// changes.
type Router struct {
	members    *Membership
	client     *http.Client
	interval   time.Duration
	timeout    time.Duration
	allowPaths bool
	token      string
	spillDir   string
	ownSpill   bool // spillDir is router-created and removed on Close
	start      time.Time
	metrics    *telemetry.Metrics
	// flight is the router's control-plane flight recorder: membership
	// transitions, ownership flips, sketch ships, sweep dispatch —
	// queryable through GET /v1/events alongside the shards' journals.
	flight *journal.Recorder
	// traces holds the router's completed trace fragments — the
	// dispatch/proxy spans recorded at the edge for each body-routed
	// request. GET /v1/traces/{id} grafts the owning backend's fragment
	// under these spans into one cross-tier waterfall.
	traces *tracestore.Store

	mu      sync.Mutex
	catalog map[string]*graphRecord
	// tombs remembers client-deleted graph ids so a rebalance or adopt
	// pass racing the DELETE cannot resurrect the graph from a stale
	// snapshot or a backend copy. Re-registering the id clears its
	// tombstone. Bounded crudely: past 4096 entries the set resets,
	// which only re-opens the (tiny) race for long-dead ids.
	tombs map[string]bool

	// syncMu serializes adopt+rebalance passes.
	syncMu     sync.Mutex
	rebalances atomic.Int64 // graphs moved to a new owner
	ships      atomic.Int64 // sketch streams shipped alongside a move

	// The router runs sweeps as jobs in its own JobStore (ids
	// "router-j7"), through the same engine a backend uses, with a runner
	// that dispatches each cell to the owning shard (see newSweepEngine).
	jobs   *service.JobStore
	sweeps *service.SweepEngine
	// dirty marks an unconverged catalog (a move failed, or a graph's
	// owner is down): the probe loop re-runs syncCatalog every round
	// while set, not only on membership flips, so transient move
	// failures are retried instead of stranding a graph on a dead owner.
	dirty atomic.Bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// graphRecord is the router's view of one registered graph: its name
// label and the backend currently holding it. The encoded .wmg bytes the
// router re-ships when ownership changes live on disk under spillDir
// (see saveWMG) — keeping them in the record would grow router RSS with
// the entire cluster corpus, making the routing tier the memory
// bottleneck sharding exists to remove.
type graphRecord struct {
	id    string
	name  string
	owner string
}

// New assembles a router over the given topology. Call Start to begin
// probing (until the first probe round every backend counts as down).
func New(opts Options) (*Router, error) {
	if len(opts.Backends) == 0 {
		return nil, fmt.Errorf("cluster: no backends")
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 2 * time.Second
	}
	if opts.ProxyTimeout <= 0 {
		opts.ProxyTimeout = 30 * time.Second
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{}
	}
	spillDir, ownSpill := opts.SpillDir, false
	if spillDir == "" {
		d, err := os.MkdirTemp("", "welmaxrouter-catalog-")
		if err != nil {
			return nil, fmt.Errorf("cluster: catalog spill dir: %w", err)
		}
		spillDir, ownSpill = d, true
	} else if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: catalog spill dir: %w", err)
	}
	probeTimeout := min(opts.ProbeInterval, 2*time.Second)
	jobs := service.NewJobStore(0)
	jobs.SetNodeID("router")
	flight, err := journal.New(journal.Options{
		Node: "router",
		Dir:  filepath.Join(spillDir, "journal"),
	})
	if err != nil {
		if ownSpill {
			os.RemoveAll(spillDir)
		}
		return nil, fmt.Errorf("cluster: journal: %w", err)
	}
	traces, err := tracestore.New(tracestore.Options{
		Node:       "router",
		SampleRate: opts.TraceSample,
		Dir:        filepath.Join(spillDir, "traces"),
	})
	if err != nil {
		flight.Close()
		if ownSpill {
			os.RemoveAll(spillDir)
		}
		return nil, fmt.Errorf("cluster: trace store: %w", err)
	}
	r := &Router{
		members:    NewMembership(opts.Backends, client, probeTimeout),
		client:     client,
		interval:   opts.ProbeInterval,
		timeout:    opts.ProxyTimeout,
		allowPaths: opts.AllowPathLoads,
		token:      opts.ClusterToken,
		spillDir:   spillDir,
		ownSpill:   ownSpill,
		start:      time.Now(),
		metrics:    telemetry.NewMetrics(),
		flight:     flight,
		traces:     traces,
		catalog:    map[string]*graphRecord{},
		tombs:      map[string]bool{},
		jobs:       jobs,
		stop:       make(chan struct{}),
	}
	r.sweeps = r.newSweepEngine()
	// Every probe-round health transition becomes a member_up/member_down
	// event, stamped with the member's own node name so ?node= finds it.
	r.members.SetTransitionHook(func(name string, healthy bool, errMsg string) {
		typ := journal.MemberUp
		if !healthy {
			typ = journal.MemberDown
		}
		r.flight.Record(journal.Event{Type: typ, Node: name, Error: errMsg})
	})
	return r, nil
}

// Journal exposes the router's flight recorder (welmaxd wiring and
// tests).
func (r *Router) Journal() *journal.Recorder { return r.flight }

// Traces exposes the router's trace-fragment store (tests).
func (r *Router) Traces() *tracestore.Store { return r.traces }

// Start runs the probe/rebalance loop: an immediate first sync, then one
// probe round per interval, rebalancing whenever membership changed.
func (r *Router) Start() {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.Sync(context.Background())
		t := time.NewTicker(r.interval)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				if r.members.ProbeAll(context.Background()) || r.dirty.Load() {
					r.syncCatalog(context.Background())
				}
			}
		}
	}()
}

// Close stops the probe loop and, when the catalog spill directory was
// router-created, removes it.
func (r *Router) Close() {
	close(r.stop)
	r.wg.Wait()
	r.flight.Close()
	r.traces.Close()
	if r.ownSpill {
		os.RemoveAll(r.spillDir)
	}
}

// --- catalog spill ------------------------------------------------------

func (r *Router) spillPath(id string) string {
	return filepath.Join(r.spillDir, id+store.GraphExt)
}

// saveWMG spills a graph's encoded bytes under the catalog directory,
// reporting success. On failure the move path falls back to re-fetching
// the export from a live holder (fetchWMG), and adopt re-tries the spill
// while one still exports the graph.
func (r *Router) saveWMG(id string, wmg []byte) bool {
	err := frame.WriteFileAtomic(r.spillPath(id), func(w io.Writer) error {
		_, err := w.Write(wmg)
		return err
	})
	if err != nil {
		log.Printf("cluster: spill %s: %v", id, err)
	}
	return err == nil
}

func (r *Router) loadWMG(id string) ([]byte, error) {
	return os.ReadFile(r.spillPath(id))
}

func (r *Router) removeWMG(id string) {
	os.Remove(r.spillPath(id))
}

// Sync runs one full round synchronously — probe every backend, adopt
// unknown graphs, rebalance ownership. The loop uses it for its first
// round; tests use it for determinism.
func (r *Router) Sync(ctx context.Context) {
	r.members.ProbeAll(ctx)
	r.syncCatalog(ctx)
}

// --- HTTP surface -------------------------------------------------------

// Handler returns the router's client-facing API — the same routes a
// single-node welmaxd serves.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/graphs", r.timed("POST /v1/graphs", r.handleCreateGraph))
	mux.HandleFunc("GET /v1/graphs", r.timed("GET /v1/graphs", r.handleListGraphs))
	mux.HandleFunc("GET /v1/graphs/{id}", r.timed("GET /v1/graphs/{id}", r.proxyGraphScoped))
	mux.HandleFunc("DELETE /v1/graphs/{id}", r.timed("DELETE /v1/graphs/{id}", r.handleDeleteGraph))
	mux.HandleFunc("POST /v1/graphs/{id}/warm", r.timed("POST /v1/graphs/{id}/warm", r.proxyGraphScoped))
	mux.HandleFunc("GET /v1/graphs/{id}/export", r.timed("GET /v1/graphs/{id}/export", r.proxyGraphScoped))
	mux.HandleFunc("GET /v1/graphs/{id}/sketches", r.timed("GET /v1/graphs/{id}/sketches", r.proxyGraphScoped))
	mux.HandleFunc("POST /v1/graphs/{id}/sketches", r.timed("POST /v1/graphs/{id}/sketches", r.proxyGraphScoped))
	mux.HandleFunc("GET /v1/algorithms", r.timed("GET /v1/algorithms", r.handleAlgorithms))
	mux.HandleFunc("POST /v1/allocate", r.timed("POST /v1/allocate", r.handleBodyRouted))
	mux.HandleFunc("POST /v1/estimate", r.timed("POST /v1/estimate", r.handleBodyRouted))
	mux.HandleFunc("GET /v1/jobs", r.timed("GET /v1/jobs", r.handleListJobs))
	mux.HandleFunc("GET /v1/jobs/{id}", r.timed("GET /v1/jobs/{id}", r.proxyJobScoped))
	mux.HandleFunc("GET /v1/jobs/{id}/events", r.timed("GET /v1/jobs/{id}/events", r.proxyJobScoped))
	mux.HandleFunc("DELETE /v1/jobs/{id}", r.timed("DELETE /v1/jobs/{id}", r.proxyJobScoped))
	mux.HandleFunc("POST /v1/sweeps", r.timed("POST /v1/sweeps", r.sweeps.HandleCreate))
	mux.HandleFunc("GET /v1/sweeps", r.timed("GET /v1/sweeps", r.sweeps.HandleList))
	mux.HandleFunc("GET /v1/sweeps/{id}", r.timed("GET /v1/sweeps/{id}", r.sweeps.HandleGet))
	mux.HandleFunc("GET /v1/sweeps/{id}/events", r.timed("GET /v1/sweeps/{id}/events", r.sweeps.HandleEvents))
	mux.HandleFunc("GET /v1/sweeps/{id}/results", r.timed("GET /v1/sweeps/{id}/results", r.sweeps.HandleResults))
	mux.HandleFunc("DELETE /v1/sweeps/{id}", r.timed("DELETE /v1/sweeps/{id}", r.sweeps.HandleCancel))
	mux.HandleFunc("GET /v1/events", r.timed("GET /v1/events", r.handleEvents))
	mux.HandleFunc("GET /v1/traces", r.timed("GET /v1/traces", r.handleTraces))
	mux.HandleFunc("GET /v1/traces/{id}", r.timed("GET /v1/traces/{id}", r.handleTraceGet))
	mux.HandleFunc("GET /v1/cluster/placement/{graph_id}", r.timed("GET /v1/cluster/placement/{graph_id}", r.handlePlacement))
	mux.HandleFunc("GET /v1/stats", r.timed("GET /v1/stats", r.handleStats))
	mux.HandleFunc("GET /v1/metrics", r.timed("GET /v1/metrics", r.handleMetrics))
	mux.HandleFunc("GET /healthz", r.timed("GET /healthz", r.handleHealthz))
	mux.HandleFunc("GET /v1/healthz", r.timed("GET /v1/healthz", r.handleHealthz))
	return mux
}

// timed wraps a route handler with the router's own request-latency
// histogram. The route label is the literal mux pattern (Go 1.22's
// ServeMux has no Pattern field on the request, so the registration
// closes over it). The trace id the handler echoed on the response (if
// any) becomes the bucket's exemplar.
func (r *Router) timed(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		h(w, req)
		r.metrics.ObserveEx("welmax_http_request_duration_seconds",
			[]telemetry.Label{{Name: "route", Value: route}}, time.Since(start),
			w.Header().Get(telemetry.TraceHeader))
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeRetryable reports a transient routing failure (owner down,
// backend unreachable): the body carries "retryable": true so clients
// know the same request may succeed after the next rebalance, plus the
// request's trace id (adopted from the client's header or minted here,
// and echoed on the response) so the failure can be correlated with the
// flight recorder's events for the same window.
func writeRetryable(w http.ResponseWriter, req *http.Request, status int, err error) {
	traceID := telemetry.SanitizeID(req.Header.Get(telemetry.TraceHeader))
	if traceID == "" {
		traceID = telemetry.NewTraceID()
	}
	w.Header().Set(telemetry.TraceHeader, traceID)
	writeJSON(w, status, map[string]any{"error": err.Error(), "retryable": true, "trace_id": traceID})
}

// maxBodyBytes mirrors the backend's request-body bound.
const maxBodyBytes = 64 << 20

// maxShipBytes bounds router-internal transfers (sketch-stream exports
// read back during a move). Warm sets are bounded by the backends'
// cache budgets, but they can legitimately exceed the public 64MB
// request cap, and silently truncating one would discard sketch work.
const maxShipBytes = 1 << 30

// ownerOf resolves the backend that should serve a graph-scoped request:
// the cataloged owner when the router registered (or adopted) the graph,
// otherwise the HRW owner among live backends — covering graphs that
// exist only on a backend's boot re-index until adoption picks them up.
func (r *Router) ownerOf(graphID string) (string, error) {
	// rec.owner is copied while r.mu is held: rebalance() rewrites the
	// field under the same lock, and an unlocked read here would race it.
	r.mu.Lock()
	rec := r.catalog[graphID]
	dead := r.tombs[graphID]
	var owner string
	if rec != nil {
		owner = rec.owner
	}
	r.mu.Unlock()
	if rec != nil {
		if !r.members.IsAlive(owner) {
			return "", fmt.Errorf("backend %q owning graph %s is down; rebalance pending, retry shortly", owner, graphID)
		}
		return owner, nil
	}
	// Not cataloged: either unknown everywhere (the HRW owner will 404,
	// which is the right answer) or registered directly on some backend
	// behind the router's back — flag the drift so the next probe round
	// adopts it instead of waiting for a membership flip.
	if !dead {
		r.dirty.Store(true)
	}
	alive := r.members.Alive()
	owner, ok := Owner(alive, graphID)
	if !ok {
		return "", fmt.Errorf("no live backends")
	}
	return owner, nil
}

// proxyGraphScoped forwards /v1/graphs/{id}... to the graph's owner.
func (r *Router) proxyGraphScoped(w http.ResponseWriter, req *http.Request) {
	owner, err := r.ownerOf(req.PathValue("id"))
	if err != nil {
		writeRetryable(w, req, http.StatusBadGateway, err)
		return
	}
	r.proxy(w, req, owner, nil)
}

// handleDeleteGraph forwards the delete to the owner and, on success,
// forgets the graph so the rebalancer stops re-shipping it.
func (r *Router) handleDeleteGraph(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	owner, err := r.ownerOf(id)
	if err != nil {
		writeRetryable(w, req, http.StatusBadGateway, err)
		return
	}
	status := r.proxy(w, req, owner, nil)
	if status >= 200 && status < 300 {
		r.mu.Lock()
		delete(r.catalog, id)
		if len(r.tombs) > 4096 {
			r.tombs = map[string]bool{}
		}
		r.tombs[id] = true
		r.mu.Unlock()
		r.removeWMG(id)
	}
}

// proxyJobScoped forwards /v1/jobs/{id}... to the backend encoded in the
// job id's node prefix.
func (r *Router) proxyJobScoped(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	node, ok := JobNode(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q (cluster job ids carry a node prefix, e.g. b0-j7)", id))
		return
	}
	if _, ok := r.members.URLOf(node); !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q: no backend %q in the topology", id, node))
		return
	}
	if !r.members.IsAlive(node) {
		writeRetryable(w, req, http.StatusBadGateway, fmt.Errorf("backend %q holding job %s is down", node, id))
		return
	}
	r.proxy(w, req, node, nil)
}

// handleBodyRouted forwards POST /v1/allocate and /v1/estimate: the
// routing key (graph_id) lives in the JSON body, so it is buffered,
// peeked, and replayed to the owner. The hop is traced: a dispatch span
// covers the routing decision, a proxy child span covers the backend
// round trip, and the proxy span's id travels in X-Welmax-Span-Id so
// the backend parents its own spans under it — the two fragments of
// the trace reassemble into one tree on GET /v1/traces/{id}.
func (r *Router) handleBodyRouted(w http.ResponseWriter, req *http.Request) {
	tr := telemetry.NewTrace(telemetry.SanitizeID(req.Header.Get(telemetry.TraceHeader)), true)
	w.Header().Set(telemetry.TraceHeader, tr.ID())
	ctx := telemetry.NewContext(req.Context(), tr)
	route := strings.TrimPrefix(req.URL.Path, "/v1/")
	dctx, endDispatch := telemetry.WithSpan(ctx, "dispatch")
	fail := func(status int, err error) {
		endDispatch()
		r.recordTrace(tr, route, "", err)
		writeError(w, status, err)
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxBodyBytes))
	if err != nil {
		fail(http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	var peek struct {
		GraphID string `json:"graph_id"`
	}
	if err := json.Unmarshal(body, &peek); err != nil {
		fail(http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if peek.GraphID == "" {
		fail(http.StatusBadRequest, fmt.Errorf("graph_id required"))
		return
	}
	owner, err := r.ownerOf(peek.GraphID)
	if err != nil {
		endDispatch()
		r.recordTrace(tr, route, peek.GraphID, err)
		writeRetryable(w, req, http.StatusBadGateway, err)
		return
	}
	pctx, endProxy := telemetry.WithSpan(dctx, "proxy")
	req.Header.Set(telemetry.TraceHeader, tr.ID())
	req.Header.Set(telemetry.SpanHeader, telemetry.SpanIDFromContext(pctx))
	status := r.proxy(w, req.WithContext(pctx), owner, body)
	endProxy()
	endDispatch()
	var perr error
	if status == 0 {
		perr = fmt.Errorf("backend %q unreachable", owner)
	}
	r.recordTrace(tr, route, peek.GraphID, perr)
}

// recordTrace offers the router's fragment of one body-routed request
// to the trace store. The edge fragment covers the 202 exchange, not
// the backend job that follows it — GET /v1/traces/{id} fetches the
// backend's own fragment and grafts the two together.
func (r *Router) recordTrace(tr *telemetry.Trace, route, graphID string, err error) {
	rec := tracestore.Record{
		TraceID:      tr.ID(),
		Route:        route,
		Graph:        graphID,
		Start:        tr.Start(),
		DurationMS:   float64(time.Since(tr.Start())) / float64(time.Millisecond),
		Spans:        tr.Spans(),
		SpansDropped: tr.DroppedSpans(),
		Resources:    tr.Resources(),
	}
	if err != nil {
		rec.Error = err.Error()
	}
	r.traces.Add(rec)
}

// handleCreateGraph implements POST /v1/graphs: materialize the graph on
// the router (the only way to learn its content id before placing it),
// pick the HRW owner, and re-register it there as inline .wmg bytes. The
// bytes are spilled to the catalog directory so the router can re-ship
// the graph if the owner later leaves.
func (r *Router) handleCreateGraph(w http.ResponseWriter, req *http.Request) {
	var greq service.GraphRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&greq); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if greq.Path != "" && !r.allowPaths {
		writeError(w, http.StatusForbidden,
			fmt.Errorf("router-side path loading is disabled (start the router with -allow-paths)"))
		return
	}
	name, g, err := service.LoadGraph(&greq)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	id := store.GraphID(g)
	var wmg bytes.Buffer
	if err := store.EncodeGraph(&wmg, name, g); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}

	// A graph already routed keeps its owner (content addressing makes
	// this a dedupe); a new one goes to its HRW owner. The owner field is
	// copied under r.mu — rebalance() rewrites it under the same lock.
	r.mu.Lock()
	rec := r.catalog[id]
	var curOwner string
	if rec != nil {
		curOwner = rec.owner
	}
	r.mu.Unlock()
	owner := ""
	if rec != nil && r.members.IsAlive(curOwner) {
		owner = curOwner
	} else if o, ok := Owner(r.members.Alive(), id); ok {
		owner = o
	} else {
		writeRetryable(w, req, http.StatusServiceUnavailable, fmt.Errorf("no live backends"))
		return
	}

	// Raw .wmg import, not a JSON-embedded graph: base64 inside a
	// GraphRequest would hit the backend's request-body cap long before
	// the graphs the backends themselves can hold. The placement runs
	// under the request's trace (adopted or minted here at the edge) and
	// is timed as a cluster op.
	tr := telemetry.NewTrace(telemetry.SanitizeID(req.Header.Get(telemetry.TraceHeader)), true)
	w.Header().Set(telemetry.TraceHeader, tr.ID())
	ctx := telemetry.NewContext(req.Context(), tr)
	placeStart := time.Now()
	status, raw, err := r.call(ctx, http.MethodPost, owner, "/v1/graphs/import", bytes.NewReader(wmg.Bytes()))
	r.observeOp("placement", placeStart)
	if err != nil {
		writeRetryable(w, req, http.StatusBadGateway, fmt.Errorf("backend %q: %w", owner, err))
		return
	}
	if status == http.StatusCreated || status == http.StatusOK {
		if !r.saveWMG(id, wmg.Bytes()) {
			// The graph is registered but not re-shippable from the router
			// alone; flag the catalog so the next probe round re-tries the
			// spill (adopt) while the owner still exports it.
			r.dirty.Store(true)
		}
		r.mu.Lock()
		delete(r.tombs, id) // a re-registration revives a deleted id
		if rec = r.catalog[id]; rec == nil {
			r.catalog[id] = &graphRecord{id: id, name: name, owner: owner}
		} else {
			rec.owner = owner
		}
		r.mu.Unlock()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(raw)
}

// handleAlgorithms proxies to the first live backend — every backend
// runs the same registry, so any answer is the cluster's answer.
func (r *Router) handleAlgorithms(w http.ResponseWriter, req *http.Request) {
	alive := r.members.Alive()
	if len(alive) == 0 {
		writeRetryable(w, req, http.StatusServiceUnavailable, fmt.Errorf("no live backends"))
		return
	}
	r.proxy(w, req, alive[0], nil)
}

// handleListGraphs fans GET /v1/graphs out to every live backend and
// merges the lists (deduped by id — during a rebalance a graph can be
// momentarily resident on two backends). Backends that fail within the
// proxy deadline are reported in "errors" with "partial": true rather
// than failing the whole listing.
func (r *Router) handleListGraphs(w http.ResponseWriter, req *http.Request) {
	results := r.fanout(req.Context(), http.MethodGet, "/v1/graphs")
	seen := map[string]service.GraphInfo{}
	errs := map[string]string{}
	for _, res := range results {
		var body struct {
			Graphs []service.GraphInfo `json:"graphs"`
		}
		if err := res.decode(&body); err != nil {
			errs[res.backend] = err.Error()
			continue
		}
		for _, gi := range body.Graphs {
			seen[gi.ID] = gi
		}
	}
	graphs := make([]service.GraphInfo, 0, len(seen))
	r.mu.Lock()
	for id, gi := range seen {
		graphs = append(graphs, gi)
		// A listed graph the catalog does not know about was registered
		// directly on a backend: flag it for adoption on the next round.
		if r.catalog[id] == nil && !r.tombs[id] {
			r.dirty.Store(true)
		}
	}
	r.mu.Unlock()
	sort.Slice(graphs, func(i, j int) bool { return graphs[i].ID < graphs[j].ID })
	out := map[string]any{"graphs": graphs}
	if len(errs) > 0 {
		out["partial"] = true
		out["errors"] = errs
	}
	writeJSON(w, http.StatusOK, out)
}

// RouterStats is the router's GET /v1/stats body: the cluster summary
// plus each live backend's own stats.
type RouterStats struct {
	Cluster struct {
		Backends []BackendStatus `json:"backends"`
		// Graphs counts graphs the router has routed or adopted.
		Graphs int `json:"graphs"`
		// Rebalances counts graphs moved to a new owner; SketchShips
		// counts the warm-sketch streams shipped along with them.
		Rebalances  int64 `json:"rebalances"`
		SketchShips int64 `json:"sketch_ships"`
		// Batched, HeldGroups, CoalescedRequests, SketchExtends and
		// AdmissionRejects aggregate the per-shard batch-scheduler,
		// extend and admission-control counters across the live backends
		// (each backend's own numbers are under Backends[name].batch) —
		// batching and admission run per shard, so the cluster-level
		// picture is their sum.
		Batched           int64 `json:"batched"`
		HeldGroups        int64 `json:"held_groups"`
		CoalescedRequests int64 `json:"coalesced_requests"`
		SketchExtends     int64 `json:"sketch_extends"`
		AdmissionRejects  int64 `json:"admission_rejects"`
		// SweepCells* count the router's sweep-dispatched cells by
		// terminal state.
		SweepCellsDone     int64 `json:"sweep_cells_done"`
		SweepCellsFailed   int64 `json:"sweep_cells_failed"`
		SweepCellsCanceled int64 `json:"sweep_cells_canceled"`
		UptimeMS           int64 `json:"uptime_ms"`
	} `json:"cluster"`
	// Backends maps node name to that backend's full StatsResponse;
	// backends that could not be read appear in Errors instead, and
	// Partial is set.
	Backends map[string]service.StatsResponse `json:"backends"`
	Partial  bool                             `json:"partial,omitempty"`
	Errors   map[string]string                `json:"errors,omitempty"`
}

// Stats assembles the cluster stats view (also used by tests directly).
func (r *Router) Stats(ctx context.Context) RouterStats {
	var out RouterStats
	out.Cluster.Backends = r.members.Snapshot()
	r.mu.Lock()
	out.Cluster.Graphs = len(r.catalog)
	r.mu.Unlock()
	out.Cluster.Rebalances = r.rebalances.Load()
	out.Cluster.SketchShips = r.ships.Load()
	cells := r.sweeps.Stats()
	out.Cluster.SweepCellsDone = cells.CellsDone
	out.Cluster.SweepCellsFailed = cells.CellsFailed
	out.Cluster.SweepCellsCanceled = cells.CellsCanceled
	out.Cluster.UptimeMS = time.Since(r.start).Milliseconds()
	out.Backends = map[string]service.StatsResponse{}
	for _, res := range r.fanout(ctx, http.MethodGet, "/v1/stats") {
		var st service.StatsResponse
		if err := res.decode(&st); err != nil {
			if out.Errors == nil {
				out.Errors = map[string]string{}
			}
			out.Partial = true
			out.Errors[res.backend] = err.Error()
			continue
		}
		out.Backends[res.backend] = st
		out.Cluster.Batched += st.Batch.Batched
		out.Cluster.HeldGroups += st.Batch.HeldGroups
		out.Cluster.CoalescedRequests += st.Batch.CoalescedRequests
		out.Cluster.SketchExtends += st.Batch.SketchExtends
		out.Cluster.AdmissionRejects += st.Batch.AdmissionRejects
	}
	return out
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, r.Stats(req.Context()))
}

// handleListJobs fans GET /v1/jobs out and concatenates: job ids are
// globally unique (node-prefixed), so no rewriting or deduping is
// needed. The ?state= filter is forwarded verbatim.
func (r *Router) handleListJobs(w http.ResponseWriter, req *http.Request) {
	path := "/v1/jobs"
	if q := req.URL.RawQuery; q != "" {
		path += "?" + q
	}
	var jobs []json.RawMessage
	errs := map[string]string{}
	for _, res := range r.fanout(req.Context(), http.MethodGet, path) {
		if res.err == nil && res.status == http.StatusBadRequest {
			// A 400 (bad ?state=) is the client's error; relay it.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(res.status)
			_, _ = w.Write(res.body)
			return
		}
		// Any other failure is that backend's problem, not the
		// listing's: report it partial.
		var body struct {
			Jobs []json.RawMessage `json:"jobs"`
		}
		if err := res.decode(&body); err != nil {
			errs[res.backend] = err.Error()
			continue
		}
		jobs = append(jobs, body.Jobs...)
	}
	out := map[string]any{"jobs": jobs}
	if len(jobs) == 0 {
		out["jobs"] = []json.RawMessage{}
	}
	if len(errs) > 0 {
		out["partial"] = true
		out["errors"] = errs
	}
	writeJSON(w, http.StatusOK, out)
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	alive := r.members.Alive()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"role":     "router",
		"backends": len(r.members.Snapshot()),
		"alive":    len(alive),
	})
}

// --- proxy plumbing -----------------------------------------------------

// proxy forwards req to the named backend and relays the response (see
// relayBody). body, when non-nil, replaces the (already consumed)
// request body. Returns the relayed status, or 0 when the backend was
// unreachable (a 502 with a retryable body was written instead). A
// backend body cut short after the status went out aborts the client's
// connection, so the client sees an error instead of a short 200.
func (r *Router) proxy(w http.ResponseWriter, req *http.Request, backend string, body []byte) int {
	base, ok := r.members.URLOf(backend)
	if !ok {
		writeError(w, http.StatusBadGateway, fmt.Errorf("unknown backend %q", backend))
		return 0
	}
	url := base + req.URL.Path
	if q := req.URL.RawQuery; q != "" {
		url += "?" + q
	}

	ctx := req.Context()
	// Event streams run until the client hangs up; everything else gets
	// the proxy deadline.
	streaming := req.Method == http.MethodGet && len(req.URL.Path) > 7 && req.URL.Path[len(req.URL.Path)-7:] == "/events"
	if !streaming {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.timeout)
		defer cancel()
	}

	var rd io.Reader = req.Body
	if body != nil {
		rd = bytes.NewReader(body)
	}
	out, err := http.NewRequestWithContext(ctx, req.Method, url, rd)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return 0
	}
	// The client's own cluster-token header (if any) passes through with
	// the rest; the router's credential is deliberately NOT attached here.
	// Stamping it onto client-originated requests would let any caller who
	// can reach the router import sketches into a token-gated backend — a
	// confused deputy. The router authenticates only its own traffic
	// (call, streamSketches); clients hitting gated endpoints through the
	// proxy must present the token themselves.
	copyEndToEndHeaders(out.Header, req.Header)
	// The trace id is minted here, at the cluster edge, when the client
	// did not send one: the backend keeps a router-minted (or
	// client-sent) id, so the same id names the request in the router's
	// logs, the backend's job record, and the SSE stream.
	if out.Header.Get(telemetry.TraceHeader) == "" {
		out.Header.Set(telemetry.TraceHeader, telemetry.NewTraceID())
	}
	resp, err := r.client.Do(out)
	if err != nil {
		writeRetryable(w, req, http.StatusBadGateway, fmt.Errorf("backend %q: %w", backend, err))
		return 0
	}
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Cache-Control", "Content-Disposition", telemetry.TraceHeader} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	stream := strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream")
	length := resp.ContentLength
	if stream || req.Method == http.MethodHead || !bodyAllowed(resp.StatusCode) {
		length = -1
	}
	if length >= 0 {
		w.Header().Set("Content-Length", strconv.FormatInt(length, 10))
	}
	w.WriteHeader(resp.StatusCode)
	if err := relayBody(w, resp.Body, length, stream); err != nil && req.Context().Err() == nil {
		panic(http.ErrAbortHandler)
	}
	return resp.StatusCode
}

// bodyAllowed reports whether a response with this status may carry a
// body (RFC 9110: not 1xx, 204 or 304).
func bodyAllowed(status int) bool {
	return status >= 200 && status != http.StatusNoContent && status != http.StatusNotModified
}

// hopHeaders are the hop-by-hop (or transport-owned) request headers a
// proxy must not forward verbatim; everything else — Accept,
// Last-Event-ID (an SSE client resuming through the router), conditional
// headers — passes through end to end.
var hopHeaders = map[string]bool{
	"Connection":          true,
	"Content-Length":      true,
	"Keep-Alive":          true,
	"Proxy-Authenticate":  true,
	"Proxy-Authorization": true,
	"Proxy-Connection":    true,
	"Te":                  true,
	"Trailer":             true,
	"Transfer-Encoding":   true,
	"Upgrade":             true,
}

// copyEndToEndHeaders copies the end-to-end request headers from src
// onto an outbound backend request.
func copyEndToEndHeaders(dst, src http.Header) {
	for k, vv := range src {
		if hopHeaders[k] {
			continue
		}
		dst[k] = append([]string(nil), vv...)
	}
}

// relayBufs holds the 32 KiB relay buffers, one per proxied response
// in flight: a fresh buffer per response was the router's largest
// allocation on a warm op.
var relayBufs = sync.Pool{New: func() any { b := make([]byte, 32<<10); return &b }}

// relayBody copies a backend response body to the client. An event
// stream (stream) is flushed after every read, so SSE frames reach the
// client as the backend emits them. Any other body is never flushed:
// one whose known length fits the buffer is read whole and written in
// one Write behind the Content-Length proxy set, and a longer one is
// copied in buffer-sized writes. It returns the read error that cut the
// body short; a failed write means the client left and is not reported.
func relayBody(w http.ResponseWriter, body io.Reader, length int64, stream bool) error {
	bp := relayBufs.Get().(*[]byte)
	defer relayBufs.Put(bp)
	buf := *bp
	if length >= 0 && length <= int64(len(buf)) {
		if _, err := io.ReadFull(body, buf[:length]); err != nil {
			return err
		}
		_, _ = w.Write(buf[:length])
		return nil
	}
	fl, _ := w.(http.Flusher)
	for {
		n, err := body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return nil
			}
			if stream && fl != nil {
				fl.Flush()
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// call performs one router-initiated backend request (registration,
// shipping, sweep dispatch) under the proxy deadline, returning the
// status and body. When the context carries a trace (placement, a
// catalog sync pass, a sweep), its id is stamped onto the request, so
// the backend's job records and logs correlate with the router-side
// operation that caused them.
func (r *Router) call(ctx context.Context, method, backend, path string, body io.Reader) (int, []byte, error) {
	base, ok := r.members.URLOf(backend)
	if !ok {
		return 0, nil, fmt.Errorf("unknown backend %q", backend)
	}
	ctx, cancel := context.WithTimeout(ctx, r.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, base+path, body)
	if err != nil {
		return 0, nil, err
	}
	if r.token != "" {
		req.Header.Set(service.ClusterTokenHeader, r.token)
	}
	if tr := telemetry.FromContext(ctx); tr != nil && tr.ID() != "" {
		req.Header.Set(telemetry.TraceHeader, tr.ID())
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxShipBytes))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, raw, nil
}

func jsonBody(v any) io.Reader {
	raw, _ := json.Marshal(v)
	return bytes.NewReader(raw)
}

// fanoutResult is one backend's answer to a fanned-out request.
type fanoutResult struct {
	backend string
	status  int
	body    []byte
	err     error
}

// decode reads one backend's answer into v. A transport error, a
// non-200 status ("status 500") or a body that is not JSON is that
// backend's error, which callers report instead of merging the body.
func (res fanoutResult) decode(v any) error {
	if res.err != nil {
		return res.err
	}
	if res.status != http.StatusOK {
		return fmt.Errorf("status %d", res.status)
	}
	return json.Unmarshal(res.body, v)
}

// fanout issues the request to every live backend concurrently, each
// under the proxy deadline — one slow backend delays the merge at most
// by the deadline, never forever. When ctx carries a trace, the whole
// fan-in is one fan_out span on it.
func (r *Router) fanout(ctx context.Context, method, path string) []fanoutResult {
	endFan := telemetry.StartSpan(ctx, "fan_out")
	defer endFan()
	alive := r.members.Alive()
	out := make([]fanoutResult, len(alive))
	var wg sync.WaitGroup
	for i, name := range alive {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, body, err := r.call(ctx, method, name, path, nil)
			out[i] = fanoutResult{backend: name, status: status, body: body, err: err}
		}()
	}
	wg.Wait()
	return out
}
