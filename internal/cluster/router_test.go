package cluster_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"uicwelfare/internal/cluster"
	"uicwelfare/internal/service"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// retryableBody decodes the router's transient-failure error shape.
type retryableBody struct {
	Error     string `json:"error"`
	Retryable bool   `json:"retryable"`
}

// TestOwnerDownRetryableThenReroute kills a graph's owner and checks the
// two phases a client sees: before the router notices, graph-scoped
// requests fail with a 502 whose body says retryable; after the next
// probe round, the graph has been re-shipped and the same request
// succeeds.
func TestOwnerDownRetryableThenReroute(t *testing.T) {
	backends := []*backend{
		startBackendAt(t, "b0", "127.0.0.1:0", service.Options{}),
		startBackendAt(t, "b1", "127.0.0.1:0", service.Options{}),
	}
	rt, c := newCluster(t, backends, cluster.Options{ProbeInterval: time.Hour, ProxyTimeout: 5 * time.Second})
	defer rt.Close()
	rt.Sync(syncCtx())

	info := c.registerLine(4)
	var owner, survivor *backend
	for _, b := range backends {
		if _, ok := b.svc.Registry().Get(info.ID); ok {
			owner = b
		} else {
			survivor = b
		}
	}
	if owner == nil || survivor == nil {
		t.Fatal("placement did not yield one owner and one survivor")
	}
	owner.kill()

	// Phase 1: stale membership — the proxy attempt fails and the error
	// body marks the failure retryable.
	alloc := service.AllocateRequest{GraphID: info.ID, Budgets: []int{2, 2}}
	status, raw := c.do("POST", "/v1/allocate", alloc)
	if status != http.StatusBadGateway {
		t.Fatalf("allocate with owner down: status %d: %s", status, raw)
	}
	var body retryableBody
	if err := json.Unmarshal(raw, &body); err != nil || !body.Retryable || body.Error == "" {
		t.Fatalf("error body %s not retryable", raw)
	}

	// Phase 2: the probe round notices, rebalance re-ships, the retry
	// lands on the survivor.
	rt.Sync(syncCtx())
	view := c.waitJob(c.submit("/v1/allocate", alloc))
	if view.State != service.JobDone {
		t.Fatalf("rerouted allocate failed: %s", view.Error)
	}
	if _, ok := survivor.svc.Registry().Get(info.ID); !ok {
		t.Error("graph not resident on the survivor")
	}

	// Deleting through the router tombstones the id: later sync passes
	// must not re-adopt or re-ship the deleted graph from anywhere.
	if status, raw := c.do("DELETE", "/v1/graphs/"+info.ID, nil); status != http.StatusOK {
		t.Fatalf("delete through router: status %d: %s", status, raw)
	}
	rt.Sync(syncCtx())
	rt.Sync(syncCtx())
	var merged struct {
		Graphs []service.GraphInfo `json:"graphs"`
	}
	c.doJSON("GET", "/v1/graphs", nil, &merged, http.StatusOK)
	if len(merged.Graphs) != 0 {
		t.Errorf("deleted graph resurrected: %+v", merged.Graphs)
	}
	if _, ok := survivor.svc.Registry().Get(info.ID); ok {
		t.Error("deleted graph still resident on the survivor")
	}

	// Job routes to the dead backend are retryable too; malformed and
	// unknown-node ids are plain 404s.
	if status, raw := c.do("GET", "/v1/jobs/"+owner.name+"-j1", nil); status != http.StatusBadGateway {
		t.Errorf("job on dead backend: status %d: %s", status, raw)
	}
	if status, _ := c.do("GET", "/v1/jobs/j1", nil); status != http.StatusNotFound {
		t.Errorf("unprefixed job id: status %d, want 404", status)
	}
	if status, _ := c.do("GET", "/v1/jobs/zz-j1", nil); status != http.StatusNotFound {
		t.Errorf("unknown node: status %d, want 404", status)
	}
}

// slowBackend is a stub that answers health probes as a well-behaved
// node but stalls every other route — the pathological slow shard.
func slowBackend(t *testing.T, name string, delay time.Duration) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(service.HealthzResponse{Status: "ok", Node: name})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(delay):
		case <-r.Context().Done():
			return
		}
		_, _ = fmt.Fprint(w, `{"graphs":[],"jobs":[]}`)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestFanoutRespectsDeadlineWithSlowBackend fans out across one healthy
// backend and one stalled one: the merge must return within the proxy
// deadline, carrying the healthy backend's data and reporting the slow
// one as a partial failure.
func TestFanoutRespectsDeadlineWithSlowBackend(t *testing.T) {
	real := startBackendAt(t, "b0", "127.0.0.1:0", service.Options{})
	slow := slowBackend(t, "slow", 10*time.Second)

	rt, err := cluster.New(cluster.Options{
		Backends: []cluster.Backend{
			{Name: "b0", URL: real.url()},
			{Name: "slow", URL: slow.URL},
		},
		ProbeInterval: time.Hour,
		ProxyTimeout:  200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	c := &client{t: t, base: front.URL}
	rt.Sync(syncCtx()) // both probe healthy; adopt tolerates the stall

	// Register directly on the healthy backend: routing through the
	// router could pick the stub as HRW owner.
	direct := &client{t: t, base: real.url()}
	var info service.GraphInfo
	direct.doJSON("POST", "/v1/graphs", service.GraphRequest{
		Name: "tri", Edges: lineEdges(4), KeepProbs: true,
	}, &info, http.StatusCreated)

	start := time.Now()
	var list struct {
		Graphs  []service.GraphInfo `json:"graphs"`
		Partial bool                `json:"partial"`
		Errors  map[string]string   `json:"errors"`
	}
	c.doJSON("GET", "/v1/graphs", nil, &list, http.StatusOK)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("fan-out took %v; the slow backend was allowed to stall the merge", elapsed)
	}
	if len(list.Graphs) != 1 || list.Graphs[0].ID != info.ID {
		t.Errorf("merged graphs = %+v, want the healthy backend's graph", list.Graphs)
	}
	if !list.Partial || list.Errors["slow"] == "" {
		t.Errorf("partial=%v errors=%v, want the slow backend reported", list.Partial, list.Errors)
	}

	// The stats fan-out degrades the same way.
	var stats cluster.RouterStats
	start = time.Now()
	c.doJSON("GET", "/v1/stats", nil, &stats, http.StatusOK)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("stats fan-out took %v", elapsed)
	}
	if _, ok := stats.Backends["b0"]; !ok {
		t.Error("healthy backend missing from stats")
	}
	if stats.Errors["slow"] == "" {
		t.Error("slow backend not reported in stats errors")
	}
}

// TestFanoutReadsNon200AsShardError: a backend that passes the
// identity probe but answers /v1/stats, /v1/graphs and /v1/metrics with
// a JSON 500 body is a failing shard, not an empty one. Each merged view
// names it in errors with partial set, merges nothing from it, and the
// scrape reports it down.
func TestFanoutReadsNon200AsShardError(t *testing.T) {
	real := startBackendAt(t, "b0", "127.0.0.1:0", service.Options{})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(service.HealthzResponse{Status: "ok", Node: "b1"})
	})
	for _, route := range []string{"GET /v1/stats", "GET /v1/graphs", "GET /v1/metrics"} {
		mux.HandleFunc(route, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			_, _ = fmt.Fprint(w, `{"error":"boom"}`)
		})
	}
	failing := httptest.NewServer(mux)
	t.Cleanup(failing.Close)

	rt, err := cluster.New(cluster.Options{
		Backends: []cluster.Backend{
			{Name: "b0", URL: real.url()},
			{Name: "b1", URL: failing.URL},
		},
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	c := &client{t: t, base: front.URL}
	rt.Sync(syncCtx())

	var stats cluster.RouterStats
	c.doJSON("GET", "/v1/stats", nil, &stats, http.StatusOK)
	if _, ok := stats.Backends["b1"]; ok {
		t.Error("failing backend merged into stats as an all-zero backend")
	}
	if _, ok := stats.Backends["b0"]; !ok {
		t.Error("healthy backend missing from stats")
	}
	if !stats.Partial || stats.Errors["b1"] != "status 500" {
		t.Errorf("stats partial=%v errors=%v, want b1: status 500", stats.Partial, stats.Errors)
	}

	var merged struct {
		Partial bool              `json:"partial"`
		Errors  map[string]string `json:"errors"`
	}
	for _, path := range []string{"/v1/graphs", "/v1/metrics?format=json"} {
		merged.Partial, merged.Errors = false, nil
		c.doJSON("GET", path, nil, &merged, http.StatusOK)
		if !merged.Partial || merged.Errors["b1"] != "status 500" {
			t.Errorf("%s: partial=%v errors=%v, want b1: status 500", path, merged.Partial, merged.Errors)
		}
	}

	status, text := c.do("GET", "/v1/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	for _, want := range []string{`welmax_backend_up{node="b0"} 1`, `welmax_backend_up{node="b1"} 0`} {
		if !strings.Contains(string(text), want+"\n") {
			t.Errorf("metrics lack %q", want)
		}
	}
}

// TestAdoptsDirectlyRegisteredGraph registers a graph on a backend
// behind the router's back (the backends serve the full single-node
// API): the next sync must adopt it — fetching its .wmg so it is
// re-shippable — and place it on its HRW owner so graph-scoped routes
// through the router work instead of 404ing on the wrong backend.
func TestAdoptsDirectlyRegisteredGraph(t *testing.T) {
	backends := []*backend{
		startBackendAt(t, "b0", "127.0.0.1:0", service.Options{}),
		startBackendAt(t, "b1", "127.0.0.1:0", service.Options{}),
	}
	rt, c := newCluster(t, backends, cluster.Options{ProbeInterval: time.Hour, ProxyTimeout: 5 * time.Second})
	defer rt.Close()
	rt.Sync(syncCtx())

	// Register on whichever backend HRW would NOT pick, to force a move.
	edges := lineEdges(7)
	direct := &client{t: t, base: backends[0].url()}
	var info service.GraphInfo
	direct.doJSON("POST", "/v1/graphs", service.GraphRequest{Name: "direct", Edges: edges, KeepProbs: true}, &info, http.StatusCreated)
	want, _ := cluster.Owner([]string{"b0", "b1"}, info.ID)
	if want != "b0" {
		// Already on the non-owner; otherwise move it to b1 and restart
		// the scenario from there.
		c.doJSON("GET", "/v1/graphs", nil, nil, http.StatusOK) // flags drift
	}

	rt.Sync(syncCtx()) // adopt + rebalance onto the HRW owner
	var got service.GraphInfo
	c.doJSON("GET", "/v1/graphs/"+info.ID, nil, &got, http.StatusOK)
	if got.ID != info.ID {
		t.Fatalf("graph-scoped route after adoption = %+v", got)
	}
	owner := ""
	for _, b := range backends {
		if _, ok := b.svc.Registry().Get(info.ID); ok {
			if owner != "" {
				t.Fatal("graph resident on both backends after adoption")
			}
			owner = b.name
		}
	}
	if owner != want {
		t.Errorf("graph on %s after adoption, HRW owner is %s", owner, want)
	}
	view := c.waitJob(c.submit("/v1/allocate", service.AllocateRequest{GraphID: info.ID, Budgets: []int{2, 2}}))
	if view.State != service.JobDone {
		t.Fatalf("allocate on adopted graph failed: %s", view.Error)
	}
}

// TestNodeIdentityMismatchIsUnhealthy wires the topology to a backend
// announcing a different node id: the probe must mark it down with an
// explanatory error rather than route jobs to the wrong shard.
func TestNodeIdentityMismatchIsUnhealthy(t *testing.T) {
	b := startBackendAt(t, "actual", "127.0.0.1:0", service.Options{})
	rt, err := cluster.New(cluster.Options{
		Backends:      []cluster.Backend{{Name: "expected", URL: b.url()}},
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.Sync(syncCtx())
	snap := rt.Stats(syncCtx()).Cluster.Backends
	if len(snap) != 1 || snap[0].Healthy {
		t.Fatalf("mismatched backend counted healthy: %+v", snap)
	}
	if snap[0].Error == "" {
		t.Error("no explanatory error for the identity mismatch")
	}
}

// TestStreamSurvivesMembershipChange opens a proxied SSE stream, then
// kills and revives a different backend (forcing a probe transition and
// a rebalance pass) while the stream is up: the in-flight stream must
// still deliver its terminal event.
func TestStreamSurvivesMembershipChange(t *testing.T) {
	backends := []*backend{
		startBackendAt(t, "b0", "127.0.0.1:0", service.Options{}),
		startBackendAt(t, "b1", "127.0.0.1:0", service.Options{}),
	}
	rt, c := newCluster(t, backends, cluster.Options{ProbeInterval: time.Hour, ProxyTimeout: 10 * time.Second})
	defer rt.Close()
	rt.Sync(syncCtx())

	info := c.registerLine(5)
	var owner, other *backend
	for _, b := range backends {
		if _, ok := b.svc.Registry().Get(info.ID); ok {
			owner = b
		} else {
			other = b
		}
	}
	// A Monte-Carlo estimate long enough to still be streaming while the
	// other backend bounces (harmless if it finishes early — the stream
	// then just replays to its terminal event).
	jobID := c.submit("/v1/estimate", service.EstimateRequest{
		GraphID:    info.ID,
		Allocation: service.AllocationDTO{Seeds: [][]int64{{0}, {1}}},
		Runs:       2_000_000,
	})

	done := make(chan []string, 1)
	go func() { done <- c.streamEvents(jobID) }()

	other.kill()
	rt.Sync(syncCtx()) // membership change: down
	other = other.restart(t)
	rt.Sync(syncCtx()) // membership change: up again, rebalance runs

	select {
	case events := <-done:
		if len(events) == 0 || events[len(events)-1] != "done" {
			t.Fatalf("stream events = %v, want terminal done", events)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("stream never terminated")
	}
	if owner == nil {
		t.Fatal("no owner found")
	}
}

// TestClusterTokenEndToEnd runs a 2-backend cluster where every process
// shares a cluster token: the router's imports and sketch ships must
// carry it (registration and kill-reroute work end to end), while a
// tokenless client talking to a backend directly is refused.
func TestClusterTokenEndToEnd(t *testing.T) {
	const token = "sesame"
	backends := []*backend{
		startBackendAt(t, "b0", "127.0.0.1:0", service.Options{ClusterToken: token}),
		startBackendAt(t, "b1", "127.0.0.1:0", service.Options{ClusterToken: token}),
	}
	rt, c := newCluster(t, backends, cluster.Options{
		ProbeInterval: time.Hour,
		ProxyTimeout:  5 * time.Second,
		ClusterToken:  token,
	})
	defer rt.Close()
	rt.Sync(syncCtx())

	info := c.registerLine(6) // router → backend /v1/graphs/import carries the token
	var owner, survivor *backend
	for _, b := range backends {
		if _, ok := b.svc.Registry().Get(info.ID); ok {
			owner = b
		} else {
			survivor = b
		}
	}
	if owner == nil || survivor == nil {
		t.Fatal("placement did not yield one owner and one survivor")
	}

	// A tokenless caller hitting the backend directly is refused — and so
	// is one going through the router, which must not lend its own
	// credential to client-originated requests.
	direct := &client{t: t, base: owner.url()}
	if status, _ := direct.do("POST", "/v1/graphs/"+info.ID+"/sketches", []byte("x")); status != http.StatusForbidden {
		t.Errorf("tokenless direct sketch import: status %d, want 403", status)
	}
	if status, _ := c.do("POST", "/v1/graphs/"+info.ID+"/sketches", []byte("x")); status != http.StatusForbidden {
		t.Errorf("tokenless sketch import through router: status %d, want 403", status)
	}

	// Kill the owner: the re-ship (import on the survivor) needs the
	// token too, and the rerouted allocate must succeed.
	owner.kill()
	rt.Sync(syncCtx())
	view := c.waitJob(c.submit("/v1/allocate", service.AllocateRequest{GraphID: info.ID, Budgets: []int{2, 2}}))
	if view.State != service.JobDone {
		t.Fatalf("rerouted allocate failed: %s", view.Error)
	}
	if _, ok := survivor.svc.Registry().Get(info.ID); !ok {
		t.Error("graph not resident on the survivor")
	}
}

// TestProxyForwardsRequestHeaders checks that end-to-end request headers
// (Last-Event-ID — an SSE client resuming through the router — and
// Accept) reach the backend, while hop-by-hop headers do not.
func TestProxyForwardsRequestHeaders(t *testing.T) {
	var got http.Header
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(service.HealthzResponse{Status: "ok", Node: "b0"})
	})
	mux.HandleFunc("GET /v1/algorithms", func(w http.ResponseWriter, r *http.Request) {
		got = r.Header.Clone()
		_, _ = fmt.Fprint(w, `{"algorithms":[]}`)
	})
	mux.HandleFunc("GET /v1/graphs", func(w http.ResponseWriter, r *http.Request) {
		_, _ = fmt.Fprint(w, `{"graphs":[]}`)
	})
	stub := httptest.NewServer(mux)
	t.Cleanup(stub.Close)

	rt, err := cluster.New(cluster.Options{
		Backends:      []cluster.Backend{{Name: "b0", URL: stub.URL}},
		ProbeInterval: time.Hour,
		ClusterToken:  "sesame",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	rt.Sync(syncCtx())

	req, err := http.NewRequest("GET", front.URL+"/v1/algorithms", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "41")
	req.Header.Set("Accept", "text/event-stream")
	// The client's own token header is relayed verbatim — the router must
	// never stamp ITS credential onto a client-originated request (that
	// would let anonymous callers reach token-gated backend endpoints
	// through the proxy, a confused deputy).
	req.Header.Set(service.ClusterTokenHeader, "client-supplied")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied request: status %d", resp.StatusCode)
	}
	if v := got.Get("Last-Event-ID"); v != "41" {
		t.Errorf("Last-Event-ID = %q, want 41", v)
	}
	if v := got.Get("Accept"); v != "text/event-stream" {
		t.Errorf("Accept = %q", v)
	}
	if v := got.Get(service.ClusterTokenHeader); v != "client-supplied" {
		t.Errorf("cluster token reaching backend = %q, want the client's own relayed", v)
	}
	if v := got.Get("Connection"); v != "" {
		t.Errorf("hop-by-hop Connection header forwarded: %q", v)
	}
}

// TestConcurrentProxyDuringRebalance hammers graph-scoped routes while
// sync passes rewrite ownership — the -race regression for the unlocked
// rec.owner reads the proxy path used to do.
func TestConcurrentProxyDuringRebalance(t *testing.T) {
	backends := []*backend{
		startBackendAt(t, "b0", "127.0.0.1:0", service.Options{}),
		startBackendAt(t, "b1", "127.0.0.1:0", service.Options{}),
	}
	rt, c := newCluster(t, backends, cluster.Options{ProbeInterval: time.Hour, ProxyTimeout: 5 * time.Second})
	defer rt.Close()
	rt.Sync(syncCtx())

	infos := []service.GraphInfo{c.registerLine(4), c.registerLine(5), c.registerLine(6)}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := infos[i%len(infos)].ID
				c.do("GET", "/v1/graphs/"+id, nil)
				c.do("POST", "/v1/graphs", service.GraphRequest{
					Name: "line4", Edges: lineEdges(4), KeepProbs: true,
				})
			}
		}(i)
	}
	// Kill and revive a backend so every Sync rewrites ownership while
	// the proxy goroutines read it.
	for round := 0; round < 3; round++ {
		backends[0].kill()
		rt.Sync(syncCtx())
		backends[0] = backends[0].restart(t)
		rt.Sync(syncCtx())
	}
	close(stop)
	wg.Wait()
}

// TestCorruptSpillRecoversFromLiveHolder corrupts the router's spilled
// .wmg between two moves: the next move must detect the backend's 400 on
// the corrupt bytes, drop the spill, re-fetch the export from the live
// holder, and complete — not retry the same bad file forever.
func TestCorruptSpillRecoversFromLiveHolder(t *testing.T) {
	spill := t.TempDir()
	backends := []*backend{
		startBackendAt(t, "b0", "127.0.0.1:0", service.Options{}),
		startBackendAt(t, "b1", "127.0.0.1:0", service.Options{}),
		startBackendAt(t, "b2", "127.0.0.1:0", service.Options{}),
	}
	rt, c := newCluster(t, backends, cluster.Options{
		ProbeInterval: time.Hour,
		ProxyTimeout:  5 * time.Second,
		SpillDir:      spill,
	})
	defer rt.Close()
	rt.Sync(syncCtx())

	info := c.registerLine(6)
	holder := func() *backend {
		for _, b := range backends {
			if b.closed {
				continue
			}
			if _, ok := b.svc.Registry().Get(info.ID); ok {
				return b
			}
		}
		return nil
	}
	first := holder()
	if first == nil {
		t.Fatal("graph resident nowhere")
	}

	// Kill the owner: the graph moves via the (intact) spill.
	first.kill()
	rt.Sync(syncCtx())
	second := holder()
	if second == nil {
		t.Fatal("graph not re-routed after owner kill")
	}

	// Corrupt the spill, then revive the original owner: HRW moves the
	// graph back, which must survive the corrupt spill by re-fetching
	// from the live holder.
	path := filepath.Join(spill, info.ID+".wmg")
	if err := os.WriteFile(path, []byte("garbage, not a wmg frame"), 0o644); err != nil {
		t.Fatal(err)
	}
	revived := first.restart(t)
	backends[slices.Index(backends, first)] = revived
	rt.Sync(syncCtx())

	if _, ok := revived.svc.Registry().Get(info.ID); !ok {
		t.Fatal("graph did not move back to the revived HRW owner")
	}
	view := c.waitJob(c.submit("/v1/allocate", service.AllocateRequest{GraphID: info.ID, Budgets: []int{2, 2}}))
	if view.State != service.JobDone {
		t.Fatalf("allocate after corrupt-spill recovery failed: %s", view.Error)
	}
	if raw, err := os.ReadFile(path); err != nil || bytes.HasPrefix(raw, []byte("garbage")) {
		t.Errorf("spill not repaired after recovery (err %v)", err)
	}
}

// stubRouter fronts one stub backend "b0" — a health-probe answer plus
// the routes mux adds — with a router, and returns the router's URL.
func stubRouter(t *testing.T, mux *http.ServeMux) string {
	t.Helper()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(service.HealthzResponse{Status: "ok", Node: "b0"})
	})
	stub := httptest.NewServer(mux)
	t.Cleanup(stub.Close)
	rt, err := cluster.New(cluster.Options{
		Backends:      []cluster.Backend{{Name: "b0", URL: stub.URL}},
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	rt.Sync(syncCtx())
	return front.URL
}

// TestProxyRelaysContentLength: a non-stream body goes through the
// router under the backend's Content-Length, with no chunked framing,
// whether it fits one relay buffer or not.
func TestProxyRelaysContentLength(t *testing.T) {
	small := []byte(`{"id":"b0-j1","kind":"allocate","state":"done"}` + "\n")
	large := bytes.Repeat([]byte("0123456789abcdef"), 5000) // 80 KB, over the 32 KiB buffer
	mux := http.NewServeMux()
	for id, body := range map[string][]byte{"b0-j1": small, "b0-j2": large} {
		mux.HandleFunc("GET /v1/jobs/"+id, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Length", fmt.Sprint(len(body)))
			_, _ = w.Write(body)
		})
	}
	front := stubRouter(t, mux)
	for id, want := range map[string][]byte{"b0-j1": small, "b0-j2": large} {
		resp, err := http.Get(front + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.ContentLength != int64(len(want)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %v; want %d and none",
				id, resp.ContentLength, resp.TransferEncoding, len(want))
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: relayed body differs from the backend's (%d vs %d bytes)", id, len(got), len(want))
		}
	}
}

// TestProxyStreamsSSELive: an SSE stream through the router delivers a
// progress frame while the backend still holds the terminal frame back,
// so the relay flushes stream bodies per read.
func TestProxyStreamsSSELive(t *testing.T) {
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/b0-j1/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		_, _ = fmt.Fprint(w, "event: progress\ndata: {\"seq\":1,\"type\":\"progress\"}\n\n")
		w.(http.Flusher).Flush()
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		_, _ = fmt.Fprint(w, "event: done\ndata: {\"seq\":2,\"type\":\"done\"}\n\n")
	})
	front := stubRouter(t, mux)
	resp, err := http.Get(front + "/v1/jobs/b0-j1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	next := func() string {
		select {
		case l := <-lines:
			return l
		case <-time.After(10 * time.Second):
			t.Fatal("no SSE line within 10s: the router is holding the stream back")
			return ""
		}
	}
	if l := next(); l != "event: progress" {
		t.Fatalf("first line %q, want the live progress frame", l)
	}
	close(release)
	var last string
	for l := range lines {
		if strings.HasPrefix(l, "event: ") {
			last = l
		}
	}
	if last != "event: done" {
		t.Errorf("last event %q, want the terminal done frame", last)
	}
}

// TestProxyTruncatedBodyIsAnError: a backend body cut short mid-response
// reaches the client as a failed read, never as a short 200 — both when
// the backend declared its length and when it streamed chunks.
func TestProxyTruncatedBodyIsAnError(t *testing.T) {
	mux := http.NewServeMux()
	for id, declare := range map[string]bool{"b0-j1": true, "b0-j2": false} {
		mux.HandleFunc("GET /v1/jobs/"+id, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if declare {
				w.Header().Set("Content-Length", "1000")
			}
			_, _ = w.Write(bytes.Repeat([]byte("x"), 500))
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler) // drop the connection mid-body
		})
	}
	front := stubRouter(t, mux)
	for _, id := range []string{"b0-j1", "b0-j2"} {
		resp, err := http.Get(front + "/v1/jobs/" + id)
		if err == nil {
			_, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		if err == nil {
			t.Errorf("%s: truncated backend body relayed as a complete %d response", id, resp.StatusCode)
		}
	}
}

// cannedBackend is an in-process backend "b0": an http.RoundTripper
// answering the health probe and every other request with body, so an
// allocation count covers the router alone.
type cannedBackend struct{ body []byte }

func (c cannedBackend) RoundTrip(r *http.Request) (*http.Response, error) {
	body := c.body
	if r.URL.Path == "/v1/healthz" {
		body = []byte(`{"status":"ok","node":"b0"}`)
	}
	return &http.Response{
		StatusCode:    http.StatusOK,
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       r,
	}, nil
}

// discardWriter is a bare http.ResponseWriter that drops the body.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// TestProxyRelayAllocations: relaying a non-stream response allocates
// a small envelope, not a fresh 32 KiB copy buffer per response. The
// figure is the process's TotalAlloc per response relayed, with the
// backend and the client in-process stubs, so it is the router's own.
func TestProxyRelayAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	body := bytes.Repeat([]byte("x"), 800)
	rt, err := cluster.New(cluster.Options{
		Backends:      []cluster.Backend{{Name: "b0", URL: "http://b0.invalid"}},
		ProbeInterval: time.Hour,
		Client:        &http.Client{Transport: cannedBackend{body: body}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rt.Sync(syncCtx())
	h := rt.Handler()
	req := httptest.NewRequest("GET", "/v1/jobs/b0-j1", nil)
	relay := func() {
		h.ServeHTTP(&discardWriter{h: http.Header{}}, req)
	}
	for range 20 { // pools warm up
		relay()
	}
	const n = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		relay()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 8<<10 {
		t.Errorf("relaying one %d-byte response allocates %d B; want under 8 KiB", len(body), per)
	}
}
