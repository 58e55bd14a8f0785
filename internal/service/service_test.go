package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"uicwelfare/internal/service"
)

// env is one running daemon under test.
type env struct {
	t   *testing.T
	svc *service.Service
	srv *httptest.Server
}

func newEnv(t *testing.T, opts service.Options) *env {
	t.Helper()
	svc, err := service.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return &env{t: t, svc: svc, srv: srv}
}

func (e *env) do(method, path string, body any) (int, []byte) {
	e.t.Helper()
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case []byte: // pre-encoded (possibly malformed) payload
		rd = bytes.NewReader(b)
	default:
		raw, err := json.Marshal(body)
		if err != nil {
			e.t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, e.srv.URL+path, rd)
	if err != nil {
		e.t.Fatal(err)
	}
	resp, err := e.srv.Client().Do(req)
	if err != nil {
		e.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		e.t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func (e *env) doJSON(method, path string, body, out any, wantStatus int) {
	e.t.Helper()
	status, raw := e.do(method, path, body)
	if status != wantStatus {
		e.t.Fatalf("%s %s: status %d, want %d: %s", method, path, status, wantStatus, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			e.t.Fatalf("%s %s: bad response %q: %v", method, path, raw, err)
		}
	}
}

// registerGraph loads a small built-in network and returns its id.
func (e *env) registerGraph(t *testing.T) string {
	t.Helper()
	var info service.GraphInfo
	e.doJSON("POST", "/v1/graphs", service.GraphRequest{Network: "flixster", Scale: 0.02}, &info, http.StatusCreated)
	if info.ID == "" || info.Nodes < 100 || info.Edges == 0 {
		t.Fatalf("bad graph info: %+v", info)
	}
	return info.ID
}

// jobView mirrors JobView with a typed allocate result.
type allocJobView struct {
	ID     string                  `json:"id"`
	Kind   string                  `json:"kind"`
	State  service.JobState        `json:"state"`
	Error  string                  `json:"error"`
	Result *service.AllocateResult `json:"result"`
}

type estJobView struct {
	ID     string                  `json:"id"`
	State  service.JobState        `json:"state"`
	Error  string                  `json:"error"`
	Result *service.EstimateResult `json:"result"`
}

// submit posts an async request and returns the job id.
func (e *env) submit(t *testing.T, path string, req any) string {
	t.Helper()
	var out struct {
		JobID string `json:"job_id"`
		State string `json:"state"`
	}
	e.doJSON("POST", path, req, &out, http.StatusAccepted)
	if out.JobID == "" || out.State != string(service.JobQueued) {
		t.Fatalf("bad submission response: %+v", out)
	}
	return out.JobID
}

// waitJob polls until the job leaves the queued/running states.
func (e *env) waitJob(t *testing.T, id string, out any) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var probe struct {
			State service.JobState `json:"state"`
		}
		status, raw := e.do("GET", "/v1/jobs/"+id, nil)
		if status != http.StatusOK {
			t.Fatalf("GET job %s: status %d: %s", id, status, raw)
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			t.Fatal(err)
		}
		if probe.State.Terminal() {
			if err := json.Unmarshal(raw, out); err != nil {
				t.Fatal(err)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
}

func TestHealthz(t *testing.T) {
	e := newEnv(t, service.Options{})
	var out map[string]string
	e.doJSON("GET", "/healthz", nil, &out, http.StatusOK)
	if out["status"] != "ok" {
		t.Fatalf("healthz: %v", out)
	}
}

func TestGraphRegistration(t *testing.T) {
	e := newEnv(t, service.Options{})
	id := e.registerGraph(t)

	// Inline edge list, kept probabilities.
	var inline service.GraphInfo
	e.doJSON("POST", "/v1/graphs", service.GraphRequest{
		Name:      "triangle",
		Edges:     "0 1 0.5\n1 2 0.5\n2 0 0.5\n",
		KeepProbs: true,
	}, &inline, http.StatusCreated)
	if inline.Nodes != 3 || inline.Edges != 3 || inline.Name != "triangle" {
		t.Fatalf("inline graph info: %+v", inline)
	}

	var list struct {
		Graphs []service.GraphInfo `json:"graphs"`
	}
	e.doJSON("GET", "/v1/graphs", nil, &list, http.StatusOK)
	if len(list.Graphs) != 2 {
		t.Fatalf("want 2 graphs, got %+v", list.Graphs)
	}

	var got service.GraphInfo
	e.doJSON("GET", "/v1/graphs/"+id, nil, &got, http.StatusOK)
	if got.ID != id {
		t.Fatalf("get graph: %+v", got)
	}

	// Errors.
	for _, req := range []service.GraphRequest{
		{},                                  // no source
		{Network: "flixster", Edges: "0 1"}, // two sources
		{Network: "nope"},                   // unknown builtin
		{Edges: "not an edge list"},         // parse failure
	} {
		if status, _ := e.do("POST", "/v1/graphs", req); status != http.StatusBadRequest {
			t.Errorf("graph request %+v: status %d, want 400", req, status)
		}
	}
	if status, _ := e.do("GET", "/v1/graphs/g999", nil); status != http.StatusNotFound {
		t.Errorf("unknown graph: want 404")
	}
	// Server-side path loading is forbidden unless opted in.
	if status, _ := e.do("POST", "/v1/graphs", service.GraphRequest{Path: "/etc/passwd"}); status != http.StatusForbidden {
		t.Errorf("path load without opt-in: status %d, want 403", status)
	}
}

func TestGraphDeleteAndRegistryBound(t *testing.T) {
	e := newEnv(t, service.Options{MaxGraphs: 2})
	id := e.registerGraph(t)
	e.doJSON("POST", "/v1/graphs", service.GraphRequest{Edges: "0 1\n1 2\n"}, nil, http.StatusCreated)

	// Registry full: explicit error, not silent eviction.
	if status, raw := e.do("POST", "/v1/graphs", service.GraphRequest{Edges: "0 1\n"}); status != http.StatusTooManyRequests {
		t.Fatalf("over-limit registration: status %d (%s), want 429", status, raw)
	}

	// Warm the sketch cache against the first graph, then delete it:
	// its cache entries must go too.
	var job allocJobView
	e.waitJob(t, e.submit(t, "/v1/allocate", service.AllocateRequest{GraphID: id, Budgets: []int{2, 2}}), &job)
	var st service.StatsResponse
	e.doJSON("GET", "/v1/stats", nil, &st, http.StatusOK)
	if st.SketchCache.Entries != 1 {
		t.Fatalf("cache entries = %d, want 1", st.SketchCache.Entries)
	}
	e.doJSON("DELETE", "/v1/graphs/"+id, nil, nil, http.StatusOK)
	e.doJSON("GET", "/v1/stats", nil, &st, http.StatusOK)
	if st.SketchCache.Entries != 0 {
		t.Errorf("deleted graph's sketches survived: %d entries", st.SketchCache.Entries)
	}
	if st.Graphs != 1 {
		t.Errorf("graphs = %d, want 1", st.Graphs)
	}

	// Freed slot is usable again; deleting twice is 404.
	e.doJSON("POST", "/v1/graphs", service.GraphRequest{Edges: "0 1\n"}, nil, http.StatusCreated)
	if status, _ := e.do("DELETE", "/v1/graphs/"+id, nil); status != http.StatusNotFound {
		t.Error("double delete: want 404")
	}
	// A generated network over the node cap is rejected outright.
	if status, _ := e.do("POST", "/v1/graphs", service.GraphRequest{Network: "twitter", Scale: 1e9}); status != http.StatusBadRequest {
		t.Error("oversized scale: want 400")
	}
}

func TestGraphPathLoadingOptIn(t *testing.T) {
	e := newEnv(t, service.Options{AllowPathLoads: true})
	path := filepath.Join(t.TempDir(), "edges.txt")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var info service.GraphInfo
	e.doJSON("POST", "/v1/graphs", service.GraphRequest{Path: path}, &info, http.StatusCreated)
	if info.Nodes != 3 || info.Name != path {
		t.Fatalf("path-loaded graph: %+v", info)
	}
	if status, _ := e.do("POST", "/v1/graphs", service.GraphRequest{Path: path + ".missing"}); status != http.StatusBadRequest {
		t.Error("missing file with opt-in: want 400")
	}
}

func TestAllocateJobLifecycleAndSketchCache(t *testing.T) {
	e := newEnv(t, service.Options{Workers: 2})
	id := e.registerGraph(t)

	req := service.AllocateRequest{
		GraphID: id,
		Budgets: []int{5, 5},
		Runs:    500,
		Seed:    7,
	}
	jobID := e.submit(t, "/v1/allocate", req)

	var job allocJobView
	e.waitJob(t, jobID, &job)
	if job.State != service.JobDone {
		t.Fatalf("job failed: %s", job.Error)
	}
	res := job.Result
	if res == nil {
		t.Fatal("done job has no result")
	}
	if res.Algorithm != "bundleGRD" {
		t.Errorf("algorithm = %q", res.Algorithm)
	}
	if res.SketchCached {
		t.Error("first allocation claims a cache hit")
	}
	if res.NumRRSets <= 0 {
		t.Errorf("NumRRSets = %d", res.NumRRSets)
	}
	if len(res.Allocation.Seeds) != 2 {
		t.Fatalf("allocation has %d items", len(res.Allocation.Seeds))
	}
	for i, seeds := range res.Allocation.Seeds {
		if len(seeds) != 5 {
			t.Errorf("item %d has %d seeds, want 5", i, len(seeds))
		}
	}
	if res.Welfare == nil || res.Welfare.Mean <= 0 || res.Welfare.Runs != 500 {
		t.Errorf("welfare = %+v", res.Welfare)
	}

	// An identical second request must reuse the cached sketch and
	// reproduce the same allocation (selection is deterministic given
	// the shared collection).
	jobID2 := e.submit(t, "/v1/allocate", req)
	var job2 allocJobView
	e.waitJob(t, jobID2, &job2)
	if job2.State != service.JobDone {
		t.Fatalf("second job failed: %s", job2.Error)
	}
	if !job2.Result.SketchCached {
		t.Error("second identical allocation did not hit the sketch cache")
	}
	if fmt.Sprint(job2.Result.Allocation) != fmt.Sprint(res.Allocation) {
		t.Error("cached sketch produced a different allocation")
	}

	var st service.StatsResponse
	e.doJSON("GET", "/v1/stats", nil, &st, http.StatusOK)
	if st.SketchCache.Misses != 1 || st.SketchCache.Hits < 1 || st.SketchCache.Entries != 1 {
		t.Errorf("cache stats = %+v, want 1 miss, >=1 hit, 1 entry", st.SketchCache)
	}
	if st.Jobs[service.JobDone] != 2 {
		t.Errorf("jobs by state = %v", st.Jobs)
	}
	if st.Graphs != 1 || st.Workers != 2 {
		t.Errorf("stats = %+v", st)
	}

	// A different budget vector is a different sketch: miss.
	req3 := req
	req3.Budgets = []int{3, 7}
	req3.Runs = 0
	var job3 allocJobView
	e.waitJob(t, e.submit(t, "/v1/allocate", req3), &job3)
	if job3.State != service.JobDone {
		t.Fatalf("third job failed: %s", job3.Error)
	}
	if job3.Result.SketchCached {
		t.Error("different budgets unexpectedly hit the cache")
	}
	if job3.Result.Welfare != nil {
		t.Error("runs=0 still produced a welfare estimate")
	}

	// The estimate endpoint accepts the allocation the service produced.
	estID := e.submit(t, "/v1/estimate", service.EstimateRequest{
		GraphID:    id,
		Allocation: res.Allocation,
		Runs:       300,
		Workers:    2,
	})
	var est estJobView
	e.waitJob(t, estID, &est)
	if est.State != service.JobDone {
		t.Fatalf("estimate failed: %s", est.Error)
	}
	if est.Result.Welfare.Mean <= 0 || est.Result.Welfare.Runs != 300 {
		t.Errorf("estimate welfare = %+v", est.Result.Welfare)
	}
	// Both estimates target the same allocation; they must agree within
	// generous Monte-Carlo slack.
	if a, b := est.Result.Welfare.Mean, res.Welfare.Mean; a < b/2 || a > b*2 {
		t.Errorf("estimates disagree wildly: %g vs %g", a, b)
	}
}

func TestConcurrentAllocationsShareOneSketch(t *testing.T) {
	e := newEnv(t, service.Options{Workers: 4})
	id := e.registerGraph(t)

	req := service.AllocateRequest{GraphID: id, Budgets: []int{4, 8}, Algo: "bundleGRD"}
	const concurrent = 4
	ids := make([]string, concurrent)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var out struct {
				JobID string `json:"job_id"`
			}
			status, raw := e.do("POST", "/v1/allocate", req)
			if status != http.StatusAccepted {
				t.Errorf("allocate %d: status %d: %s", i, status, raw)
				return
			}
			if err := json.Unmarshal(raw, &out); err != nil {
				t.Error(err)
				return
			}
			ids[i] = out.JobID
		}(i)
	}
	wg.Wait()

	var first *service.AllocateResult
	for _, jobID := range ids {
		if jobID == "" {
			t.Fatal("submission failed")
		}
		var job allocJobView
		e.waitJob(t, jobID, &job)
		if job.State != service.JobDone {
			t.Fatalf("job %s failed: %s", jobID, job.Error)
		}
		if first == nil {
			first = job.Result
		} else if fmt.Sprint(job.Result.Allocation) != fmt.Sprint(first.Allocation) {
			t.Error("concurrent allocations disagree despite sharing a sketch")
		}
	}

	// One after the fleet: a guaranteed warm hit.
	var after allocJobView
	e.waitJob(t, e.submit(t, "/v1/allocate", req), &after)
	if !after.Result.SketchCached {
		t.Error("post-fleet allocation missed the cache")
	}

	var st service.StatsResponse
	e.doJSON("GET", "/v1/stats", nil, &st, http.StatusOK)
	if st.SketchCache.Misses != 1 {
		t.Errorf("sketches generated %d times, want once", st.SketchCache.Misses)
	}
	// Every request but the builder is served without new work: by the
	// in-flight or resident cache entry (a hit), or by joining the
	// running batch group before its build reached the cache (coalesced).
	// The post-fleet request makes concurrent such requests.
	if served := st.SketchCache.Hits + st.Batch.CoalescedRequests; served < concurrent {
		t.Errorf("cache hits %d + coalesced requests %d = %d, want >= %d",
			st.SketchCache.Hits, st.Batch.CoalescedRequests, served, concurrent)
	}
}

func TestItemDisjointUsesIMMSketchCache(t *testing.T) {
	e := newEnv(t, service.Options{})
	id := e.registerGraph(t)
	req := service.AllocateRequest{GraphID: id, Budgets: []int{3, 3}, Algo: "item-disj"}

	var j1, j2 allocJobView
	e.waitJob(t, e.submit(t, "/v1/allocate", req), &j1)
	e.waitJob(t, e.submit(t, "/v1/allocate", req), &j2)
	if j1.State != service.JobDone || j2.State != service.JobDone {
		t.Fatalf("jobs failed: %q %q", j1.Error, j2.Error)
	}
	if j1.Result.SketchCached || !j2.Result.SketchCached {
		t.Errorf("cached = %v, %v; want false, true", j1.Result.SketchCached, j2.Result.SketchCached)
	}
	total := 0
	for _, seeds := range j2.Result.Allocation.Seeds {
		total += len(seeds)
	}
	if total != 6 {
		t.Errorf("item-disj assigned %d pairs, want 6", total)
	}
}

func TestRequestValidation(t *testing.T) {
	e := newEnv(t, service.Options{})
	id := e.registerGraph(t)

	badAllocates := []service.AllocateRequest{
		{GraphID: "g999", Budgets: []int{5, 5}},                         // unknown graph
		{GraphID: id},                                                   // no budgets
		{GraphID: id, Budgets: []int{5, 5}, Algo: "magic"},              // unknown algo
		{GraphID: id, Budgets: []int{5, 5}, Config: "nope"},             // unknown config
		{GraphID: id, Budgets: []int{5, 5, 5}},                          // config1 has 2 items
		{GraphID: id, Budgets: []int{-1, 5}},                            // negative budget
		{GraphID: id, Budgets: []int{5, 5}, Cascade: "wave"},            // unknown cascade
		{GraphID: id, Budgets: []int{5, 5}, Runs: 100_000_000},          // runs over cap
		{GraphID: id, Budgets: []int{5, 5}, Runs: 10, Workers: 100_000}, // workers over cap
		{GraphID: id, Budgets: make([]int, 40), Config: "additive"},     // items over cap
		{GraphID: id, Budgets: []int{5, 5}, Eps: 1e-9},                  // eps below floor
		{GraphID: id, Budgets: []int{5, 5}, Eps: -1},                    // negative eps
		{GraphID: id, Budgets: []int{5, 5}, Ell: 1e6},                   // ell over cap
		{GraphID: id, Budgets: []int{5, 5}, Ell: -1},                    // negative ell
	}
	for _, req := range badAllocates {
		if status, raw := e.do("POST", "/v1/allocate", req); status != http.StatusBadRequest {
			t.Errorf("allocate %+v: status %d (%s), want 400", req, status, raw)
		}
	}

	badEstimates := []service.EstimateRequest{
		{GraphID: "g999", Allocation: service.AllocationDTO{Seeds: [][]int64{{0}, {1}}}},
		{GraphID: id}, // no allocation
		{GraphID: id, Allocation: service.AllocationDTO{Seeds: [][]int64{{0}, {1}, {2}}}},               // 3 items vs config1
		{GraphID: id, Allocation: service.AllocationDTO{Seeds: [][]int64{{0}, {999999}}}},               // out of range
		{GraphID: id, Allocation: service.AllocationDTO{Seeds: [][]int64{{0}, {1 << 32}}}},              // would truncate to node 0
		{GraphID: id, Allocation: service.AllocationDTO{Seeds: [][]int64{{0}, {1}}}, Runs: 2e8},         // runs over cap
		{GraphID: id, Allocation: service.AllocationDTO{Seeds: [][]int64{make([]int64, 150_000), {1}}}}, // pairs over cap
	}
	for _, req := range badEstimates {
		if status, raw := e.do("POST", "/v1/estimate", req); status != http.StatusBadRequest {
			t.Errorf("estimate %+v: status %d (%s), want 400", req, status, raw)
		}
	}

	if status, _ := e.do("GET", "/v1/jobs/j999", nil); status != http.StatusNotFound {
		t.Error("unknown job: want 404")
	}
	if status, _ := e.do("POST", "/v1/allocate", []byte(`{"graph_id":`)); status != http.StatusBadRequest {
		t.Error("malformed JSON: want 400")
	}
	if status, _ := e.do("POST", "/v1/allocate", map[string]any{"graph_id": id, "budgets": []int{5, 5}, "bogus": 1}); status != http.StatusBadRequest {
		t.Error("unknown field: want 400")
	}
}

func TestLTCascadeAllocation(t *testing.T) {
	e := newEnv(t, service.Options{})
	id := e.registerGraph(t)
	req := service.AllocateRequest{GraphID: id, Budgets: []int{4, 4}, Cascade: "lt", Runs: 200}
	var job allocJobView
	e.waitJob(t, e.submit(t, "/v1/allocate", req), &job)
	if job.State != service.JobDone {
		t.Fatalf("LT job failed: %s", job.Error)
	}
	if job.Result.Welfare == nil || job.Result.Welfare.Mean <= 0 {
		t.Errorf("LT welfare = %+v", job.Result.Welfare)
	}

	// IC and LT sketches must not collide in the cache.
	icReq := req
	icReq.Cascade = "ic"
	var icJob allocJobView
	e.waitJob(t, e.submit(t, "/v1/allocate", icReq), &icJob)
	if icJob.Result.SketchCached {
		t.Error("IC allocation reused the LT sketch")
	}
}

func TestJobListing(t *testing.T) {
	e := newEnv(t, service.Options{})
	id := e.registerGraph(t)
	var job allocJobView
	e.waitJob(t, e.submit(t, "/v1/allocate", service.AllocateRequest{GraphID: id, Budgets: []int{2, 2}}), &job)

	var list struct {
		Jobs []allocJobView `json:"jobs"`
	}
	e.doJSON("GET", "/v1/jobs", nil, &list, http.StatusOK)
	if len(list.Jobs) != 1 || list.Jobs[0].Kind != "allocate" {
		t.Fatalf("job list = %+v", list.Jobs)
	}
	if !strings.HasPrefix(list.Jobs[0].ID, "j") {
		t.Errorf("job id = %q", list.Jobs[0].ID)
	}
}

// TestAllocateIndependentOfSketchWorkers: a cold allocation's answer
// depends on the request seed, not on -sketch-workers — two daemons
// growing their sketches on 1 and 4 goroutines return the same seeds and
// the same RR-set counts, for a PRIMA and an IMM sketch family.
func TestAllocateIndependentOfSketchWorkers(t *testing.T) {
	_, g, err := service.LoadGraph(&service.GraphRequest{Network: "flixster", Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"", "item-disj"} {
		var results []*service.AllocateResult
		for _, workers := range []int{1, 4} {
			svc, err := service.New(service.Options{SketchWorkers: workers})
			if err != nil {
				t.Fatal(err)
			}
			entry, _, err := svc.RegisterGraph("w", g)
			if err != nil {
				t.Fatal(err)
			}
			res, err := svc.AllocateCtx(context.Background(), &service.AllocateRequest{
				GraphID: entry.ID, Algo: algo, Budgets: []int{10, 5}, Seed: 7,
			}, nil)
			svc.Close()
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
		a, b := results[0], results[1]
		if !reflect.DeepEqual(a.Allocation, b.Allocation) || !slices.Equal(a.SeedOrder, b.SeedOrder) ||
			a.NumRRSets != b.NumRRSets || a.TotalRRSets != b.TotalRRSets {
			t.Errorf("algo %q: 1 vs 4 sketch workers differ:\n  seeds %v / %v\n  order %v / %v\n  rr sets %d+%d / %d+%d",
				algo, a.Allocation.Seeds, b.Allocation.Seeds, a.SeedOrder, b.SeedOrder,
				a.NumRRSets, a.TotalRRSets, b.NumRRSets, b.TotalRRSets)
		}
	}
}
