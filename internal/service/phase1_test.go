package service_test

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"uicwelfare/internal/service"
)

// TestConcurrentBuildsShareOnePhase1Stream: four cold allocations at
// different ε on one (graph, cascade, seed) run at once — four batch
// groups, four builds taking turns on one resident phase-1 stream —
// and each returns what the same request returns from a daemon that
// serves it alone; the later turns read sets the earlier ones sampled.
func TestConcurrentBuildsShareOnePhase1Stream(t *testing.T) {
	epss := []float64{0.3, 0.4, 0.5, 0.6}
	request := func(id string, eps float64) *service.AllocateRequest {
		return &service.AllocateRequest{GraphID: id, Budgets: []int{8, 4}, Eps: eps, Seed: 11}
	}
	shared := newEnv(t, service.Options{SketchWorkers: 2})
	id := shared.registerGraph(t)
	got := make([]string, len(epss))
	var wg sync.WaitGroup
	for i, eps := range epss {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := shared.svc.AllocateCtx(context.Background(), request(id, eps), nil)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = fmt.Sprint(res.Allocation.Seeds)
		}()
	}
	wg.Wait()
	for i, eps := range epss {
		alone := newEnv(t, service.Options{SketchWorkers: 1})
		alone.registerGraph(t)
		res, err := alone.svc.AllocateCtx(context.Background(), request(id, eps), nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprint(res.Allocation.Seeds); got[i] != want {
			t.Errorf("ε %g: concurrent build on the shared stream allocated %s, a lone build %s", eps, got[i], want)
		}
	}
	st := shared.svc.Stats()
	if st.Phase1.Streams != 1 || st.Phase1.SetsReused == 0 || st.SketchCache.Entries != len(epss) {
		t.Errorf("stats phase1 %+v, %d sketches: want one stream, reused sets and %d sketches",
			st.Phase1, st.SketchCache.Entries, len(epss))
	}
}

// TestGraphDeleteDropsPhase1Stream: DELETE /v1/graphs/{id} drops the
// graph's resident phase-1 stream with its sketches, and the cache's
// priced total with them.
func TestGraphDeleteDropsPhase1Stream(t *testing.T) {
	e := newEnv(t, service.Options{})
	id := e.registerGraph(t)
	var job allocJobView
	e.waitJob(t, e.submit(t, "/v1/allocate", service.AllocateRequest{GraphID: id, Budgets: []int{6, 3}}), &job)
	if job.State != service.JobDone {
		t.Fatalf("allocate: %s %s", job.State, job.Error)
	}
	var st service.StatsResponse
	e.doJSON("GET", "/v1/stats", nil, &st, http.StatusOK)
	if st.Phase1.Streams != 1 || st.SketchCache.Entries != 1 {
		t.Fatalf("after one build: phase1 %+v, %d sketches; want one resident stream beside one sketch", st.Phase1, st.SketchCache.Entries)
	}
	e.doJSON("DELETE", "/v1/graphs/"+id, nil, nil, http.StatusOK)
	e.doJSON("GET", "/v1/stats", nil, &st, http.StatusOK)
	if st.Phase1.Streams != 0 || st.SketchCache.CostBytes != 0 {
		t.Fatalf("after DELETE: phase1 %+v, cost %d; want nothing resident", st.Phase1, st.SketchCache.CostBytes)
	}
}

// TestPrefixMemoReusedAcrossColdBuilds: the two cold builds that repeat
// an earlier build's θ rounds on a resident stream read their coverage
// tests from the orders it left there, and allocate what a daemon
// serving them alone does. Both are misses of their own: item-disj on
// a total budget of 8 after bundleGRD on [8,8] (another family, the
// same rounds), and bundleGRD on [8,8] again once a two-entry cache has
// evicted its sketch but kept the stream every build touches.
// phase1.selections_reused stays put on the first build and rises on
// each of the other two.
func TestPrefixMemoReusedAcrossColdBuilds(t *testing.T) {
	ops := []service.AllocateRequest{
		{Algo: "bundleGRD", Budgets: []int{8, 8}},
		{Algo: "item-disj", Budgets: []int{4, 4}},
		{Algo: "bundleGRD", Budgets: []int{8, 8}},
	}
	e := newEnv(t, service.Options{SketchWorkers: 2, CacheEntries: 2})
	id := e.registerGraph(t)
	var prev int64
	for i, req := range ops {
		req.GraphID, req.Eps, req.Seed = id, 0.5, 13
		var job allocJobView
		e.waitJob(t, e.submit(t, "/v1/allocate", req), &job)
		if job.State != service.JobDone || job.Result.SketchCached {
			t.Fatalf("op %d: %s %s (sketch_cached %v), want a cold build", i, job.State, job.Error, job.Result != nil && job.Result.SketchCached)
		}
		var st service.StatsResponse
		e.doJSON("GET", "/v1/stats", nil, &st, http.StatusOK)
		if reused := st.Phase1.SelectionsReused; (i == 0) != (reused == prev) {
			t.Fatalf("op %d (%s %v): phase1.selections_reused %d after %d", i, req.Algo, req.Budgets, reused, prev)
		}
		prev = st.Phase1.SelectionsReused

		alone := newEnv(t, service.Options{SketchWorkers: 1})
		alone.registerGraph(t)
		res, err := alone.svc.AllocateCtx(context.Background(), &req, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(job.Result.Allocation.Seeds), fmt.Sprint(res.Allocation.Seeds); got != want {
			t.Fatalf("op %d: allocated %s on the shared stream, %s alone", i, got, want)
		}
	}
}
