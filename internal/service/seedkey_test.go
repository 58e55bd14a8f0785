package service_test

import (
	"context"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"uicwelfare/internal/service"
	"uicwelfare/internal/sweep"
)

// freshAnswer is what a daemon with nothing resident answers req with.
func freshAnswer(t *testing.T, req service.AllocateRequest) *service.AllocateResult {
	t.Helper()
	e := newEnv(t, service.Options{})
	req.GraphID = e.registerGraph(t)
	res, err := e.svc.Allocate(&req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameAnswer fails unless got carries want's seed order and allocation.
func sameAnswer(t *testing.T, what string, got, want *service.AllocateResult) {
	t.Helper()
	if !reflect.DeepEqual(got.SeedOrder, want.SeedOrder) || !reflect.DeepEqual(got.Allocation, want.Allocation) {
		t.Errorf("%s: order %v, want a fresh daemon's %v", what, got.SeedOrder, want.SeedOrder)
	}
}

// TestSketchCacheIsPerSeed: the seed names the RR streams a sketch is
// sampled from, so it is part of the sketch key. Three allocates that
// differ only in seed each build their own sketch on one daemon and
// answer exactly what a fresh daemon at that seed answers; a repeat of
// one of them is a hit.
func TestSketchCacheIsPerSeed(t *testing.T) {
	e := newEnv(t, service.Options{})
	id := e.registerGraph(t)
	for _, seed := range []uint64{1, 2, 3} {
		req := service.AllocateRequest{GraphID: id, Budgets: []int{5, 5}, Seed: seed}
		res, err := e.svc.Allocate(&req)
		if err != nil {
			t.Fatal(err)
		}
		if res.SketchCached {
			t.Errorf("seed %d: sketch_cached on its first request", seed)
		}
		sameAnswer(t, fmt.Sprintf("seed %d", seed), res, freshAnswer(t, req))
	}
	res, err := e.svc.Allocate(&service.AllocateRequest{GraphID: id, Budgets: []int{5, 5}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.SketchCached {
		t.Error("a repeat of seed 2 missed its resident sketch")
	}
	if st := e.svc.Stats(); st.SketchCache.Misses != 3 || st.SketchCache.Entries != 3 {
		t.Errorf("misses %d, entries %d; want one sketch per seed", st.SketchCache.Misses, st.SketchCache.Entries)
	}
}

// TestSweepRepeatsBuildTheirOwnSketches: repeat r of a grid point runs
// at Seed+r, so a sweep with three repeats builds three sketches per
// grid point, and no cell reports sketch_cached.
func TestSweepRepeatsBuildTheirOwnSketches(t *testing.T) {
	e := newEnv(t, service.Options{Workers: 1})
	id := e.registerGraph(t)
	sweepID, cells := e.createSweep(t, sweep.Spec{GraphIDs: []string{id}, Budgets: [][]int{{4, 4}}, Repeats: 3})
	if cells != 3 {
		t.Fatalf("expanded to %d cells, want 3", cells)
	}
	if view := e.waitSweep(t, sweepID); view.State != service.JobDone {
		t.Fatalf("sweep finished %s (%s)", view.State, view.Error)
	}
	var res sweep.ResultsResponse
	e.doJSON("GET", "/v1/sweeps/"+sweepID+"/results", nil, &res, http.StatusOK)
	for _, c := range res.Cells {
		if c.SketchCached {
			t.Errorf("cell %s (seed %d) reused another repeat's sketch", c.CellID, c.Seed)
		}
	}
	if st := e.svc.Stats(); st.SketchCache.Misses != 3 || st.Batch.Batched != 3 {
		t.Errorf("misses %d, batched %d; want 3 sketches for one grid point × 3 repeats", st.SketchCache.Misses, st.Batch.Batched)
	}
}

// TestBatchGroupNeverServesAnotherSeed: a request whose budgets an
// in-flight build dominates joins it only at the build's own seed. At
// another seed it builds its own sketch at once, while the first build
// is still parked, and answers what a fresh daemon at its seed answers.
func TestBatchGroupNeverServesAnotherSeed(t *testing.T) {
	e := newEnv(t, service.Options{BatchWindow: hour})
	id := e.registerGraph(t)

	gate := newBuildGate()
	leader := make(chan error, 1)
	go func() {
		_, err := e.svc.AllocateCtx(context.Background(), &service.AllocateRequest{GraphID: id, Budgets: []int{3, 5}, Seed: 1}, gate.progress)
		leader <- err
	}()
	<-gate.started
	release := sync.OnceFunc(func() { close(gate.release) })
	t.Cleanup(release)

	req := service.AllocateRequest{GraphID: id, Budgets: []int{5, 5}, Seed: 2}
	done := make(chan *service.AllocateResult, 1)
	go func() {
		res, err := e.svc.Allocate(&req)
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	var res *service.AllocateResult
	for deadline, finished := time.Now().Add(30*time.Second), false; !finished; {
		select {
		case res = <-done:
			finished = true
		case <-time.After(time.Millisecond):
			if n := e.svc.Stats().Batch.CoalescedRequests; n != 0 {
				t.Fatalf("the seed-2 request joined the parked seed-1 build (coalesced_requests = %d)", n)
			}
			if time.Now().After(deadline) {
				t.Fatal("the seed-2 request never finished")
			}
		}
	}
	if res == nil || res.SketchCached {
		t.Fatalf("seed-2 result %+v: want its own fresh sketch", res)
	}
	sameAnswer(t, "seed 2", res, freshAnswer(t, req))
	release()
	if err := <-leader; err != nil {
		t.Fatalf("seed-1 request: %v", err)
	}
	if st := e.svc.Stats(); st.Batch.Batched != 2 || st.Batch.CoalescedRequests != 0 {
		t.Errorf("batched %d, coalesced %d; want two separate builds", st.Batch.Batched, st.Batch.CoalescedRequests)
	}
}
