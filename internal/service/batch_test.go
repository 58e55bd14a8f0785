package service_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"uicwelfare/internal/batch"
	"uicwelfare/internal/core"
	"uicwelfare/internal/journal"
	"uicwelfare/internal/progress"
	"uicwelfare/internal/service"
	"uicwelfare/internal/telemetry"
)

// statsView decodes the /v1/stats fields the batching tests assert on,
// by their wire names — the counters the acceptance criteria are
// phrased in.
type statsView struct {
	SketchCache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"sketch_cache"`
	Batch struct {
		Enabled           bool    `json:"enabled"`
		WindowMS          float64 `json:"window_ms"`
		Batched           int64   `json:"batched"`
		HeldGroups        int64   `json:"held_groups"`
		CoalescedRequests int64   `json:"coalesced_requests"`
		SketchExtends     int64   `json:"sketch_extends"`
		AdmissionRejects  int64   `json:"admission_rejects"`
		CostRatio         float64 `json:"cost_ratio"`
		CostSamples       int     `json:"cost_samples"`
	} `json:"batch"`
}

func (e *env) stats(t *testing.T) statsView {
	t.Helper()
	var st statsView
	e.doJSON("GET", "/v1/stats", nil, &st, http.StatusOK)
	return st
}

// hour is a batch window no test outlives: a request held under it is
// only ever released by the build it gathered behind returning.
const hour = time.Hour

// buildGate parks a sketch build mid-sampling. Passed as an allocate's
// progress callback it blocks the first sketch event — and with it the
// build, whose closure the scheduler runs for the whole group — until
// release is closed.
type buildGate struct {
	once    sync.Once
	started chan struct{}
	release chan struct{}
}

func newBuildGate() *buildGate {
	return &buildGate{started: make(chan struct{}), release: make(chan struct{})}
}

func (g *buildGate) progress(ev progress.Event) {
	if ev.Stage != progress.StageSketch {
		return
	}
	g.once.Do(func() {
		close(g.started)
		<-g.release
	})
}

// awaitCoalesced yields until n requests have joined a batch group — the
// only outside sign that a submit is registered with the scheduler.
func (e *env) awaitCoalesced(t *testing.T, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for e.svc.Stats().Batch.CoalescedRequests != n {
		if time.Now().After(deadline) {
			t.Fatalf("coalesced_requests = %d, never reached %d", e.svc.Stats().Batch.CoalescedRequests, n)
		}
		runtime.Gosched()
	}
}

// burst is the mixed-budget scenario the batching tests share: one
// leader whose build is parked, and n-1 requests with pairwise distinct
// budgets, none of which the leader's vector covers, arriving behind it.
// All share the default seed: requests of different seeds never share a
// group.
// It returns every request's result (index i asked for budgets
// {base+i, base+i+1}) and trace once the leader has been released and
// all have finished.
func burst(t *testing.T, e *env, id string, n, base int) ([]*service.AllocateResult, []*telemetry.Trace) {
	t.Helper()
	results := make([]*service.AllocateResult, n)
	traces := make([]*telemetry.Trace, n)
	gate := newBuildGate()
	var wg sync.WaitGroup
	allocate := func(i int, report progress.Func) {
		defer wg.Done()
		traces[i] = telemetry.NewTrace(fmt.Sprintf("burst-%d", i), true)
		ctx := telemetry.NewContext(context.Background(), traces[i])
		res, err := e.svc.AllocateCtx(ctx, &service.AllocateRequest{
			GraphID: id,
			Budgets: []int{base + i, base + i + 1},
		}, report)
		if err != nil {
			t.Errorf("allocate %d: %v", i, err)
		}
		results[i] = res
	}
	wg.Add(n)
	go allocate(0, gate.progress)
	<-gate.started
	for i := 1; i < n; i++ {
		go allocate(i, nil)
	}
	e.awaitCoalesced(t, int64(n-2)) // the follow-up's first member is not "coalesced"
	close(gate.release)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return results, traces
}

// TestBatchedAllocatesCoalesceToOneBuild is the acceptance scenario: N
// concurrent allocate requests that differ only in budgets, on a cold
// graph, cost two sketch operations — the leader's own build and ONE
// follow-up for everyone else, which starts only once the leader's
// sketch is resident and therefore extends it instead of building cold.
func TestBatchedAllocatesCoalesceToOneBuild(t *testing.T) {
	e := newEnv(t, service.Options{BatchWindow: hour})
	id := e.registerGraph(t)

	const n = 8
	results, _ := burst(t, e, id, n, 1)
	shared := 0
	for i, res := range results {
		if res.SketchCached {
			shared++
		}
		// Every request's allocation must respect its own budgets even
		// though its sketch was sized for a merged vector.
		if got := len(res.Allocation.Seeds[0]); got != i+1 {
			t.Errorf("allocate %d: item 0 got %d seeds, want %d", i, got, i+1)
		}
	}

	st := e.stats(t)
	if !st.Batch.Enabled {
		t.Fatal("batch scheduler not enabled")
	}
	if st.Batch.Batched != 2 || st.Batch.HeldGroups != 1 {
		t.Fatalf("batched = %d, held_groups = %d; want 2 and 1 (leader + one follow-up)", st.Batch.Batched, st.Batch.HeldGroups)
	}
	if st.Batch.CoalescedRequests != n-2 {
		t.Fatalf("coalesced_requests = %d, want %d", st.Batch.CoalescedRequests, n-2)
	}
	if st.SketchCache.Misses != 2 {
		t.Fatalf("sketch_cache.misses = %d, want 2 (the leader's key and the merged key)", st.SketchCache.Misses)
	}
	if st.Batch.SketchExtends != 1 {
		t.Fatalf("sketch_extends = %d, want 1: the follow-up must extend the leader's sketch, not build cold", st.Batch.SketchExtends)
	}
	if shared != n-2 {
		t.Fatalf("%d requests reported SketchCached, want %d (all but each group's first member)", shared, n-2)
	}
	// The journal tells the same story: an unheld leader, then one
	// follow-up of n-1 released by the leader's build returning.
	var journaled struct {
		Events []journal.Event `json:"events"`
	}
	e.doJSON("GET", "/v1/events?type="+journal.BatchFire, nil, &journaled, http.StatusOK)
	if fires := journaled.Events; len(fires) != 2 ||
		fires[0].Reason != batch.FireIdle || fires[0].Count != 1 || fires[0].WaitMS != 0 ||
		fires[1].Reason != batch.FireBuildDone || fires[1].Count != n-1 {
		t.Fatalf("batch_fire events = %+v, want idle x1 then build_done x%d", fires, n-1)
	}
	// Both operations calibrated the cost model.
	if st.Batch.CostSamples != 2 || st.Batch.CostRatio <= 0 {
		t.Fatalf("cost model not calibrated by the batch builds: ratio %g, samples %d",
			st.Batch.CostRatio, st.Batch.CostSamples)
	}

	// A later lone repeat of a coalesced member's budgets is served
	// from the resident dominating sketch (the merged-key entry) — it
	// never reaches the scheduler.
	res, err := e.svc.Allocate(&service.AllocateRequest{GraphID: id, Budgets: []int{3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.SketchCached {
		t.Fatal("dominated repeat missed the resident merged sketch")
	}
	if got := len(res.Allocation.Seeds[0]); got != 3 {
		t.Fatalf("dominated repeat item 0 got %d seeds, want 3", got)
	}
	if st := e.stats(t); st.Batch.Batched != 2 {
		t.Fatalf("batched after dominated repeat = %d, want still 2 (served from the merged sketch)", st.Batch.Batched)
	}

	// A repeat EXCEEDING the merged vector still builds afresh.
	if _, err := e.svc.Allocate(&service.AllocateRequest{GraphID: id, Budgets: []int{20, 21}}); err != nil {
		t.Fatal(err)
	}
	if st := e.stats(t); st.Batch.Batched != 3 || st.Batch.HeldGroups != 1 {
		t.Fatalf("after a lone uncovered repeat: batched = %d, held_groups = %d; want 3 and still 1", st.Batch.Batched, st.Batch.HeldGroups)
	}
}

// TestZeroOptionsRunTheScheduler: batching is how a miss resolves, not a
// mode. The zero Options report the scheduler on at its 10 ms default,
// and a request arriving while a dominating build runs joins it instead
// of building its own sketch.
func TestZeroOptionsRunTheScheduler(t *testing.T) {
	e := newEnv(t, service.Options{})
	id := e.registerGraph(t)
	if st := e.stats(t); !st.Batch.Enabled || st.Batch.WindowMS != 10 {
		t.Fatalf("batch.enabled = %v, window_ms = %g; want true and 10", st.Batch.Enabled, st.Batch.WindowMS)
	}

	gate := newBuildGate()
	leader := make(chan error, 1)
	go func() {
		_, err := e.svc.AllocateCtx(context.Background(), &service.AllocateRequest{GraphID: id, Budgets: []int{3, 5}}, gate.progress)
		leader <- err
	}()
	<-gate.started
	// {5,5} needs the sketch vector {5}, which the parked {5,3} build
	// dominates: it joins that build.
	joiner := make(chan *service.AllocateResult, 1)
	go func() {
		res, err := e.svc.Allocate(&service.AllocateRequest{GraphID: id, Budgets: []int{5, 5}})
		if err != nil {
			t.Errorf("joiner: %v", err)
		}
		joiner <- res
	}()
	e.awaitCoalesced(t, 1)
	close(gate.release)
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if res := <-joiner; res == nil || !res.SketchCached || len(res.Allocation.Seeds[1]) != 5 {
		t.Fatalf("joiner result %+v: want sketch_cached and 5 seeds for item 1", res)
	}
	if st := e.stats(t); st.Batch.Batched != 1 || st.SketchCache.Misses != 1 {
		t.Fatalf("batched = %d, misses = %d; want one shared build", st.Batch.Batched, st.SketchCache.Misses)
	}
}

// TestBurstSamplesNoMoreThanOneMergedBuild pins what replaced "one build
// per burst": the leader's build plus the follow-up's θ-delta together
// sample at most (within 10% of) the RR sets one cold build of the
// burst's whole merged vector samples. The burst is the shape of
// BenchmarkBatchedAllocate — budgets 10..18, all within 2× of each
// other. The bound is about such bursts: the delta grows with the jump
// from the leader's budgets to the merged ones, and a leader asking for
// {1,2} ahead of followers up to 9 measured 1.33×.
func TestBurstSamplesNoMoreThanOneMergedBuild(t *testing.T) {
	e := newEnv(t, service.Options{BatchWindow: hour})
	id := e.registerGraph(t)
	const n, base = 8, 10
	_, traces := burst(t, e, id, n, base)
	var grown int64
	for _, tr := range traces {
		grown += tr.Resources()[telemetry.ResRRSetsGrown]
	}

	// The one-shot reference: a lone request on a fresh daemon whose
	// budgets ARE the merged vector {base+n, ..., base} (one additive
	// item each), which the scheduler cold-builds as it stands.
	ref := newEnv(t, service.Options{BatchWindow: hour})
	merged := make([]int, n+1)
	for i := range merged {
		merged[i] = base + n - i
	}
	tr := telemetry.NewTrace("one-shot", true)
	if _, err := ref.svc.AllocateCtx(telemetry.NewContext(context.Background(), tr), &service.AllocateRequest{
		GraphID: ref.registerGraph(t),
		Config:  "additive",
		Budgets: merged,
		Seed:    1,
	}, nil); err != nil {
		t.Fatal(err)
	}
	oneShot := tr.Resources()[telemetry.ResRRSetsGrown]
	if oneShot <= 0 || grown <= 0 {
		t.Fatalf("nothing sampled: burst %d, one-shot %d", grown, oneShot)
	}
	if float64(grown) > 1.1*float64(oneShot) {
		t.Fatalf("the burst grew %d RR sets, over 1.1x the %d of one merged build", grown, oneShot)
	}
}

// TestBatchedItemDisjCoalescesOnMaxTotal exercises the IMM-family merge:
// item-disj allocates arriving while a build for the largest total
// budget runs are dominated by it and share that one sketch.
func TestBatchedItemDisjCoalescesOnMaxTotal(t *testing.T) {
	e := newEnv(t, service.Options{BatchWindow: hour})
	id := e.registerGraph(t)

	gate := newBuildGate()
	var wg sync.WaitGroup
	allocate := func(i int, report progress.Func) {
		defer wg.Done()
		_, err := e.svc.AllocateCtx(context.Background(), &service.AllocateRequest{
			GraphID: id,
			Algo:    core.AlgoItemDisjoint,
			Budgets: []int{2 * (i + 1), 3},
		}, report)
		if err != nil {
			t.Errorf("allocate %d: %v", i, err)
		}
	}
	wg.Add(4)
	go allocate(3, gate.progress)
	<-gate.started
	for i := 0; i < 3; i++ {
		go allocate(i, nil)
	}
	e.awaitCoalesced(t, 3)
	close(gate.release)
	wg.Wait()

	st := e.stats(t)
	if st.Batch.Batched != 1 || st.SketchCache.Misses != 1 {
		t.Fatalf("batched = %d, misses = %d; want one dominating IMM build",
			st.Batch.Batched, st.SketchCache.Misses)
	}
}

// TestCanceledWaiterKeepsSharedBuildAlive: with two requests sharing one
// build, canceling one — here the very request whose build it is — must
// not cancel the shared build: the survivor still gets its sketch.
func TestCanceledWaiterKeepsSharedBuildAlive(t *testing.T) {
	e := newEnv(t, service.Options{BatchWindow: hour})
	id := e.registerGraph(t)

	gate := newBuildGate()
	ctx, cancel := context.WithCancel(context.Background())
	canceledErr := make(chan error, 1)
	go func() {
		_, err := e.svc.AllocateCtx(ctx, &service.AllocateRequest{GraphID: id, Budgets: []int{3, 5}}, gate.progress)
		canceledErr <- err
	}()
	<-gate.started
	// {5,5} needs the sketch vector {5}, which the in-flight {5,3} covers
	// under another cache key: it joins the running build.
	survivor := make(chan error, 1)
	var res *service.AllocateResult
	go func() {
		r, err := e.svc.AllocateCtx(context.Background(), &service.AllocateRequest{GraphID: id, Budgets: []int{5, 5}}, nil)
		res = r
		survivor <- err
	}()
	e.awaitCoalesced(t, 1)

	cancel()
	if err := <-canceledErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled request: err = %v, want context.Canceled", err)
	}
	close(gate.release)
	if err := <-survivor; err != nil {
		t.Fatalf("surviving request failed: %v (a canceled waiter must not cancel the shared build)", err)
	}
	if got := len(res.Allocation.Seeds[1]); got != 5 {
		t.Fatalf("survivor item 1 got %d seeds, want 5", got)
	}
	if !res.SketchCached {
		t.Fatal("survivor did not report the shared build as sketch_cached")
	}
	if st := e.stats(t); st.Batch.Batched != 1 {
		t.Fatalf("batched = %d, want 1", st.Batch.Batched)
	}
}

// TestDegenerateBudgetsDoNotPoisonBatch: a whole-graph-budget request
// hits the PRIMA/IMM degenerate shortcut (no sampling, identity
// ordering) and must therefore bypass the batcher — coalescing it with
// concurrent small-budget requests would silently hand them the
// unsampled all-nodes ordering instead of a real greedy selection.
func TestDegenerateBudgetsDoNotPoisonBatch(t *testing.T) {
	e := newEnv(t, service.Options{BatchWindow: hour})
	var info service.GraphInfo
	e.doJSON("POST", "/v1/graphs", service.GraphRequest{Network: "flixster", Scale: 0.02}, &info, http.StatusCreated)

	whaleDone := make(chan error, 1)
	var whale *service.AllocateResult
	go func() {
		r, err := e.svc.Allocate(&service.AllocateRequest{GraphID: info.ID, Budgets: []int{info.Nodes, 2}})
		whale = r
		whaleDone <- err
	}()
	// Launched while the whale would be building, had it entered the scheduler.
	small, err := e.svc.Allocate(&service.AllocateRequest{GraphID: info.ID, Budgets: []int{3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-whaleDone; err != nil {
		t.Fatal(err)
	}

	// The whale's sketch is the degenerate no-sampling one (0 RR sets,
	// every node seeded for item 0) — documented single-request behavior.
	if whale.NumRRSets != 0 || len(whale.Allocation.Seeds[0]) != info.Nodes {
		t.Fatalf("whale result not degenerate: rr=%d item0=%d", whale.NumRRSets, len(whale.Allocation.Seeds[0]))
	}
	// The small request must have a genuinely sampled sketch: nonzero RR
	// sets proves it did not inherit the whale's unsampled ordering.
	if small.NumRRSets == 0 {
		t.Fatal("small request inherited the degenerate unsampled sketch")
	}
	if got := len(small.Allocation.Seeds[1]); got != 4 {
		t.Fatalf("small request item 1 got %d seeds, want 4", got)
	}
}

// TestAdmissionControl drives the 429 path: a request whose predicted
// sketch cost exceeds -admission-mb is refused with a retryable body
// and counted, while a cheap request on the same daemon is admitted.
func TestAdmissionControl(t *testing.T) {
	e := newEnv(t, service.Options{AdmissionMB: 1, Workers: 1})
	id := e.registerGraph(t)

	// ε at the floor inflates the predicted RR-set count ~100× past any
	// 1MB budget.
	expensive := service.AllocateRequest{GraphID: id, Budgets: []int{10, 10}, Eps: 0.05}
	status, raw := e.do("POST", "/v1/allocate", expensive)
	if status != http.StatusTooManyRequests {
		t.Fatalf("expensive allocate: status %d, want 429: %s", status, raw)
	}
	var body struct {
		Error          string `json:"error"`
		Retryable      bool   `json:"retryable"`
		EstimatedCost  int64  `json:"estimated_cost"`
		AdmissionLimit int64  `json:"admission_limit"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	if !body.Retryable || body.EstimatedCost <= body.AdmissionLimit || body.AdmissionLimit != 1<<20 {
		t.Fatalf("bad 429 body: %+v", body)
	}

	// The warm endpoint prices the identical sketch work.
	status, _ = e.do("POST", "/v1/graphs/"+id+"/warm", service.WarmRequest{Budgets: []int{10, 10}, Eps: 0.05})
	if status != http.StatusTooManyRequests {
		t.Fatalf("expensive warm: status %d, want 429", status)
	}

	if st := e.stats(t); st.Batch.AdmissionRejects != 2 {
		t.Fatalf("admission_rejects = %d, want 2", st.Batch.AdmissionRejects)
	}

	// Default ε on the same graph prices well under 1MB and is admitted.
	var alloc allocJobView
	jid := e.submit(t, "/v1/allocate", service.AllocateRequest{GraphID: id, Budgets: []int{5, 5}})
	e.waitJob(t, jid, &alloc)
	if alloc.State != service.JobDone {
		t.Fatalf("cheap allocate: state %s (%s)", alloc.State, alloc.Error)
	}

	// With its sketch now resident, even the pessimistic pricing is
	// bypassed: identical budgets re-admit for free at any ε... but the
	// ε changes the key, so assert with the same ε instead.
	jid = e.submit(t, "/v1/allocate", service.AllocateRequest{GraphID: id, Budgets: []int{5, 5}})
	e.waitJob(t, jid, &alloc)
	if alloc.State != service.JobDone || alloc.Result == nil || !alloc.Result.SketchCached {
		t.Fatalf("resident re-allocate: %+v", alloc)
	}
}

// TestStatsDuringConcurrentAllocates hammers GET /v1/stats while
// batched allocates run — the -race regression test for the stats
// counters (batch, admission, cache, disk tier) being read
// concurrently with their writers.
func TestStatsDuringConcurrentAllocates(t *testing.T) {
	e := newEnv(t, service.Options{
		BatchWindow: 20 * time.Millisecond,
		AdmissionMB: 64,
		DataDir:     t.TempDir(), // exercise the disk-tier stats block too
	})
	id := e.registerGraph(t)

	stop := make(chan struct{})
	var statsWG sync.WaitGroup
	statsWG.Add(1)
	go func() {
		defer statsWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.stats(t)
				e.svc.Stats()
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				if _, err := e.svc.Allocate(&service.AllocateRequest{
					GraphID: id,
					Budgets: []int{i + 2*j + 1, 3},
				}); err != nil {
					t.Errorf("allocate: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	statsWG.Wait()

	if st := e.stats(t); st.Batch.Batched == 0 {
		t.Fatalf("expected at least one batched build, got stats %+v", st.Batch)
	}
}
