package service_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"uicwelfare/internal/core"
	"uicwelfare/internal/progress"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/service"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/uic"
)

// blockAlgo is a registry planner that parks until its context is
// canceled — deterministic fuel for the cancellation tests, and a live
// demonstration that third-party planners plug into the daemon through
// core.Register alone.
const blockAlgo = "test-block"

func init() {
	core.Register(blockAlgo, core.Meta{
		Description: "test planner: blocks until canceled",
		Cascades:    []string{core.CascadeNameIC, core.CascadeNameLT},
	}, func() core.Planner { return blockingPlanner{} })
}

type blockingPlanner struct{}

func (blockingPlanner) Plan(ctx context.Context, p *core.Problem, opts core.Options, rng *stats.RNG) (core.Result, error) {
	select {
	case <-ctx.Done():
		return core.Result{}, ctx.Err()
	case <-time.After(60 * time.Second): // safety valve so a buggy test cannot wedge the pool
		return core.Result{}, fmt.Errorf("blockingPlanner was never canceled")
	}
}

func TestAlgorithmsEndpoint(t *testing.T) {
	e := newEnv(t, service.Options{})
	var out struct {
		Algorithms []service.AlgorithmInfo `json:"algorithms"`
		Default    string                  `json:"default"`
	}
	e.doJSON("GET", "/v1/algorithms", nil, &out, http.StatusOK)
	if out.Default != core.DefaultAlgorithm {
		t.Errorf("default = %q, want %q", out.Default, core.DefaultAlgorithm)
	}
	// Every registered planner — including the test-only one — shows up.
	names := map[string]service.AlgorithmInfo{}
	for _, a := range out.Algorithms {
		names[a.Name] = a
	}
	for _, want := range core.Names() {
		if _, ok := names[want]; !ok {
			t.Errorf("registered planner %q missing from /v1/algorithms", want)
		}
	}
	if a := names[core.AlgoBundleGRD]; !a.SketchCacheable || a.SketchFamily != "prima" || !a.Default {
		t.Errorf("bundleGRD info = %+v", a)
	}
	if a := names[core.AlgoBundleDisjoint]; a.SketchCacheable || a.SketchFamily != "" {
		t.Errorf("bundle-disj info = %+v", a)
	}
	if a := names[blockAlgo]; len(a.Cascades) != 2 {
		t.Errorf("test planner info = %+v", a)
	}
}

// waitState polls until the job reaches the given state.
func (e *env) waitState(t *testing.T, id string, want service.JobState) service.JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var view service.JobView
		e.doJSON("GET", "/v1/jobs/"+id, nil, &view, http.StatusOK)
		if view.State == want {
			return view
		}
		if view.State.Terminal() {
			t.Fatalf("job %s reached %q while waiting for %q (error %q)", id, view.State, want, view.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q", id, want)
	return service.JobView{}
}

func TestCancelRunningJob(t *testing.T) {
	e := newEnv(t, service.Options{Workers: 1})
	id := e.registerGraph(t)

	jobID := e.submit(t, "/v1/allocate", service.AllocateRequest{
		GraphID: id, Budgets: []int{2, 2}, Algo: blockAlgo,
	})
	e.waitState(t, jobID, service.JobRunning)

	// DELETE on an active job requests cancellation (202) and the worker
	// lands the job in the canceled state, still queryable.
	status, raw := e.do("DELETE", "/v1/jobs/"+jobID, nil)
	if status != http.StatusAccepted {
		t.Fatalf("cancel: status %d: %s", status, raw)
	}
	var ack service.JobView
	if err := json.Unmarshal(raw, &ack); err != nil {
		t.Fatal(err)
	}
	if !ack.CancelRequested {
		t.Errorf("cancel ack = %+v, want cancel_requested", ack)
	}

	view := e.waitState(t, jobID, service.JobCanceled)
	if !strings.Contains(view.Error, "context canceled") {
		t.Errorf("canceled job error = %q", view.Error)
	}

	// A second DELETE removes the now-terminal job.
	status, raw = e.do("DELETE", "/v1/jobs/"+jobID, nil)
	if status != http.StatusOK || !strings.Contains(string(raw), "deleted") {
		t.Fatalf("delete finished job: status %d: %s", status, raw)
	}
	if status, _ := e.do("GET", "/v1/jobs/"+jobID, nil); status != http.StatusNotFound {
		t.Error("deleted job still queryable")
	}
	if status, _ := e.do("DELETE", "/v1/jobs/j999", nil); status != http.StatusNotFound {
		t.Error("unknown job delete: want 404")
	}
}

func TestCancelQueuedJob(t *testing.T) {
	e := newEnv(t, service.Options{Workers: 1})
	id := e.registerGraph(t)

	// Occupy the single worker, then queue a second job behind it.
	blocker := e.submit(t, "/v1/allocate", service.AllocateRequest{
		GraphID: id, Budgets: []int{2, 2}, Algo: blockAlgo,
	})
	e.waitState(t, blocker, service.JobRunning)
	queued := e.submit(t, "/v1/allocate", service.AllocateRequest{GraphID: id, Budgets: []int{2, 2}})

	if status, _ := e.do("DELETE", "/v1/jobs/"+queued, nil); status != http.StatusAccepted {
		t.Fatalf("cancel queued: want 202, got %d", status)
	}
	// Unblock the worker; the canceled-in-queue job must finalize as
	// canceled without ever running.
	if status, _ := e.do("DELETE", "/v1/jobs/"+blocker, nil); status != http.StatusAccepted {
		t.Fatal("cancel blocker failed")
	}
	view := e.waitState(t, queued, service.JobCanceled)
	if !strings.Contains(view.Error, "before start") {
		t.Errorf("queued-cancel error = %q", view.Error)
	}
	e.waitState(t, blocker, service.JobCanceled)
}

// TestCancelMidSketchBuild cancels a genuinely expensive sketch build
// (ε at the request floor inflates θ ~100×) and checks the job stops
// before completion — the end-to-end version of the prima/imm
// cancellation unit tests.
func TestCancelMidSketchBuild(t *testing.T) {
	e := newEnv(t, service.Options{Workers: 1})
	var info service.GraphInfo
	e.doJSON("POST", "/v1/graphs", service.GraphRequest{Network: "flixster", Scale: 0.25}, &info, http.StatusCreated)

	jobID := e.submit(t, "/v1/allocate", service.AllocateRequest{
		GraphID: info.ID, Budgets: []int{20, 10}, Eps: 0.05,
	})
	e.waitState(t, jobID, service.JobRunning)
	start := time.Now()
	if status, _ := e.do("DELETE", "/v1/jobs/"+jobID, nil); status != http.StatusAccepted {
		t.Fatal("cancel failed")
	}
	view := e.waitState(t, jobID, service.JobCanceled)
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Errorf("cancellation took %v, not prompt", elapsed)
	}
	if view.Result != nil {
		t.Error("canceled job has a result")
	}
}

// blockSketchAlgo is a SketchPlanner test double whose first
// BuildSketchForBudgets call parks until its context is canceled
// (signalling `building` on entry); later calls return instantly. It
// makes the builder-cancellation/waiter-retry interaction deterministic.
const blockSketchAlgo = "test-block-sketch"

var (
	sketchBuilds   atomic.Int32
	sketchBuilding = make(chan struct{}, 16) // receives one token per build entry
)

func init() {
	core.Register(blockSketchAlgo, core.Meta{
		Description:  "test planner: first sketch build blocks until canceled",
		SketchFamily: "test",
		Cascades:     []string{core.CascadeNameIC},
	}, func() core.Planner { return blockingSketchPlanner{} })
}

type blockingSketchPlanner struct{}

func (p blockingSketchPlanner) Plan(ctx context.Context, prob *core.Problem, opts core.Options, rng *stats.RNG) (core.Result, error) {
	sk, err := p.BuildSketchForBudgets(ctx, prob, prob.Budgets, opts, rng)
	if err != nil {
		return core.Result{}, err
	}
	return p.PlanFromSketch(prob, sk)
}

func (blockingSketchPlanner) SketchBudgets(prob *core.Problem) []int { return prob.Budgets }

// MergeBudgets is the element-wise maximum, padded to the longer vector.
func (blockingSketchPlanner) MergeBudgets(a, b []int) []int {
	if len(a) < len(b) {
		a, b = b, a
	}
	out := slices.Clone(a)
	for i, x := range b {
		out[i] = max(out[i], x)
	}
	return out
}

func (blockingSketchPlanner) ExtendSketch(context.Context, *core.Problem, *rrset.Sketch, []int, core.Options, *stats.RNG) (*rrset.Sketch, error) {
	return nil, rrset.ErrNotExtendable
}

func (p blockingSketchPlanner) PlanFromSketchProgress(prob *core.Problem, sketch *rrset.Sketch, _ progress.Func) (core.Result, error) {
	return p.PlanFromSketch(prob, sketch)
}

func (blockingSketchPlanner) BuildSketchForBudgets(ctx context.Context, prob *core.Problem, _ []int, opts core.Options, rng *stats.RNG) (*rrset.Sketch, error) {
	sketchBuilding <- struct{}{}
	if sketchBuilds.Add(1) == 1 {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(60 * time.Second):
			return nil, fmt.Errorf("blocking sketch build was never canceled")
		}
	}
	return &rrset.Sketch{Family: "test"}, nil
}

func (blockingSketchPlanner) PlanFromSketch(prob *core.Problem, sketch *rrset.Sketch) (core.Result, error) {
	return core.Result{Alloc: uic.NewAllocation(prob.K())}, nil
}

// TestCancelBuilderDoesNotFailWaiter pins the singleflight/cancel
// interaction: job A builds a sketch, identical job B waits on A's cache
// entry, and canceling A must not fail B — B retries as the new builder
// and completes.
func TestCancelBuilderDoesNotFailWaiter(t *testing.T) {
	sketchBuilds.Store(0) // reset the double's state so reruns (-count) stay deterministic
	for {
		select {
		case <-sketchBuilding:
			continue
		default:
		}
		break
	}

	e := newEnv(t, service.Options{Workers: 2})
	id := e.registerGraph(t)

	req := service.AllocateRequest{GraphID: id, Budgets: []int{2, 2}, Algo: blockSketchAlgo}
	builder := e.submit(t, "/v1/allocate", req)
	select {
	case <-sketchBuilding: // builder is inside its sketch build, parked on ctx
	case <-time.After(30 * time.Second):
		t.Fatal("builder never started building")
	}
	waiter := e.submit(t, "/v1/allocate", req)
	e.waitState(t, waiter, service.JobRunning)

	if status, _ := e.do("DELETE", "/v1/jobs/"+builder, nil); status != http.StatusAccepted {
		t.Fatal("cancel builder failed")
	}
	e.waitState(t, builder, service.JobCanceled)

	// The waiter inherits the canceled build error, retries as the new
	// builder (second build returns instantly), and completes.
	var job allocJobView
	e.waitJob(t, waiter, &job)
	if job.State != service.JobDone {
		t.Fatalf("waiter job ended %q (error %q), want done", job.State, job.Error)
	}
	if got := sketchBuilds.Load(); got != 2 {
		t.Errorf("the sketch build ran %d times, want 2 (canceled builder + retrying waiter)", got)
	}
}

// sseEvent is one parsed server-sent event frame.
type sseEvent struct {
	Name string
	Data service.JobEvent
}

// readSSE consumes the stream until a terminal event or EOF, returning
// the frames seen.
func readSSE(t *testing.T, e *env, jobID string) []sseEvent {
	t.Helper()
	resp, err := e.srv.Client().Get(e.srv.URL + "/v1/jobs/" + jobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events: content-type %q", ct)
	}
	var (
		events []sseEvent
		cur    sseEvent
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.Name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.Data); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
		case line == "":
			if cur.Name != "" {
				events = append(events, cur)
				if cur.Data.Terminal() {
					return events
				}
				cur = sseEvent{}
			}
		}
	}
	return events
}

func TestJobEventsSSE(t *testing.T) {
	e := newEnv(t, service.Options{Workers: 2})
	id := e.registerGraph(t)

	jobID := e.submit(t, "/v1/allocate", service.AllocateRequest{
		GraphID: id, Budgets: []int{4, 4}, Runs: 2000,
	})
	events := readSSE(t, e, jobID)
	if len(events) < 2 {
		t.Fatalf("saw %d events, want >= 2 (progress + terminal): %+v", len(events), events)
	}
	progressCount := 0
	lastSeq := 0
	for i, ev := range events {
		if ev.Data.Seq <= lastSeq {
			t.Errorf("event %d: seq %d not increasing past %d", i, ev.Data.Seq, lastSeq)
		}
		lastSeq = ev.Data.Seq
		if ev.Name != ev.Data.Type {
			t.Errorf("SSE event name %q != payload type %q", ev.Name, ev.Data.Type)
		}
		if i < len(events)-1 {
			if ev.Data.Type != service.EventProgress {
				t.Errorf("non-terminal event %d has type %q", i, ev.Data.Type)
			}
			progressCount++
			if ev.Data.Stage == "" || ev.Data.Total <= 0 {
				t.Errorf("malformed progress event: %+v", ev.Data)
			}
		}
	}
	if progressCount < 1 {
		t.Fatalf("no progress events before the terminal one: %+v", events)
	}
	final := events[len(events)-1]
	if final.Data.Type != string(service.JobDone) {
		t.Fatalf("terminal event = %+v, want done", final.Data)
	}

	// Subscribing after completion replays history and terminates.
	replay := readSSE(t, e, jobID)
	if len(replay) < 2 || !replay[len(replay)-1].Data.Terminal() {
		t.Fatalf("replay = %+v", replay)
	}

	// Unknown jobs 404.
	resp, err := e.srv.Client().Get(e.srv.URL + "/v1/jobs/j999/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job events: status %d", resp.StatusCode)
	}
}

// TestJobEventsSSECanceled checks a watcher of a canceled job receives
// the canceled terminal event.
func TestJobEventsSSECanceled(t *testing.T) {
	e := newEnv(t, service.Options{Workers: 1})
	id := e.registerGraph(t)
	jobID := e.submit(t, "/v1/allocate", service.AllocateRequest{
		GraphID: id, Budgets: []int{2, 2}, Algo: blockAlgo,
	})
	e.waitState(t, jobID, service.JobRunning)

	done := make(chan []sseEvent, 1)
	go func() { done <- readSSE(t, e, jobID) }()
	time.Sleep(20 * time.Millisecond) // let the subscriber attach
	if status, _ := e.do("DELETE", "/v1/jobs/"+jobID, nil); status != http.StatusAccepted {
		t.Fatal("cancel failed")
	}
	select {
	case events := <-done:
		if len(events) == 0 || events[len(events)-1].Data.Type != string(service.JobCanceled) {
			t.Fatalf("events = %+v, want trailing canceled", events)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("SSE stream did not terminate after cancellation")
	}
}
