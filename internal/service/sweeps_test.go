package service_test

import (
	"bufio"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"uicwelfare/internal/journal"
	"uicwelfare/internal/service"
	"uicwelfare/internal/store"
	"uicwelfare/internal/sweep"
)

// sweepJobView is a sweep job snapshot with the typed summary result.
type sweepJobView struct {
	ID     string           `json:"id"`
	Kind   string           `json:"kind"`
	State  service.JobState `json:"state"`
	Error  string           `json:"error"`
	Result *sweep.Summary   `json:"result"`
}

// createSweep posts a spec and returns the accepted sweep id and cell
// count.
func (e *env) createSweep(t *testing.T, spec sweep.Spec) (string, int) {
	t.Helper()
	var out struct {
		SweepID string `json:"sweep_id"`
		State   string `json:"state"`
		Cells   int    `json:"cells"`
		TraceID string `json:"trace_id"`
	}
	e.doJSON("POST", "/v1/sweeps", spec, &out, http.StatusAccepted)
	if out.SweepID == "" || out.State != string(service.JobQueued) || out.Cells == 0 {
		t.Fatalf("bad sweep submission: %+v", out)
	}
	return out.SweepID, out.Cells
}

// waitSweep polls the sweep until it reaches a terminal state.
func (e *env) waitSweep(t *testing.T, id string) sweepJobView {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		var view sweepJobView
		e.doJSON("GET", "/v1/sweeps/"+id, nil, &view, http.StatusOK)
		if view.State.Terminal() {
			return view
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("sweep %s did not finish", id)
	return sweepJobView{}
}

// sweepEvents replays the sweep's SSE stream (the past-event replay a
// late subscriber gets) and returns the decoded progress events.
func (e *env) sweepEvents(t *testing.T, id string) []service.JobEvent {
	t.Helper()
	resp, err := http.Get(e.srv.URL + "/v1/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	var events []service.JobEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev service.JobEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		events = append(events, ev)
		if ev.Terminal() {
			break
		}
	}
	return events
}

// TestSweepEndToEnd drives the full single-node sweep lifecycle: a
// 2-config × 2-budget grid expands to 4 cells, every cell runs through
// the ordinary allocate path, per-cell progress streams over SSE, the
// result persists as a checksummed content-addressed artifact, and the
// results endpoint serves filters and grouped welfare aggregates.
func TestSweepEndToEnd(t *testing.T) {
	dir := t.TempDir()
	e := newEnv(t, service.Options{Workers: 2, DataDir: dir, NodeID: "n0"})
	id := e.registerGraph(t)

	spec := sweep.Spec{
		Name:     "e2e",
		GraphIDs: []string{id},
		Configs:  []string{"config1", "config3"},
		Budgets:  [][]int{{3, 3}, {5, 5}},
		Runs:     400,
		Seed:     1,
	}
	sweepID, cells := e.createSweep(t, spec)
	if cells != 4 {
		t.Fatalf("expanded to %d cells, want 4", cells)
	}
	view := e.waitSweep(t, sweepID)
	if view.State != service.JobDone || view.Kind != "sweep" {
		t.Fatalf("sweep finished %s (%s)", view.State, view.Error)
	}
	sum := view.Result
	if sum == nil || sum.Done != 4 || sum.Failed != 0 || sum.Canceled != 0 {
		t.Fatalf("bad summary: %+v", sum)
	}
	if sum.ArtifactID == "" || !sum.Persisted {
		t.Fatalf("artifact not persisted: %+v", sum)
	}

	// The sweep appears in the listing.
	var list struct {
		Sweeps []sweepJobView `json:"sweeps"`
	}
	e.doJSON("GET", "/v1/sweeps", nil, &list, http.StatusOK)
	if len(list.Sweeps) != 1 || list.Sweeps[0].ID != sweepID {
		t.Fatalf("sweep listing: %+v", list.Sweeps)
	}

	// Every cell produced at least one SSE event, and each reached a
	// terminal cell state on the stream.
	events := e.sweepEvents(t, sweepID)
	terminalByCell := map[string]string{}
	for _, ev := range events {
		if ev.Cell != "" && ev.CellState != string(service.JobRunning) {
			terminalByCell[ev.Cell] = ev.CellState
		}
	}
	for _, cell := range []string{"c0", "c1", "c2", "c3"} {
		if terminalByCell[cell] != string(service.JobDone) {
			t.Errorf("cell %s terminal event %q, want done (events: %d)", cell, terminalByCell[cell], len(events))
		}
	}
	if last := events[len(events)-1]; last.Type != string(service.JobDone) {
		t.Errorf("stream ended with %q, want the sweep's done event", last.Type)
	}

	// Full results: all four rows done, welfare present, node identity
	// and per-cell job ids recorded.
	var res sweep.ResultsResponse
	e.doJSON("GET", "/v1/sweeps/"+sweepID+"/results", nil, &res, http.StatusOK)
	if res.ArtifactID != sum.ArtifactID || len(res.Cells) != 4 || res.Counts["done"] != 4 {
		t.Fatalf("results: artifact %s cells %d counts %v", res.ArtifactID, len(res.Cells), res.Counts)
	}
	for _, c := range res.Cells {
		if !c.HasWelfare || c.WelfareRuns != 400 || c.JobID == "" || c.Node == "" {
			t.Errorf("cell %s incomplete: %+v", c.CellID, c)
		}
	}

	// Filters and group_by aggregate.
	var filtered sweep.ResultsResponse
	e.doJSON("GET", "/v1/sweeps/"+sweepID+"/results?config=config3", nil, &filtered, http.StatusOK)
	if len(filtered.Cells) != 2 {
		t.Errorf("config3 filter: %d cells, want 2", len(filtered.Cells))
	}
	var grouped sweep.ResultsResponse
	e.doJSON("GET", "/v1/sweeps/"+sweepID+"/results?group_by=config&cells=false", nil, &grouped, http.StatusOK)
	if len(grouped.Groups) != 2 || grouped.Cells != nil {
		t.Errorf("group_by=config: %+v", grouped)
	}
	if status, _ := e.do("GET", "/v1/sweeps/"+sweepID+"/results?group_by=bogus", nil); status != http.StatusBadRequest {
		t.Errorf("bogus group_by: status %d, want 400", status)
	}

	// The artifact on disk round-trips and re-derives its content id —
	// the checksum guarantee clients rely on.
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	artifact, err := st.LoadSweep(sum.ArtifactID)
	if err != nil {
		t.Fatalf("load artifact: %v", err)
	}
	if store.SweepResultID(artifact) != sum.ArtifactID {
		t.Error("artifact does not re-derive its content id")
	}
	if len(artifact.Cells) != 4 {
		t.Errorf("artifact has %d cells", len(artifact.Cells))
	}

	// A sweep cell's welfare must agree with the same request made
	// directly — the sweep is a batch of ordinary requests, nothing more.
	c0 := res.Cells[0]
	var direct allocJobView
	jid := e.submit(t, "/v1/allocate", service.AllocateRequest{
		GraphID: id, Config: c0.Config, Budgets: c0.Budgets, Seed: c0.Seed, Runs: 400,
	})
	e.waitJob(t, jid, &direct)
	if direct.State != service.JobDone || direct.Result.Welfare == nil {
		t.Fatalf("direct allocate: %+v", direct)
	}
	tol := 6 * (c0.WelfareStdErr + direct.Result.Welfare.StdErr)
	if diff := math.Abs(c0.WelfareMean - direct.Result.Welfare.Mean); diff > tol {
		t.Errorf("cell welfare %.2f vs direct %.2f: differ by %.2f (tolerance %.2f)",
			c0.WelfareMean, direct.Result.Welfare.Mean, diff, tol)
	}

	// Cell counters surfaced in /v1/stats.
	var stats struct {
		Sweeps service.SweepStats `json:"sweeps"`
	}
	e.doJSON("GET", "/v1/stats", nil, &stats, http.StatusOK)
	if stats.Sweeps.CellsDone < 4 {
		t.Errorf("stats cells_done = %d, want >= 4", stats.Sweeps.CellsDone)
	}
}

// TestSweepCellOverAdmissionGivesUp: a sweep cell runs the same
// admission as POST /v1/allocate. A cell priced over -admission-mb is
// refused on every attempt; the engine backs off and retries it, and
// after maxCellAttempts the cell — not the sweep — fails. Every refusal
// counts as a reject and is journaled under the sweep's trace id.
func TestSweepCellOverAdmissionGivesUp(t *testing.T) {
	e := newEnv(t, service.Options{AdmissionMB: 1, Workers: 1})
	id := e.registerGraph(t)
	before := e.stats(t).Batch.AdmissionRejects

	var accepted struct {
		SweepID string `json:"sweep_id"`
		TraceID string `json:"trace_id"`
	}
	// ε at the floor prices far past the 1MB budget.
	e.doJSON("POST", "/v1/sweeps", sweep.Spec{
		GraphIDs: []string{id},
		Eps:      []float64{0.05},
		Budgets:  [][]int{{10, 10}},
	}, &accepted, http.StatusAccepted)
	if accepted.TraceID == "" {
		t.Fatalf("sweep accepted without a trace id: %+v", accepted)
	}
	view := e.waitSweep(t, accepted.SweepID)
	if view.State != service.JobDone || view.Result == nil || view.Result.Failed != 1 {
		t.Fatalf("sweep finished %s with %+v, want done with one failed cell", view.State, view.Result)
	}
	var res sweep.ResultsResponse
	e.doJSON("GET", "/v1/sweeps/"+accepted.SweepID+"/results", nil, &res, http.StatusOK)
	if len(res.Cells) != 1 {
		t.Fatalf("results: %d cells, want 1", len(res.Cells))
	}
	const want = "gave up after 4 attempts: predicted sketch cost "
	if c := res.Cells[0]; c.State != string(service.JobFailed) || !strings.HasPrefix(c.Error, want) {
		t.Errorf("cell ended %s %q, want failed %q…", c.State, c.Error, want)
	}
	if got := e.stats(t).Batch.AdmissionRejects - before; got != 4 {
		t.Errorf("admission_rejects rose by %d, want 4", got)
	}
	var events struct {
		Events []journal.Event `json:"events"`
	}
	e.doJSON("GET", "/v1/events?type="+journal.AdmissionReject+"&trace="+accepted.TraceID, nil, &events, http.StatusOK)
	if len(events.Events) != 4 {
		t.Fatalf("%d admission_reject events under the sweep's trace, want 4: %+v", len(events.Events), events.Events)
	}
	for _, ev := range events.Events {
		if ev.TraceID != accepted.TraceID || ev.Graph != id || ev.Bytes <= 1<<20 {
			t.Errorf("reject event %+v, want trace %s, graph %s and a cost over 1MB", ev, accepted.TraceID, id)
		}
	}
}

// TestSweepValidation: structurally or semantically bad specs reject
// synchronously with 400, before any job exists.
func TestSweepValidation(t *testing.T) {
	e := newEnv(t, service.Options{Workers: 1})
	id := e.registerGraph(t)
	cases := []struct {
		name string
		spec sweep.Spec
	}{
		{"no budgets", sweep.Spec{GraphIDs: []string{id}}},
		{"unknown graph", sweep.Spec{GraphIDs: []string{"nope"}, Budgets: [][]int{{2}}}},
		{"unknown algo", sweep.Spec{GraphIDs: []string{id}, Budgets: [][]int{{2}}, Algos: []string{"nope"}}},
		{"unknown config", sweep.Spec{GraphIDs: []string{id}, Budgets: [][]int{{2}}, Configs: []string{"nope"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if status, raw := e.do("POST", "/v1/sweeps", tc.spec); status != http.StatusBadRequest {
				t.Errorf("status %d, want 400: %s", status, raw)
			}
		})
	}
	if status, _ := e.do("GET", "/v1/sweeps/unknown", nil); status != http.StatusNotFound {
		t.Error("unknown sweep id did not 404")
	}
	// A non-sweep job id is not addressable through the sweep routes.
	jid := e.submit(t, "/v1/allocate", service.AllocateRequest{GraphID: id, Budgets: []int{2, 2}})
	var direct allocJobView
	e.waitJob(t, jid, &direct)
	if status, _ := e.do("GET", "/v1/sweeps/"+jid, nil); status != http.StatusNotFound {
		t.Error("allocate job id resolved as a sweep")
	}
}

// TestSweepCancel: canceling a running sweep cancels its remaining
// cells, the job finishes canceled, and the partial artifact is still
// queryable (finished cells' work is kept).
func TestSweepCancel(t *testing.T) {
	e := newEnv(t, service.Options{Workers: 1})
	id := e.registerGraph(t)
	spec := sweep.Spec{
		GraphIDs: []string{id},
		// One slow-ish cell at a time: large estimate keeps the sweep
		// running long enough to cancel mid-flight.
		Budgets: [][]int{{3, 3}, {4, 4}, {5, 5}, {6, 6}, {7, 7}, {8, 8}},
		Runs:    5000,
		Seed:    1,
	}
	sweepID, cells := e.createSweep(t, spec)
	var del sweepJobView
	e.doJSON("DELETE", "/v1/sweeps/"+sweepID, nil, &del, http.StatusAccepted)
	view := e.waitSweep(t, sweepID)
	if view.State != service.JobCanceled {
		t.Fatalf("canceled sweep finished %s", view.State)
	}
	// The partial result is retained in memory and served terminal.
	var res sweep.ResultsResponse
	e.doJSON("GET", "/v1/sweeps/"+sweepID+"/results", nil, &res, http.StatusOK)
	total := 0
	for _, n := range res.Counts {
		total += n
	}
	if total != cells {
		t.Errorf("partial results cover %d cells, want %d (%v)", total, cells, res.Counts)
	}
	if res.Counts["canceled"] == 0 {
		t.Errorf("no cells recorded canceled: %v", res.Counts)
	}
}

// TestSweepCancelKeepsSummary: a canceled sweep's job record keeps the
// folded summary, so the artifact it names stays reachable after the
// in-memory rows have been pushed out by later sweeps.
func TestSweepCancelKeepsSummary(t *testing.T) {
	e := newEnv(t, service.Options{Workers: 1, DataDir: t.TempDir()})
	id := e.registerGraph(t)
	sweepID, cells := e.createSweep(t, sweep.Spec{
		GraphIDs: []string{id},
		Budgets:  [][]int{{3, 3}, {4, 4}, {5, 5}, {6, 6}, {7, 7}, {8, 8}},
		Runs:     5000,
		Seed:     1,
	})
	// Cancel only once the sweep runs: a sweep canceled while still
	// queued never executes and has nothing to summarize.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var view sweepJobView
		e.doJSON("GET", "/v1/sweeps/"+sweepID, nil, &view, http.StatusOK)
		if view.State != service.JobQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never started")
		}
		time.Sleep(time.Millisecond)
	}
	e.doJSON("DELETE", "/v1/sweeps/"+sweepID, nil, nil, http.StatusAccepted)
	view := e.waitSweep(t, sweepID)
	sum := view.Result
	if view.State != service.JobCanceled || sum == nil {
		t.Fatalf("canceled sweep: state %s result %+v", view.State, sum)
	}
	if sum.Cells != cells || sum.Done+sum.Failed+sum.Canceled != cells || sum.Canceled == 0 || sum.ArtifactID == "" || !sum.Persisted {
		t.Fatalf("summary: %+v", sum)
	}

	// 32 later sweeps evict the canceled sweep's rows; its results then
	// come back from the artifact its summary names.
	for i := 0; i < 32; i++ {
		next, _ := e.createSweep(t, sweep.Spec{GraphIDs: []string{id}, Budgets: [][]int{{2, 2}}, Seed: uint64(i + 1)})
		if v := e.waitSweep(t, next); v.State != service.JobDone {
			t.Fatalf("filler sweep %d: %s (%s)", i, v.State, v.Error)
		}
	}
	var res sweep.ResultsResponse
	e.doJSON("GET", "/v1/sweeps/"+sweepID+"/results", nil, &res, http.StatusOK)
	if res.ArtifactID != sum.ArtifactID || len(res.Cells) != cells || res.Counts["canceled"] != sum.Canceled {
		t.Errorf("results from disk: artifact %s cells %d counts %v, want %+v", res.ArtifactID, len(res.Cells), res.Counts, sum)
	}
}

// TestEstimatesCoalesce: byte-identical concurrent estimate requests
// share one Monte-Carlo run (the estimate flight group), observable as
// the estimates_coalesced counter.
func TestEstimatesCoalesce(t *testing.T) {
	e := newEnv(t, service.Options{Workers: 4})
	id := e.registerGraph(t)

	// An allocation to estimate against.
	var alloc allocJobView
	jid := e.submit(t, "/v1/allocate", service.AllocateRequest{GraphID: id, Budgets: []int{5, 5}})
	e.waitJob(t, jid, &alloc)
	if alloc.State != service.JobDone {
		t.Fatalf("allocate: %s (%s)", alloc.State, alloc.Error)
	}

	req := service.EstimateRequest{
		GraphID:    id,
		Allocation: alloc.Result.Allocation,
		Seed:       7,
		Runs:       30000, // long enough for the duplicates to overlap the leader
	}
	const n = 4
	ids := make([]string, n)
	for i := range ids {
		ids[i] = e.submit(t, "/v1/estimate", req)
	}
	results := make([]estJobView, n)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e.waitJob(t, ids[i], &results[i])
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r.State != service.JobDone || r.Result == nil {
			t.Fatalf("estimate %d: %s (%s)", i, r.State, r.Error)
		}
		// Shared or not, the deterministic seeded estimate must agree.
		if r.Result.Welfare.Mean != results[0].Result.Welfare.Mean {
			t.Errorf("estimate %d mean %f differs from leader %f", i, r.Result.Welfare.Mean, results[0].Result.Welfare.Mean)
		}
	}
	var stats struct {
		Batch struct {
			EstimatesCoalesced int64 `json:"estimates_coalesced"`
		} `json:"batch"`
	}
	e.doJSON("GET", "/v1/stats", nil, &stats, http.StatusOK)
	if stats.Batch.EstimatesCoalesced == 0 {
		t.Error("no estimates coalesced across 4 identical concurrent requests")
	}
}
