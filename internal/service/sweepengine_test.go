package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"uicwelfare/internal/store"
	"uicwelfare/internal/sweep"
	"uicwelfare/internal/telemetry"
)

// The engine suite drives a SweepEngine with a scripted runner and an
// in-memory sink: no daemon, no worker pool, no sleeps — every wait is
// on a job event or a slot token.

// step is one scripted attempt outcome (JobQueued asks for a retry).
type step struct {
	outcome JobState
	err     error
}

// fakeRunner answers attempts from a per-cell script (a cell past the
// end of its script is done). With slots set, every attempt first waits
// for a slot token — or the sweep's cancellation — like a real runner
// waits for a worker or a shard slot; closing slots opens the gate for
// good.
type fakeRunner struct {
	mu       sync.Mutex
	script   map[string][]step
	attempts map[string]int
	slots    chan struct{}
	checkErr error
}

func (f *fakeRunner) runner() SweepRunner {
	return SweepRunner{
		Backoff: time.Millisecond,
		Check:   func(*sweep.Spec, []sweep.Cell) error { return f.checkErr },
		Begin:   func(context.Context) SweepAttempt { return f.attempt },
	}
}

func (f *fakeRunner) attempt(ctx context.Context, c *SweepCellRun) (JobState, error) {
	c.Row.Node = "fake"
	if f.slots != nil {
		select {
		case <-f.slots:
		case <-ctx.Done():
			return JobCanceled, nil
		}
	}
	c.Running()
	f.mu.Lock()
	n := f.attempts[c.Cell.ID]
	f.attempts[c.Cell.ID]++
	st := step{outcome: JobDone}
	if s := f.script[c.Cell.ID]; n < len(s) {
		st = s[n]
	}
	f.mu.Unlock()
	if st.outcome == JobDone {
		c.Row.JobID = "fake-" + c.Cell.ID
		c.SetResult(&AllocateResult{Algorithm: "fake", Welfare: &WelfareDTO{Mean: 7, Runs: 1}})
	}
	return st.outcome, st.err
}

func (f *fakeRunner) attemptsOf(cell string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.attempts[cell]
}

// memSink is an in-memory SweepSink.
type memSink struct {
	mu      sync.Mutex
	arts    map[string]*store.SweepResult
	saves   int
	loads   int
	loadErr error
}

func (m *memSink) SaveSweep(res *store.SweepResult) (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := store.SweepResultID(res)
	m.arts[id] = res
	m.saves++
	return id, nil
}

func (m *memSink) LoadSweep(id string) (*store.SweepResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.loads++
	if m.loadErr != nil {
		return nil, m.loadErr
	}
	res, ok := m.arts[id]
	if !ok {
		return nil, errors.New("no such artifact")
	}
	return res, nil
}

// rig is one engine over a fresh JobStore with its six routes mounted.
type rig struct {
	t    *testing.T
	jobs *JobStore
	eng  *SweepEngine
	run  *fakeRunner
	sink *memSink // nil when the engine has no sink
	mux  *http.ServeMux
}

func newRig(t *testing.T, gated, withSink bool) *rig {
	g := &rig{t: t, jobs: NewJobStore(0), run: &fakeRunner{script: map[string][]step{}, attempts: map[string]int{}}}
	if gated {
		g.run.slots = make(chan struct{})
	}
	var sink SweepSink
	if withSink {
		g.sink = &memSink{arts: map[string]*store.SweepResult{}}
		sink = g.sink
	}
	g.eng = NewSweepEngine(g.jobs, g.run.runner(), sink, SweepHooks{
		Trace: func(http.ResponseWriter, *http.Request) *telemetry.Trace { return telemetry.NewTrace("", true) },
		Finish: func(jobID string, tr *telemetry.Trace, _ time.Time, summary *sweep.Summary, err error) {
			g.jobs.SetStages(jobID, tr.Stages())
			g.jobs.Finish(jobID, summary, err)
		},
	})
	g.mux = http.NewServeMux()
	g.mux.HandleFunc("POST /v1/sweeps", g.eng.HandleCreate)
	g.mux.HandleFunc("GET /v1/sweeps", g.eng.HandleList)
	g.mux.HandleFunc("GET /v1/sweeps/{id}", g.eng.HandleGet)
	g.mux.HandleFunc("GET /v1/sweeps/{id}/events", g.eng.HandleEvents)
	g.mux.HandleFunc("GET /v1/sweeps/{id}/results", g.eng.HandleResults)
	g.mux.HandleFunc("DELETE /v1/sweeps/{id}", g.eng.HandleCancel)
	return g
}

// do serves one request in-process and returns the status and body.
func (g *rig) do(method, path, body string) (int, string) {
	g.t.Helper()
	rec := httptest.NewRecorder()
	g.mux.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// doJSON is do with the status checked and the body decoded into out.
func (g *rig) doJSON(method, path string, want int, out any) {
	g.t.Helper()
	status, body := g.do(method, path, "")
	if status != want {
		g.t.Fatalf("%s %s: status %d, want %d: %s", method, path, status, want, body)
	}
	if out != nil {
		if err := json.Unmarshal([]byte(body), out); err != nil {
			g.t.Fatalf("%s %s: %v in %s", method, path, err, body)
		}
	}
}

// create posts a one-graph spec with n budget vectors (n cells, ids
// c0..c<n-1>) and returns the sweep id and a live subscription opened
// before any cell can finish.
func (g *rig) create(n int) (string, <-chan JobEvent) {
	g.t.Helper()
	spec := sweep.Spec{GraphIDs: []string{"g"}}
	for i := 0; i < n; i++ {
		spec.Budgets = append(spec.Budgets, []int{i + 1})
	}
	raw, _ := json.Marshal(spec)
	status, body := g.do("POST", "/v1/sweeps", string(raw))
	if status != http.StatusAccepted {
		g.t.Fatalf("create: status %d: %s", status, body)
	}
	var out struct {
		SweepID string `json:"sweep_id"`
		Cells   int    `json:"cells"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil || out.Cells != n {
		g.t.Fatalf("create: %v %s", err, body)
	}
	_, ch, _, ok := g.jobs.Subscribe(out.SweepID)
	if !ok {
		g.t.Fatalf("sweep %s has no job", out.SweepID)
	}
	return out.SweepID, ch
}

// await drains the subscription until the engine finalizes the job (the
// store closes it after the terminal event) and returns the final view
// with its typed summary.
func (g *rig) await(id string, ch <-chan JobEvent) (JobView, *sweep.Summary) {
	g.t.Helper()
	for range ch {
	}
	view, ok := g.jobs.Snapshot(id)
	if !ok || !view.State.Terminal() {
		g.t.Fatalf("sweep %s not terminal after its stream closed: %+v", id, view)
	}
	sum, _ := view.Result.(*sweep.Summary)
	if sum == nil {
		g.t.Fatalf("sweep %s (%s) carries no summary", id, view.State)
	}
	return view, sum
}

func (g *rig) results(id string) sweep.ResultsResponse {
	g.t.Helper()
	var res sweep.ResultsResponse
	g.doJSON("GET", "/v1/sweeps/"+id+"/results", http.StatusOK, &res)
	return res
}

// TestSweepEngineCancelWhileWaiting: one cell gets a slot and finishes,
// the rest are still waiting for one when the sweep is canceled. Those
// rows end canceled, the counters and the summary agree, the artifact
// is still saved, the canceled job keeps its summary, and a second
// DELETE removes the job and its retained rows.
func TestSweepEngineCancelWhileWaiting(t *testing.T) {
	g := newRig(t, true, true)
	id, events := g.create(4)
	g.run.slots <- struct{}{} // exactly one cell runs
	for ev := range events {
		if ev.Cell != "" && ev.CellState == string(JobDone) {
			if ev.Done != 1 || ev.Total != 4 || ev.Stage != "cell" || ev.CellJob == "" || ev.Node != "fake" {
				t.Errorf("cell frame: %+v", ev)
			}
			break
		}
	}
	if status, body := g.do("GET", "/v1/sweeps/"+id+"/results", ""); status != http.StatusConflict {
		t.Fatalf("results while running: status %d: %s", status, body)
	}
	if status, body := g.do("DELETE", "/v1/sweeps/"+id, ""); status != http.StatusAccepted {
		t.Fatalf("cancel: status %d: %s", status, body)
	}
	view, sum := g.await(id, events)
	if view.State != JobCanceled {
		t.Fatalf("state %s, want canceled", view.State)
	}
	if sum.Cells != 4 || sum.Done != 1 || sum.Canceled != 3 || sum.Failed != 0 || sum.ArtifactID == "" || !sum.Persisted {
		t.Fatalf("summary: %+v", sum)
	}
	if st := g.eng.Stats(); st != (SweepStats{CellsDone: 1, CellsCanceled: 3}) {
		t.Errorf("counters: %+v", st)
	}
	if g.sink.saves != 1 || len(g.sink.arts[sum.ArtifactID].Cells) != 4 {
		t.Errorf("artifact not saved once with all rows: saves %d", g.sink.saves)
	}
	if _, ok := view.Stages["sweep_artifact"]; !ok {
		t.Errorf("no sweep_artifact stage: %v", view.Stages)
	}

	// The wire view carries the summary too.
	var wire struct {
		State  JobState       `json:"state"`
		Result *sweep.Summary `json:"result"`
	}
	g.doJSON("GET", "/v1/sweeps/"+id, http.StatusOK, &wire)
	if wire.State != JobCanceled || wire.Result == nil || *wire.Result != *sum {
		t.Errorf("GET view: %+v", wire)
	}
	res := g.results(id)
	if res.ArtifactID != sum.ArtifactID || res.Counts["done"] != 1 || res.Counts["canceled"] != 3 {
		t.Fatalf("results: %s %v", res.ArtifactID, res.Counts)
	}
	for _, c := range res.Cells {
		if c.State != string(JobCanceled) {
			if c.JobID == "" || !c.HasWelfare || c.Algo != "fake" {
				t.Errorf("done row incomplete: %+v", c)
			}
			continue
		}
		// Never held a slot: no job, no run time, the context's reason.
		if c.Error != context.Canceled.Error() || c.ElapsedMS != 0 || c.JobID != "" || c.Node != "fake" {
			t.Errorf("canceled row: %+v", c)
		}
	}
	// A late subscriber replays the cell frames and the terminal frame.
	if status, body := g.do("GET", "/v1/sweeps/"+id+"/events", ""); status != http.StatusOK ||
		!strings.Contains(body, "event: canceled") || !strings.Contains(body, `"cell_state":"canceled"`) {
		t.Errorf("event replay: status %d: %s", status, body)
	}

	// DELETE of the now-terminal sweep forgets it entirely.
	if status, body := g.do("DELETE", "/v1/sweeps/"+id, ""); status != http.StatusOK || !strings.Contains(body, `"deleted"`) {
		t.Fatalf("delete: status %d: %s", status, body)
	}
	if _, ok := g.eng.lookup(id); ok || len(g.eng.order) != 0 {
		t.Errorf("record table still holds %s (order %v)", id, g.eng.order)
	}
	if status, _ := g.do("GET", "/v1/sweeps/"+id, ""); status != http.StatusNotFound {
		t.Errorf("deleted sweep: status %d, want 404", status)
	}
}

// TestSweepEngineOutcomes scripts the attempt loop: deterministic
// failures fail only their cell (the sweep itself is done), transient
// refusals retry with back-off and give up after four attempts.
func TestSweepEngineOutcomes(t *testing.T) {
	busy := errors.New("busy")
	retries := func(n int) []step {
		out := make([]step, n)
		for i := range out {
			out[i] = step{JobQueued, busy}
		}
		return out
	}
	g := newRig(t, false, true)
	g.run.script["c1"] = []step{{JobFailed, errors.New("boom")}}
	g.run.script["c2"] = retries(2) // third attempt succeeds
	g.run.script["c3"] = retries(9) // never succeeds
	id, events := g.create(4)
	view, sum := g.await(id, events)
	if view.State != JobDone || sum.Done != 2 || sum.Failed != 2 || sum.Canceled != 0 {
		t.Fatalf("state %s summary %+v", view.State, sum)
	}
	want := map[string]struct {
		state    JobState
		err      string
		attempts int
	}{
		"c0": {JobDone, "", 1},
		"c1": {JobFailed, "boom", 1},
		"c2": {JobDone, "", 3},
		"c3": {JobFailed, "gave up after 4 attempts: busy", 4},
	}
	for _, c := range g.results(id).Cells {
		w := want[c.CellID]
		if c.State != string(w.state) || c.Error != w.err || g.run.attemptsOf(c.CellID) != w.attempts {
			t.Errorf("cell %s: state %s error %q attempts %d, want %+v", c.CellID, c.State, c.Error, g.run.attemptsOf(c.CellID), w)
		}
	}
	if st := g.eng.Stats(); st != (SweepStats{CellsDone: 2, CellsFailed: 2}) {
		t.Errorf("counters: %+v", st)
	}
}

// TestSweepEngineRejectsBeforeJob: a malformed body, a spec Expand
// refuses and a spec the runner's Check refuses all answer 400 without
// a job ever existing.
func TestSweepEngineRejectsBeforeJob(t *testing.T) {
	g := newRig(t, false, false)
	g.run.checkErr = errors.New("graph g is not registered")
	for name, body := range map[string]string{
		"malformed":     `{"graph_ids":`,
		"unknown field": `{"graph_ids":["g"],"budgets":[[1]],"nope":1}`,
		"no budgets":    `{"graph_ids":["g"]}`,
		"check":         `{"graph_ids":["g"],"budgets":[[1]]}`,
	} {
		if status, resp := g.do("POST", "/v1/sweeps", body); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, status, resp)
		}
	}
	if jobs := g.jobs.List(""); len(jobs) != 0 {
		t.Errorf("rejected specs left jobs behind: %+v", jobs)
	}
}

// TestSweepEngineEviction: the in-memory rows are bounded. Once 32
// later sweeps push a sweep's rows out, /results falls back to the
// sink — also for a canceled sweep, whose summary is what names the
// artifact — and answers 410 only without a sink or with an unreadable
// artifact.
func TestSweepEngineEviction(t *testing.T) {
	for _, withSink := range []bool{true, false} {
		t.Run(fmt.Sprintf("sink=%v", withSink), func(t *testing.T) {
			g := newRig(t, true, withSink)
			first, events := g.create(2)
			g.run.slots <- struct{}{}
			for ev := range events {
				if ev.CellState == string(JobDone) {
					break
				}
			}
			g.do("DELETE", "/v1/sweeps/"+first, "")
			_, sum := g.await(first, events)
			close(g.run.slots) // later sweeps run ungated
			for i := 0; i < maxSweepRecords; i++ {
				g.await(g.create(1))
			}
			if _, ok := g.eng.lookup(first); ok {
				t.Fatal("first sweep's rows were not evicted")
			}
			if !withSink {
				if sum.Persisted {
					t.Errorf("summary claims persistence without a sink: %+v", sum)
				}
				if status, body := g.do("GET", "/v1/sweeps/"+first+"/results", ""); status != http.StatusGone {
					t.Errorf("evicted, no sink: status %d, want 410: %s", status, body)
				}
				return
			}
			res := g.results(first)
			if res.ArtifactID != sum.ArtifactID || res.Counts["done"] != 1 || res.Counts["canceled"] != 1 || g.sink.loads != 1 {
				t.Errorf("from sink: %s %v loads %d", res.ArtifactID, res.Counts, g.sink.loads)
			}
			g.sink.loadErr = store.ErrChecksum
			if status, body := g.do("GET", "/v1/sweeps/"+first+"/results", ""); status != http.StatusGone {
				t.Errorf("unreadable artifact: status %d, want 410: %s", status, body)
			}
		})
	}
}

// TestSweepEnginePagination: newest-first pages over sweep jobs only.
func TestSweepEnginePagination(t *testing.T) {
	views := func(n int) []JobView {
		out := make([]JobView, 0, 2*n)
		for i := 0; i < n; i++ {
			out = append(out, JobView{ID: fmt.Sprintf("j%d", i), Kind: "sweep"}, JobView{ID: fmt.Sprintf("a%d", i), Kind: "allocate"})
		}
		return out
	}
	cases := []struct {
		name               string
		n                  int
		limit, cursor      string
		wantLen            int
		wantFirst, wantNxt string
		wantErr            bool
	}{
		{name: "default limit", n: 60, wantLen: 50, wantFirst: "j59", wantNxt: "j10"},
		{name: "capped limit", n: 600, limit: "9999", wantLen: 500, wantFirst: "j599", wantNxt: "j100"},
		{name: "second page", n: 5, limit: "2", cursor: "j3", wantLen: 2, wantFirst: "j2", wantNxt: "j1"},
		{name: "last page has no next", n: 5, limit: "2", cursor: "j1", wantLen: 1, wantFirst: "j0"},
		{name: "exact fit has no next", n: 2, limit: "2", wantLen: 2, wantFirst: "j1"},
		{name: "cursor on the oldest", n: 3, cursor: "j0", wantLen: 0},
		{name: "unknown cursor", n: 3, cursor: "j9", wantErr: true},
		{name: "non-sweep cursor", n: 3, cursor: "a1", wantErr: true},
		{name: "bad limit", n: 3, limit: "x", wantErr: true},
		{name: "zero limit", n: 3, limit: "0", wantErr: true},
	}
	for _, tc := range cases {
		page, next, err := paginateSweeps(views(tc.n), tc.limit, tc.cursor)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: no error", tc.name)
			}
			continue
		}
		if err != nil || len(page) != tc.wantLen || next != tc.wantNxt || (len(page) > 0 && page[0].ID != tc.wantFirst) {
			t.Errorf("%s: len %d next %q err %v, want len %d first %q next %q", tc.name, len(page), next, err, tc.wantLen, tc.wantFirst, tc.wantNxt)
		}
	}

	// The handler maps the same onto the wire: pages, next_cursor, 400.
	g := newRig(t, false, false)
	var ids []string
	for i := 0; i < 3; i++ {
		id, events := g.create(1)
		g.await(id, events)
		ids = append(ids, id)
	}
	var list struct {
		Sweeps []JobView `json:"sweeps"`
		Next   string    `json:"next_cursor"`
	}
	g.doJSON("GET", "/v1/sweeps?limit=2", http.StatusOK, &list)
	if len(list.Sweeps) != 2 || list.Sweeps[0].ID != ids[2] || list.Next != ids[1] {
		t.Fatalf("first page: %+v next %q", list.Sweeps, list.Next)
	}
	list.Next = ""
	g.doJSON("GET", "/v1/sweeps?limit=2&cursor="+ids[1], http.StatusOK, &list)
	if len(list.Sweeps) != 1 || list.Sweeps[0].ID != ids[0] || list.Next != "" {
		t.Fatalf("last page: %+v next %q", list.Sweeps, list.Next)
	}
	if status, _ := g.do("GET", "/v1/sweeps?cursor=nope", ""); status != http.StatusBadRequest {
		t.Errorf("unknown cursor: status %d, want 400", status)
	}
}
