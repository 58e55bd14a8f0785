package cluster_test

import (
	"bufio"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"uicwelfare/internal/cluster"
	"uicwelfare/internal/journal"
	"uicwelfare/internal/service"
	"uicwelfare/internal/store"
	"uicwelfare/internal/sweep"
)

// sweepView is the router's sweep job snapshot with a typed summary.
type sweepView struct {
	ID     string           `json:"id"`
	Kind   string           `json:"kind"`
	State  service.JobState `json:"state"`
	Error  string           `json:"error"`
	Result *sweep.Summary   `json:"result"`
}

func (c *client) createSweep(spec sweep.Spec) string {
	c.t.Helper()
	var out struct {
		SweepID string `json:"sweep_id"`
		Cells   int    `json:"cells"`
	}
	c.doJSON("POST", "/v1/sweeps", spec, &out, http.StatusAccepted)
	if out.SweepID == "" {
		c.t.Fatal("no sweep id")
	}
	return out.SweepID
}

func (c *client) waitSweep(id string, timeout time.Duration) sweepView {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var view sweepView
		c.doJSON("GET", "/v1/sweeps/"+id, nil, &view, http.StatusOK)
		if view.State.Terminal() {
			return view
		}
		time.Sleep(20 * time.Millisecond)
	}
	c.t.Fatalf("sweep %s did not finish", id)
	return sweepView{}
}

// eventLog accumulates a sweep's SSE events from a live subscriber.
type eventLog struct {
	mu     sync.Mutex
	events []service.JobEvent
	closed bool
}

func (l *eventLog) snapshot() []service.JobEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]service.JobEvent(nil), l.events...)
}

func (l *eventLog) done() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// followSweep subscribes to the sweep's SSE stream on a background
// goroutine, accumulating events until the terminal frame.
func (c *client) followSweep(id string) *eventLog {
	c.t.Helper()
	resp, err := http.Get(c.base + "/v1/sweeps/" + id + "/events")
	if err != nil {
		c.t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		c.t.Fatalf("sweep events: status %d", resp.StatusCode)
	}
	log := &eventLog{}
	go func() {
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			var ev service.JobEvent
			if json.Unmarshal([]byte(line), &ev) != nil {
				continue
			}
			log.mu.Lock()
			log.events = append(log.events, ev)
			if ev.Terminal() {
				log.closed = true
			}
			log.mu.Unlock()
		}
		log.mu.Lock()
		log.closed = true
		log.mu.Unlock()
	}()
	return log
}

// twoOwnerGraphs registers path graphs through the router until both
// backends own at least one, returning one graph per owner.
func twoOwnerGraphs(t *testing.T, c *client, names []string) map[string]service.GraphInfo {
	t.Helper()
	byOwner := map[string]service.GraphInfo{}
	for n := 12; n < 12+64 && len(byOwner) < 2; n++ {
		info := c.registerLine(n)
		owner, ok := cluster.Owner(names, info.ID)
		if !ok {
			t.Fatal("no owner")
		}
		if _, seen := byOwner[owner]; !seen {
			byOwner[owner] = info
		}
	}
	if len(byOwner) != 2 {
		t.Fatalf("could not find graphs for both owners: %v", byOwner)
	}
	return byOwner
}

// TestClusterSweepSurvivesShardDeath is the partial-failure acceptance
// scenario: a sweep spanning two shards loses one shard mid-flight. The
// dead shard's unfinished cells fail — and only those — while the
// survivor's cells complete, the SSE stream stays intact to the
// terminal event, and the partial result lands as a verifiable
// checksummed artifact.
func TestClusterSweepSurvivesShardDeath(t *testing.T) {
	backends := []*backend{
		startBackendAt(t, "b0", "127.0.0.1:0", service.Options{Workers: 2}),
		startBackendAt(t, "b1", "127.0.0.1:0", service.Options{Workers: 2}),
	}
	spill := t.TempDir()
	rt, c := newCluster(t, backends, cluster.Options{
		ProbeInterval: time.Hour, // no re-probe: the victim stays "alive" and unreachable
		ProxyTimeout:  10 * time.Second,
		SpillDir:      spill,
	})
	defer rt.Close()
	rt.Sync(syncCtx())

	names := []string{"b0", "b1"}
	byOwner := twoOwnerGraphs(t, c, names)
	victim, survivor := "b0", "b1"

	spec := sweep.Spec{
		Name:     "shard-death",
		GraphIDs: []string{byOwner[victim].ID, byOwner[survivor].ID},
		// Twelve cells per graph; the router keeps two in flight per shard
		// and each occupies its slot for at least one poll interval, so the
		// sweep is mid-flight for a while.
		Budgets: [][]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 1}, {1, 3}},
		Repeats: 2,
		Runs:    500,
		Seed:    1,
	}
	sweepID := c.createSweep(spec)
	if !strings.HasPrefix(sweepID, "router-") {
		t.Fatalf("sweep job %s not minted by the router's own store", sweepID)
	}
	log := c.followSweep(sweepID)

	// Kill the victim once the sweep is demonstrably running (first cell
	// done); its remaining cells are then unfinished by construction.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no cell finished before the kill window")
		}
		finished := false
		for _, ev := range log.snapshot() {
			if ev.Cell != "" && ev.CellState == string(service.JobDone) {
				finished = true
			}
		}
		if finished {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, b := range backends {
		if b.name == victim {
			b.kill()
		}
	}

	view := c.waitSweep(sweepID, 60*time.Second)
	if view.State != service.JobDone {
		t.Fatalf("sweep finished %s (%s) — a dead shard must not fail the sweep", view.State, view.Error)
	}
	sum := view.Result
	if sum == nil || sum.Done+sum.Failed != 24 || sum.Canceled != 0 {
		t.Fatalf("summary: %+v", sum)
	}
	if sum.Failed == 0 {
		t.Fatal("no cells failed; the victim finished everything before the kill")
	}

	// Failure is isolated: every failed cell belongs to the victim's
	// graph, every survivor cell is done, and the job-id prefixes prove
	// each done cell ran on its graph's HRW owner.
	var res sweep.ResultsResponse
	c.doJSON("GET", "/v1/sweeps/"+sweepID+"/results", nil, &res, http.StatusOK)
	if len(res.Cells) != 24 {
		t.Fatalf("results: %d cells", len(res.Cells))
	}
	for _, cell := range res.Cells {
		switch cell.State {
		case string(service.JobDone):
			owner, _ := cluster.Owner(names, cell.GraphID)
			if !strings.HasPrefix(cell.JobID, owner+"-") {
				t.Errorf("done cell %s ran as %s, want owner %s", cell.CellID, cell.JobID, owner)
			}
			if !cell.HasWelfare || cell.WelfareRuns != 500 {
				t.Errorf("done cell %s has no welfare: %+v", cell.CellID, cell)
			}
		case string(service.JobFailed):
			if cell.GraphID != byOwner[victim].ID {
				t.Errorf("cell %s on surviving graph %s failed: %s", cell.CellID, cell.GraphID, cell.Error)
			}
		default:
			t.Errorf("cell %s in state %s", cell.CellID, cell.State)
		}
	}

	// The SSE stream survived the shard death: every cell produced at
	// least one event and the stream closed with the sweep's terminal
	// frame.
	waitLog := time.Now().Add(10 * time.Second)
	for !log.done() && time.Now().Before(waitLog) {
		time.Sleep(10 * time.Millisecond)
	}
	events := log.snapshot()
	if len(events) == 0 || !events[len(events)-1].Terminal() {
		t.Fatalf("SSE stream did not end in a terminal frame (%d events)", len(events))
	}
	seen := map[string]bool{}
	for _, ev := range events {
		if ev.Cell != "" {
			seen[ev.Cell] = true
		}
	}
	if len(seen) != 24 {
		t.Errorf("SSE covered %d cells, want 24", len(seen))
	}

	// The artifact is on disk, re-derives its content id, and its codec
	// detects corruption.
	art, err := store.LoadSweepFile(filepath.Join(spill, "sweeps"), sum.ArtifactID)
	if err != nil {
		t.Fatalf("load artifact: %v", err)
	}
	if store.SweepResultID(art) != sum.ArtifactID {
		t.Error("artifact does not re-derive its content id")
	}
	path := filepath.Join(spill, "sweeps", sum.ArtifactID+store.SweepExt)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-6] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.LoadSweepFile(filepath.Join(spill, "sweeps"), sum.ArtifactID); !errors.Is(err, store.ErrChecksum) {
		t.Errorf("corrupted artifact load: %v, want ErrChecksum", err)
	}
}

// TestRouterSweepCellOverAdmissionGivesUp: a router-run cell is one
// POST /v1/allocate on its owner, so its admission is the owner's own.
// A cell priced far over the owner's budget is refused with a 429 on
// every attempt; the engine backs off and retries it exactly as it
// does a single-node cell, and after four attempts the cell — not the
// sweep — fails. Every refusal is the owner's admission_reject,
// journaled under the sweep's trace id.
func TestRouterSweepCellOverAdmissionGivesUp(t *testing.T) {
	backends := []*backend{
		startBackendAt(t, "b0", "127.0.0.1:0", service.Options{Workers: 1, AdmissionMB: 1}),
	}
	rt, c := newCluster(t, backends, cluster.Options{
		ProbeInterval: time.Hour,
		ProxyTimeout:  10 * time.Second,
		SpillDir:      t.TempDir(),
	})
	defer rt.Close()
	rt.Sync(syncCtx())

	info := c.registerLine(2000)
	var accepted struct {
		SweepID string `json:"sweep_id"`
		TraceID string `json:"trace_id"`
	}
	c.doJSON("POST", "/v1/sweeps", sweep.Spec{
		GraphIDs: []string{info.ID},
		Budgets:  [][]int{{10, 10}},
		Eps:      []float64{0.05}, // ε at the floor prices ~100× past any 1MB budget
	}, &accepted, http.StatusAccepted)
	if accepted.TraceID == "" {
		t.Fatalf("sweep accepted without a trace id: %+v", accepted)
	}
	view := c.waitSweep(accepted.SweepID, 30*time.Second)
	if view.State != service.JobDone || view.Result == nil || view.Result.Failed != 1 {
		t.Fatalf("sweep: %s %+v", view.State, view.Result)
	}
	var res sweep.ResultsResponse
	c.doJSON("GET", "/v1/sweeps/"+accepted.SweepID+"/results", nil, &res, http.StatusOK)
	cell := res.Cells[0]
	if cell.State != string(service.JobFailed) || !strings.Contains(cell.Error, "gave up after 4 attempts") ||
		!strings.Contains(cell.Error, "status 429") {
		t.Fatalf("cell: %+v", cell)
	}
	if stats := rt.Stats(syncCtx()); stats.Cluster.AdmissionRejects != 4 {
		t.Errorf("cluster admission_rejects = %d, want 4", stats.Cluster.AdmissionRejects)
	}
	var events cluster.ClusterEventsResponse
	c.doJSON("GET", "/v1/events?type="+journal.AdmissionReject+"&trace="+accepted.TraceID, nil, &events, http.StatusOK)
	if len(events.Events) != 4 {
		t.Fatalf("%d admission_reject events under the sweep's trace, want 4: %+v", len(events.Events), events.Events)
	}

	// A small graph at default ε dispatches and completes.
	small := c.registerLine(16)
	okID := c.createSweep(sweep.Spec{GraphIDs: []string{small.ID}, Budgets: [][]int{{2, 2}}, Runs: 200})
	okView := c.waitSweep(okID, 30*time.Second)
	if okView.State != service.JobDone || okView.Result.Done != 1 {
		t.Fatalf("cheap sweep: %s %+v", okView.State, okView.Result)
	}
}

// TestRouterSweepValidation: specs over unregistered graphs reject with
// 400 before any job exists, and sweep routes 404 for non-sweep ids.
func TestRouterSweepValidation(t *testing.T) {
	backends := []*backend{
		startBackendAt(t, "b0", "127.0.0.1:0", service.Options{Workers: 1}),
	}
	rt, c := newCluster(t, backends, cluster.Options{
		ProbeInterval: time.Hour,
		ProxyTimeout:  10 * time.Second,
		SpillDir:      t.TempDir(),
	})
	defer rt.Close()
	rt.Sync(syncCtx())
	if status, raw := c.do("POST", "/v1/sweeps", sweep.Spec{GraphIDs: []string{"gdeadbeef"}, Budgets: [][]int{{2}}}); status != http.StatusBadRequest {
		t.Fatalf("unknown graph: status %d: %s", status, raw)
	}
	if status, _ := c.do("GET", "/v1/sweeps/router-j99", nil); status != http.StatusNotFound {
		t.Error("unknown sweep did not 404")
	}
}

// TestRouterSweepSharesEngine pins what the router gains by running
// sweeps through the backend's engine and the store's one .wsr body: the
// artifact write shows as a sweep_artifact stage, the sweep's edge trace
// lands in the router's own trace store, and once the in-memory rows are
// evicted a corrupt artifact is reported 410 and removed.
func TestRouterSweepSharesEngine(t *testing.T) {
	backends := []*backend{
		startBackendAt(t, "b0", "127.0.0.1:0", service.Options{Workers: 2}),
	}
	spill := t.TempDir()
	rt, c := newCluster(t, backends, cluster.Options{
		ProbeInterval: time.Hour,
		ProxyTimeout:  10 * time.Second,
		SpillDir:      spill,
		TraceSample:   1,
	})
	defer rt.Close()
	rt.Sync(syncCtx())

	info := c.registerLine(16)
	sweepID := c.createSweep(sweep.Spec{GraphIDs: []string{info.ID}, Budgets: [][]int{{1, 1}, {2, 2}}})
	view := c.waitSweep(sweepID, 30*time.Second)
	sum := view.Result
	if view.State != service.JobDone || sum.Done != 2 || !sum.Persisted || sum.ArtifactID == "" {
		t.Fatalf("sweep: %s %+v", view.State, sum)
	}
	var job service.JobView
	c.doJSON("GET", "/v1/sweeps/"+sweepID, nil, &job, http.StatusOK)
	if _, ok := job.Stages["sweep_artifact"]; !ok {
		t.Errorf("router sweep stages lack sweep_artifact: %v", job.Stages)
	}
	var tree service.TraceTreeResponse
	c.doJSON("GET", "/v1/traces/"+job.TraceID, nil, &tree, http.StatusOK)
	edge := false
	for _, sp := range tree.Spans {
		edge = edge || (sp.Node == "router" && sp.Stage == "sweep_artifact")
	}
	if rec, ok := rt.Traces().Get(job.TraceID); !ok || rec.Route != "sweep" || !edge {
		t.Errorf("router trace store has no sweep fragment for %s (found %v, route %q, artifact span %v)", job.TraceID, ok, rec.Route, edge)
	}

	// Corrupt the artifact, push the rows out of memory with 32 more
	// sweeps, and ask again: detected on load, removed, reported.
	path := filepath.Join(spill, "sweeps", sum.ArtifactID+store.SweepExt)
	art, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	art[len(art)-6] ^= 0x01
	if err := os.WriteFile(path, art, 0o644); err != nil {
		t.Fatal(err)
	}
	fillers := make([]string, 32)
	for i := range fillers {
		fillers[i] = c.createSweep(sweep.Spec{GraphIDs: []string{info.ID}, Budgets: [][]int{{1, 1}}, Seed: uint64(i + 2)})
	}
	for _, id := range fillers {
		if v := c.waitSweep(id, 30*time.Second); v.State != service.JobDone {
			t.Fatalf("filler sweep %s: %s (%s)", id, v.State, v.Error)
		}
	}
	if status, body := c.do("GET", "/v1/sweeps/"+sweepID+"/results", nil); status != http.StatusGone {
		t.Errorf("corrupt artifact: status %d, want 410: %s", status, body)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("corrupt artifact was not removed (stat: %v)", err)
	}
}
