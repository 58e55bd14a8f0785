package service_test

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"uicwelfare/internal/service"
	"uicwelfare/internal/telemetry"
)

// TestTraceIDEndToEnd follows one client-sent trace id through the
// whole observable surface: the 202 response (header and body), the job
// record, every SSE event, and the persisted history.jsonl audit line —
// with at least four named stage spans attached to the job.
func TestTraceIDEndToEnd(t *testing.T) {
	dir := t.TempDir()
	e := newEnv(t, service.Options{Workers: 2, DataDir: dir})
	id := e.registerGraph(t)

	const traceID = "trace-e2e-42"
	body, err := json.Marshal(service.AllocateRequest{GraphID: id, Budgets: []int{4, 4}, Runs: 2000})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", e.srv.URL+"/v1/allocate", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(telemetry.TraceHeader, traceID)
	resp, err := e.srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("allocate: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(telemetry.TraceHeader); got != traceID {
		t.Errorf("response trace header = %q, want %q", got, traceID)
	}
	var ack struct {
		JobID   string `json:"job_id"`
		TraceID string `json:"trace_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.TraceID != traceID {
		t.Errorf("202 body trace_id = %q, want %q", ack.TraceID, traceID)
	}

	var view service.JobView
	e.waitJob(t, ack.JobID, &view)
	if view.State != service.JobDone {
		t.Fatalf("job ended %q: %s", view.State, view.Error)
	}
	if view.TraceID != traceID {
		t.Errorf("job view trace_id = %q, want %q", view.TraceID, traceID)
	}
	if len(view.Stages) < 4 {
		t.Errorf("job carries %d stage spans, want >= 4: %v", len(view.Stages), view.Stages)
	}
	for _, stage := range []string{"cache_lookup", "rrset_grow", "greedy_select", "estimate"} {
		st, ok := view.Stages[stage]
		if stage == "rrset_grow" && !ok {
			// RR-set growth runs on one worker or several depending
			// on GOMAXPROCS; either span name satisfies the check.
			st, ok = view.Stages["rrset_grow_parallel"]
		}
		if !ok || st.Count < 1 {
			t.Errorf("stage %q missing from job stages %v", stage, view.Stages)
		}
	}

	// Every SSE frame (replayed history included) names the trace.
	for i, ev := range readSSE(t, e, ack.JobID) {
		if ev.Data.TraceID != traceID {
			t.Errorf("SSE event %d trace_id = %q, want %q", i, ev.Data.TraceID, traceID)
		}
	}

	// The terminal JobView lands in history.jsonl with the trace id (the
	// audit append runs on the worker as the job finishes; poll briefly).
	histPath := filepath.Join(dir, "jobs", "history.jsonl")
	deadline := time.Now().Add(5 * time.Second)
	for {
		raw, err := os.ReadFile(histPath)
		if err == nil && strings.Contains(string(raw), traceID) {
			if !strings.Contains(string(raw), `"stages"`) {
				t.Errorf("history.jsonl record has no stages: %s", raw)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %q never appeared in %s (err %v)", traceID, histPath, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestColdSpillAttribution: with a data dir, a cold build's spill
// persists the sketch's greedy selection, and that selection must be
// timed as greedy_select, not hidden inside sketch_spill. Between the
// build's last growth span and the spill there is exactly one
// greedy_select span (the selection itself), no greedy_select span runs
// inside the spill, and the request's own selection comes after it.
// (The adaptive phase's selections, interleaved with growth, are the
// build's.)
func TestColdSpillAttribution(t *testing.T) {
	e := newEnv(t, service.Options{Workers: 2, DataDir: t.TempDir(), TraceSampleAll: true})
	id := e.registerGraph(t)
	const traceID = "trace-cold-spill"
	tracedAllocate(t, e, id, traceID)

	var tree service.TraceTreeResponse
	e.doJSON("GET", "/v1/traces/"+traceID, nil, &tree, http.StatusOK)
	end := func(sp service.TraceSpan) int64 { return sp.StartUnixNS + int64(sp.DurationMS*1e6) }
	const slackNS = 1000 // float rounding of span durations
	var buildEnd int64
	var spills, greedy []service.TraceSpan
	for _, sp := range tree.Spans {
		switch sp.Stage {
		case "rrset_grow", "rrset_grow_parallel":
			buildEnd = max(buildEnd, end(sp))
		case "sketch_spill":
			spills = append(spills, sp)
		case "greedy_select":
			greedy = append(greedy, sp)
		}
	}
	if buildEnd == 0 || len(spills) != 1 {
		t.Fatalf("want a build and one sketch_spill, got build end %d and %d spills: %+v", buildEnd, len(spills), tree.Spans)
	}
	spill := spills[0]
	var beforeSpill, afterSpill int
	for _, sp := range greedy {
		switch {
		case end(sp) <= buildEnd+slackNS:
			// adaptive-phase selection inside the build
		case end(sp) <= spill.StartUnixNS+slackNS:
			beforeSpill++
		case sp.StartUnixNS+slackNS >= end(spill):
			afterSpill++
		default:
			t.Errorf("greedy_select span %+v overlaps sketch_spill %+v", sp.Span, spill.Span)
		}
	}
	if beforeSpill != 1 || afterSpill < 1 {
		t.Errorf("greedy_select spans: %d between build and spill (want 1), %d after the spill (want >= 1)", beforeSpill, afterSpill)
	}
}

// TestMetricsUnderConcurrentAllocates hammers GET /v1/metrics while
// allocate jobs run — the race detector owns the interesting assertion —
// then checks the exposition contains the expected route, job, and
// stage series in both Prometheus text and JSON form.
func TestMetricsUnderConcurrentAllocates(t *testing.T) {
	e := newEnv(t, service.Options{Workers: 4})
	id := e.registerGraph(t)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if status, _ := e.do("GET", "/v1/metrics", nil); status != http.StatusOK {
				t.Errorf("metrics during load: status %d", status)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var jobs []string
	for i := 0; i < 6; i++ {
		jobs = append(jobs, e.submit(t, "/v1/allocate", service.AllocateRequest{
			GraphID: id, Budgets: []int{3 + i%2, 3}, Runs: 1000,
		}))
	}
	for _, jobID := range jobs {
		var job allocJobView
		e.waitJob(t, jobID, &job)
		if job.State != service.JobDone {
			t.Fatalf("job %s ended %q: %s", jobID, job.State, job.Error)
		}
	}
	close(stop)
	wg.Wait()

	status, raw := e.do("GET", "/v1/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	text := string(raw)
	for _, want := range []string{
		`welmax_http_request_duration_seconds_bucket{route="POST /v1/allocate",le="+Inf"}`,
		`welmax_job_duration_seconds_count{kind="allocate"} 6`,
		`welmax_stage_duration_seconds_count{stage="greedy_select",family="prima"}`,
		"# TYPE welmax_job_duration_seconds histogram",
		"welmax_graphs 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics text missing %q", want)
		}
	}
	// Growth is serial or parallel depending on GOMAXPROCS; the stage
	// histogram must carry whichever span the build actually emitted.
	if !strings.Contains(text, `welmax_stage_duration_seconds_count{stage="rrset_grow",family="prima"}`) &&
		!strings.Contains(text, `welmax_stage_duration_seconds_count{stage="rrset_grow_parallel",family="prima"}`) {
		t.Errorf("metrics text missing the rrset_grow / rrset_grow_parallel stage histogram")
	}

	var export telemetry.Export
	e.doJSON("GET", "/v1/metrics?format=json", nil, &export, http.StatusOK)
	if len(export.Histograms) == 0 || len(export.Gauges) == 0 {
		t.Fatalf("JSON export empty: %d histograms, %d gauges", len(export.Histograms), len(export.Gauges))
	}
	for _, h := range export.Histograms {
		if h.Name == "welmax_job_duration_seconds" && h.Count != 6 {
			t.Errorf("job histogram count = %d, want 6", h.Count)
		}
	}
}

// TestSeedPrefixProgressEvents checks select-stage SSE events carry the
// growing seed prefix, that successive prefixes are consistent — each
// extends the one before (lazy-greedy order is prefix-stable) — and that
// a warm job, which replays the order the cold job's selection memoised,
// streams the same prefix lengths and ids as the cold job did.
func TestSeedPrefixProgressEvents(t *testing.T) {
	e := newEnv(t, service.Options{Workers: 2})
	id := e.registerGraph(t)

	// The max budget exceeds the 16-selection report chunk so at least
	// one intermediate prefix event fires before the final one.
	req := service.AllocateRequest{GraphID: id, Budgets: []int{20, 20}, Runs: 1000}
	run := func(wantCached bool) [][]int64 {
		jobID := e.submit(t, "/v1/allocate", req)
		events := readSSE(t, e, jobID)
		var prefixes [][]int64
		for _, ev := range events {
			if ev.Data.Type == service.EventProgress && ev.Data.Stage == "select" && len(ev.Data.SeedPrefix) > 0 {
				prefixes = append(prefixes, ev.Data.SeedPrefix)
			}
		}
		var job allocJobView
		e.waitJob(t, jobID, &job)
		if job.State != service.JobDone {
			t.Fatalf("job ended %q: %s", job.State, job.Error)
		}
		if job.Result.SketchCached != wantCached {
			t.Fatalf("job %s: sketch_cached = %v, want %v", jobID, job.Result.SketchCached, wantCached)
		}
		if len(prefixes) == 0 || !slices.Equal(prefixes[len(prefixes)-1], job.Result.SeedOrder) {
			t.Fatalf("job %s: prefix events %v do not end at the result's seed order %v", jobID, prefixes, job.Result.SeedOrder)
		}
		return prefixes
	}

	cold := run(false)
	if len(cold) < 2 {
		t.Fatalf("saw %d select-stage prefix events, want >= 2 (chunk + final): %v", len(cold), cold)
	}
	for i := 1; i < len(cold); i++ {
		prev, cur := cold[i-1], cold[i]
		if len(cur) < len(prev) || !slices.Equal(cur[:len(prev)], prev) {
			t.Fatalf("prefix %d not an extension: %v -> %v", i, prev, cur)
		}
	}
	if warm := run(true); !slices.EqualFunc(warm, cold, slices.Equal[[]int64]) {
		t.Fatalf("warm job streamed prefixes %v, the cold job that built the sketch %v", warm, cold)
	}
}

// TestTelemetryOff checks the kill switch: jobs run, /v1/metrics still
// answers, but no histograms accumulate and no trace ids are minted
// into responses' bodies beyond the (still present) header echo.
func TestTelemetryOff(t *testing.T) {
	e := newEnv(t, service.Options{Workers: 2, TelemetryOff: true})
	id := e.registerGraph(t)

	jobID := e.submit(t, "/v1/allocate", service.AllocateRequest{
		GraphID: id, Budgets: []int{3, 3}, Runs: 1000,
	})
	var job allocJobView
	e.waitJob(t, jobID, &job)
	if job.State != service.JobDone {
		t.Fatalf("job ended %q: %s", job.State, job.Error)
	}

	var export telemetry.Export
	e.doJSON("GET", "/v1/metrics?format=json", nil, &export, http.StatusOK)
	if len(export.Histograms) != 0 {
		t.Errorf("telemetry off but %d histogram series accumulated: %+v", len(export.Histograms), export.Histograms)
	}
	var view service.JobView
	e.doJSON("GET", "/v1/jobs/"+jobID, nil, &view, http.StatusOK)
	if len(view.Stages) != 0 {
		t.Errorf("telemetry off but job carries stages: %v", view.Stages)
	}
}
