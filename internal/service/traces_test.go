package service_test

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"uicwelfare/internal/batch"
	"uicwelfare/internal/journal"
	"uicwelfare/internal/service"
	"uicwelfare/internal/telemetry"
)

// tracedAllocate runs one allocate with an explicit trace id and waits
// for the job, returning its terminal view.
func tracedAllocate(t *testing.T, e *env, graphID, traceID string) service.JobView {
	t.Helper()
	body, err := json.Marshal(service.AllocateRequest{GraphID: graphID, Budgets: []int{4, 4}, Runs: 2000})
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
	var ack struct {
		JobID string `json:"job_id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("allocate: status %d, err %v", resp.StatusCode, err)
	}
	var view service.JobView
	e.waitJob(t, ack.JobID, &view)
	if view.State != service.JobDone {
		t.Fatalf("job ended %q: %s", view.State, view.Error)
	}
	return view
}

// TestTracesEndpoint covers the backend tier's trace surface: a
// completed allocate lands in GET /v1/traces (summary form, filters,
// cursor), its full span tree comes back from GET /v1/traces/{id} with
// resource totals matching the job view, and the journal events its
// request triggered are retrievable via GET /v1/events?trace=.
func TestTracesEndpoint(t *testing.T) {
	e := newEnv(t, service.Options{
		Workers: 2, TraceSampleAll: true, BatchWindow: 5 * time.Millisecond,
	})
	id := e.registerGraph(t)
	const traceID = "trace-store-e2e-1"
	view := tracedAllocate(t, e, id, traceID)

	var page service.TracesResponse
	e.doJSON("GET", "/v1/traces?route=allocate", nil, &page, http.StatusOK)
	found := false
	for _, r := range page.Traces {
		if r.TraceID == traceID {
			found = true
			if r.Route != "allocate" || r.Graph != id {
				t.Errorf("record route/graph = %q/%q, want allocate/%s", r.Route, r.Graph, id)
			}
			if r.Kept == "" {
				t.Error("record carries no keep reason")
			}
			if r.Spans != nil {
				t.Error("list view leaked span records")
			}
			if r.DurationMS <= 0 {
				t.Errorf("record duration %.3fms", r.DurationMS)
			}
		}
	}
	if !found {
		t.Fatalf("trace %s not in /v1/traces page: %+v", traceID, page.Traces)
	}
	if page.NextCursor == 0 {
		t.Error("page has no resume cursor")
	}

	// Filters exclude it; bad parameters are rejected.
	var filtered service.TracesResponse
	e.doJSON("GET", "/v1/traces?route=warm", nil, &filtered, http.StatusOK)
	for _, r := range filtered.Traces {
		if r.TraceID == traceID {
			t.Error("route filter leaked the allocate trace")
		}
	}
	e.doJSON("GET", "/v1/traces?min_ms=9000000", nil, &filtered, http.StatusOK)
	if len(filtered.Traces) != 0 {
		t.Errorf("min_ms filter kept %d traces", len(filtered.Traces))
	}
	if status, _ := e.do("GET", "/v1/traces?cursor=banana", nil); status != http.StatusBadRequest {
		t.Errorf("bad cursor: status %d, want 400", status)
	}

	// The full tree: named spans, start-sorted, totals matching the job.
	var tree service.TraceTreeResponse
	e.doJSON("GET", "/v1/traces/"+traceID, nil, &tree, http.StatusOK)
	if len(tree.Spans) < 4 {
		t.Fatalf("tree has %d spans, want >= 4: %+v", len(tree.Spans), tree.Spans)
	}
	stages := map[string]bool{}
	for i, sp := range tree.Spans {
		stages[sp.Stage] = true
		if sp.ID == "" || sp.DurationMS < 0 {
			t.Errorf("span %d malformed: %+v", i, sp)
		}
		if i > 0 && sp.StartUnixNS < tree.Spans[i-1].StartUnixNS {
			t.Errorf("spans not start-sorted at %d", i)
		}
	}
	for _, want := range []string{"cache_lookup", "greedy_select"} {
		if !stages[want] {
			t.Errorf("tree missing %q span (have %v)", want, stages)
		}
	}
	// One-worker grows emit rrset_grow, multi-worker ones (GOMAXPROCS >
	// 1) emit rrset_grow_parallel; the tree must carry one of the two.
	if !stages["rrset_grow"] && !stages["rrset_grow_parallel"] {
		t.Errorf("tree missing the rrset_grow / rrset_grow_parallel span (have %v)", stages)
	}
	for kind, want := range view.Resources {
		if got := tree.Resources[kind]; got != want {
			t.Errorf("tree resources[%s] = %d, want job view's %d", kind, got, want)
		}
	}

	if status, _ := e.do("GET", "/v1/traces/no-such-trace", nil); status != http.StatusNotFound {
		t.Errorf("unknown trace: status %d, want 404", status)
	}

	// The request's journal fallout is greppable by trace id: the cold
	// allocate's sketch build went through the batcher, and the fired
	// group carries the opening request's trace — a lone miss, so it
	// fired unheld.
	var events struct {
		Events []journal.Event `json:"events"`
	}
	e.doJSON("GET", "/v1/events?trace="+traceID, nil, &events, http.StatusOK)
	if len(events.Events) == 0 {
		t.Fatal("no journal events filtered by trace id")
	}
	sawBatch := false
	for _, ev := range events.Events {
		if ev.TraceID != traceID {
			t.Errorf("trace filter leaked event %+v", ev)
		}
		if ev.Type == journal.BatchFire {
			sawBatch = true
			if ev.Reason != batch.FireIdle || ev.WaitMS != 0 || ev.Count != 1 {
				t.Errorf("lone miss journaled as %+v, want an unheld idle fire of 1", ev)
			}
		}
	}
	if !sawBatch {
		t.Errorf("no batch_fire among traced events: %+v", events.Events)
	}
}

// TestTracesTelemetryOff checks the trace surface degrades cleanly with
// telemetry off: the list is empty, lookups 404, nothing panics.
func TestTracesTelemetryOff(t *testing.T) {
	e := newEnv(t, service.Options{Workers: 2, TelemetryOff: true})
	id := e.registerGraph(t)
	view := tracedAllocate(t, e, id, "trace-off-1")

	var page service.TracesResponse
	e.doJSON("GET", "/v1/traces", nil, &page, http.StatusOK)
	if len(page.Traces) != 0 {
		t.Errorf("telemetry off but %d traces retained", len(page.Traces))
	}
	if status, _ := e.do("GET", "/v1/traces/trace-off-1", nil); status != http.StatusNotFound {
		t.Errorf("telemetry-off lookup: status %d, want 404", status)
	}
	if len(view.Resources) != 0 {
		t.Errorf("telemetry off but job carries resources: %v", view.Resources)
	}
}
