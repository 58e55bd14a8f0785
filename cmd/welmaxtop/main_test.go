package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"uicwelfare/internal/telemetry"
)

// buckets is a histogram's 32 bucket counts with count n at index i for
// each (i, n) pair; bucket i holds observations up to 2^i µs.
func buckets(pairs ...int64) []int64 {
	out := make([]int64, telemetry.NumBuckets)
	for j := 0; j+1 < len(pairs); j += 2 {
		out[pairs[j]] = pairs[j+1]
	}
	return out
}

// cannedExport is a /v1/metrics?format=json body as a router serves it:
// two routes, one job kind with slow-trace exemplars, per-node gauges
// the board sums, and per-kind resource totals.
var cannedExport = telemetry.Export{
	Histograms: []telemetry.HistSnapshot{
		{
			Name:       "welmax_http_request_duration_seconds",
			Labels:     []telemetry.Label{{Name: "route", Value: "GET /v1/jobs/{id}"}},
			Count:      100,
			SumSeconds: 0.05,
			Buckets:    buckets(9, 90, 10, 10),
			Exemplars:  []telemetry.Exemplar{{Bucket: 10, TraceID: "t-get", Seconds: 0.0009}},
		},
		{
			Name:       "welmax_http_request_duration_seconds",
			Labels:     []telemetry.Label{{Name: "route", Value: "POST /v1/allocate"}},
			Count:      40,
			SumSeconds: 0.2,
			Buckets:    buckets(12, 30, 17, 10),
		},
		{
			Name:       "welmax_job_duration_seconds",
			Labels:     []telemetry.Label{{Name: "kind", Value: "allocate"}},
			Count:      40,
			SumSeconds: 1.5,
			Buckets:    buckets(12, 30, 17, 10),
			Exemplars: []telemetry.Exemplar{
				{Bucket: 12, TraceID: "t-fast", Seconds: 0.004},
				{Bucket: 17, TraceID: "t-slow", Seconds: 0.1234},
			},
		},
		{Name: "welmax_http_request_duration_seconds", Labels: []telemetry.Label{{Name: "route", Value: "GET /v1/stats"}}},
	},
	Gauges: []telemetry.Gauge{
		{Name: "welmax_graphs", Labels: []telemetry.Label{{Name: "node", Value: "b0"}}, Value: 1},
		{Name: "welmax_graphs", Labels: []telemetry.Label{{Name: "node", Value: "b1"}}, Value: 2},
		{Name: "welmax_jobs_queue_depth", Value: 0},
		{Name: "welmax_sketch_cache_hits", Value: 12345},
		{Name: "welmax_sketch_cache_misses", Value: 7},
		{Name: "welmax_admission_rejects", Value: 3},
		{Name: "welmax_cost_ratio_global", Value: 0.04},
		{Name: "welmax_trace_ring_depth", Value: 2.5e6},
		{Name: "welmax_resource_total", Labels: []telemetry.Label{{Name: "kind", Value: "rr_sets_grown"}}, Value: 17300},
		{Name: "welmax_resource_total", Labels: []telemetry.Label{{Name: "kind", Value: "cache_hits"}}, Value: 4},
		{Name: "welmax_resource_total", Labels: []telemetry.Label{{Name: "node", Value: "b1"}, {Name: "kind", Value: "cache_hits"}}, Value: 1},
	},
}

// cannedEvents is a router's merged /v1/events page (string cursor, one
// shard unreadable).
const cannedEvents = `{"events":[
{"seq":1,"ts":"2026-01-02T03:04:05.006Z","type":"batch_fire","node":"b0","graph":"g0123456789abcdef","trace_id":"t-fast","key":"g0123456789abcdef|prima","count":7,"wait_ms":95,"reason":"build_done"},
{"seq":2,"ts":"2026-01-02T03:04:06.5Z","type":"admission_reject","node":"b1","graph":"g0123456789abcdef","trace_id":"t-slow","bytes":52428800},
{"seq":1,"ts":"2026-01-02T03:04:07Z","type":"ownership_flip","node":"router","graph":"g0123456789abcdef","from":"b0","to":"b1","reason":"member_down"}
],"next_cursor":"b0:1,b1:2,router:1","partial":true,"errors":{"b2":"backend down"}}`

// cannedTrace is a router's cross-tier /v1/traces/{id} assembly: the
// router's proxy span over the owning shard's job, one grandchild, and
// a backend-fragment span whose parent is not in the tree.
const cannedTrace = `{"trace_id":"t-slow","route":"allocate","graph":"g0123456789abcdef","duration_ms":123.4,"kept":"slow","spans":[
{"id":"s1","stage":"proxy","start_unix_ns":1000000000,"duration_ms":120,"node":"router"},
{"id":"s2","parent":"s1","stage":"allocate","start_unix_ns":1010000000,"duration_ms":100,"node":"b1"},
{"id":"s3","parent":"s2","stage":"rrset_grow_parallel","start_unix_ns":1030000000,"duration_ms":60,"node":"b1","resources":{"rr_sets_grown":17300}},
{"id":"s4","parent":"gone","stage":"sketch_spill","start_unix_ns":1100000000,"duration_ms":0.01,"node":"b1"}
],"resources":{"cache_misses":1,"rr_sets_grown":17300},"partial":true,"errors":{"b2":"backend down"}}`

func cannedServer(t *testing.T) *httptest.Server {
	t.Helper()
	metrics, err := json.Marshal(cannedExport)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") != "json" {
			t.Errorf("metrics fetched without format=json: %s", r.URL)
		}
		_, _ = w.Write(metrics)
	})
	mux.HandleFunc("GET /v1/events", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("stream") != "" {
			t.Errorf("the -once frame opened the event stream: %s", r.URL)
		}
		_, _ = w.Write([]byte(cannedEvents))
	})
	mux.HandleFunc("GET /v1/traces/{id}", func(w http.ResponseWriter, r *http.Request) {
		if r.PathValue("id") != "t-slow" {
			http.NotFound(w, r)
			return
		}
		_, _ = w.Write([]byte(cannedTrace))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// headerClock is the wall-clock time the frame header shows.
var headerClock = regexp.MustCompile(`^(welmaxtop  \S+  )\d\d:\d\d:\d\d`)

const onceGolden = `welmaxtop  http://welmaxd  HH:MM:SS  events:poll
  ! events[b2]: backend down

ROUTE                                      REQS    REQ/S       AVG       P95
GET /v1/jobs/{id}                           100      0.0      0.5ms      1.0ms
POST /v1/allocate                            40      0.0      5.0ms    131.1ms

graphs                                      3   jobs_queue_depth                            0
sketch_cache_hits                       12.3k   sketch_cache_misses                         7
admission_rejects                           3   trace_ring_depth                         2.5M
resources:  cache_hits=5  rr_sets_grown=17.3k

SLOW TRACES (type number + Enter for waterfall, 0 clears)
  [1] job:allocate                           123.4ms  trace=t-slow
  [2] GET /v1/jobs/{id}                        0.9ms  trace=t-get

EVENTS (last 15)
03:04:05.006  batch_fire         node=b0 graph=g0123456789abcdef n=7 wait=95ms reason=build_done trace=t-fast
03:04:06.500  admission_reject   node=b1 graph=g0123456789abcdef bytes=52428800 trace=t-slow
03:04:07.000  ownership_flip     node=router graph=g0123456789abcdef b0→b1 reason=member_down
`

const waterfallGolden = `TRACE t-slow  route=allocate  graph=g0123456789abcdef  123.4ms  (partial)
  router:proxy                             |################################|    120.00ms
    b1:allocate                            |  ##########################    |    100.00ms
      b1:rrset_grow_parallel               |        ################        |     60.00ms
  b1:sketch_spill                          |                          #     |      0.01ms
  resources:  cache_misses=1  rr_sets_grown=17300
`

// TestOnceFrameGolden renders the -once frame (one refresh without the
// SSE tail, one plain render) against canned endpoint bodies.
func TestOnceFrameGolden(t *testing.T) {
	srv := cannedServer(t)
	c := &console{base: srv.URL, client: srv.Client(), streamClient: srv.Client(), tail: 15}
	c.refresh(false)
	if !c.metricsOK {
		t.Fatalf("metrics not read: %v", c.lastErrs)
	}
	if c.cursor != "b0:1,b1:2,router:1" {
		t.Errorf("events cursor = %q, want the router's composite cursor verbatim", c.cursor)
	}
	var b strings.Builder
	c.render(&b, false)
	got := strings.Replace(b.String(), srv.URL, "http://welmaxd", 1)
	got = headerClock.ReplaceAllString(got, "${1}HH:MM:SS")
	if got != onceGolden {
		t.Errorf("-once frame differs from the golden.\ngot:\n%s\nwant:\n%s", got, onceGolden)
	}
}

// TestTraceWaterfallGolden renders the -trace output for a canned
// cross-tier trace.
func TestTraceWaterfallGolden(t *testing.T) {
	srv := cannedServer(t)
	c := &console{base: srv.URL, client: srv.Client()}
	tree, err := c.fetchTrace("t-slow")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	renderWaterfall(&b, tree)
	if got := b.String(); got != waterfallGolden {
		t.Errorf("waterfall differs from the golden.\ngot:\n%s\nwant:\n%s", got, waterfallGolden)
	}
	if _, err := c.fetchTrace("t-missing"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("missing trace: err = %v, want the 404", err)
	}
}
