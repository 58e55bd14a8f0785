package cluster_test

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"uicwelfare/internal/cluster"
	"uicwelfare/internal/resolve"
	"uicwelfare/internal/service"
)

// TestAdmissionRejectRelaysThroughRouter drives the admission-control
// 429 path through the cluster tier: a backend refusing a request whose
// predicted sketch cost blows its -admission-mb budget must surface to
// the client through the router with the same status and retryable
// body, and the router's stats must aggregate the per-shard
// admission_rejects counters.
func TestAdmissionRejectRelaysThroughRouter(t *testing.T) {
	backends := []*backend{
		startBackendAt(t, "b0", "127.0.0.1:0", service.Options{AdmissionMB: 1, BatchWindow: 5 * time.Millisecond}),
		startBackendAt(t, "b1", "127.0.0.1:0", service.Options{AdmissionMB: 1, BatchWindow: 5 * time.Millisecond}),
	}
	rt, c := newCluster(t, backends, cluster.Options{ProbeInterval: time.Hour, ProxyTimeout: 10 * time.Second})
	defer rt.Close()
	rt.Sync(syncCtx())

	info := c.registerLine(200)

	// ε at the floor prices the sketch two orders of magnitude past the
	// backends' 1MB admission budget.
	status, raw := c.do("POST", "/v1/allocate",
		service.AllocateRequest{GraphID: info.ID, Budgets: []int{10, 10}, Eps: 0.05})
	if status != http.StatusTooManyRequests {
		t.Fatalf("expensive allocate through router: status %d, want 429: %s", status, raw)
	}
	var body struct {
		Error         string `json:"error"`
		Retryable     bool   `json:"retryable"`
		EstimatedCost int64  `json:"estimated_cost"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	if !body.Retryable || body.EstimatedCost <= 1<<20 {
		t.Fatalf("429 body through router lost the retryable contract: %s", raw)
	}

	// Sanely-priced requests on the same graph clear admission and
	// complete end to end; the second, wider one extends the first's
	// resident sketch.
	for _, budgets := range [][]int{{3, 3}, {6, 6}} {
		view := c.waitJob(c.submit("/v1/allocate",
			service.AllocateRequest{GraphID: info.ID, Budgets: budgets}))
		if view.State != service.JobDone {
			t.Fatalf("cheap allocate %v: %s (%s)", budgets, view.State, view.Error)
		}
	}

	// The router's cluster summary aggregates the shards' admission,
	// batching and extend counters.
	var stats struct {
		Cluster struct {
			AdmissionRejects  int64 `json:"admission_rejects"`
			Batched           int64 `json:"batched"`
			HeldGroups        int64 `json:"held_groups"`
			CoalescedRequests int64 `json:"coalesced_requests"`
			SketchExtends     int64 `json:"sketch_extends"`
		} `json:"cluster"`
		Backends map[string]service.StatsResponse `json:"backends"`
	}
	c.doJSON("GET", "/v1/stats", nil, &stats, http.StatusOK)
	if stats.Cluster.AdmissionRejects != 1 {
		t.Fatalf("cluster admission_rejects = %d, want 1", stats.Cluster.AdmissionRejects)
	}
	if stats.Cluster.Batched < 1 {
		t.Fatalf("cluster batched = %d, want >= 1 (the cheap allocate's build)", stats.Cluster.Batched)
	}
	if stats.Cluster.SketchExtends < 1 {
		t.Fatalf("cluster sketch_extends = %d, want >= 1 (the wider allocate's extend)", stats.Cluster.SketchExtends)
	}
	var perShard resolve.BatchStats
	for _, st := range stats.Backends {
		perShard.AdmissionRejects += st.Batch.AdmissionRejects
		perShard.Batched += st.Batch.Batched
		perShard.HeldGroups += st.Batch.HeldGroups
		perShard.CoalescedRequests += st.Batch.CoalescedRequests
		perShard.SketchExtends += st.Batch.SketchExtends
	}
	for _, sum := range []struct {
		name           string
		shards, router int64
	}{
		{"admission_rejects", perShard.AdmissionRejects, stats.Cluster.AdmissionRejects},
		{"batched", perShard.Batched, stats.Cluster.Batched},
		{"held_groups", perShard.HeldGroups, stats.Cluster.HeldGroups},
		{"coalesced_requests", perShard.CoalescedRequests, stats.Cluster.CoalescedRequests},
		{"sketch_extends", perShard.SketchExtends, stats.Cluster.SketchExtends},
	} {
		if sum.shards != sum.router {
			t.Errorf("per-shard %s sum %d != cluster aggregate %d", sum.name, sum.shards, sum.router)
		}
	}
}
