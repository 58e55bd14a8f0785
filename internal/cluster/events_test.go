package cluster_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"uicwelfare/internal/cluster"
	"uicwelfare/internal/journal"
	"uicwelfare/internal/service"
)

// eventsResp mirrors cluster.ClusterEventsResponse for decoding.
type eventsResp struct {
	Events     []journal.Event   `json:"events"`
	NextCursor string            `json:"next_cursor"`
	Partial    bool              `json:"partial"`
	Errors     map[string]string `json:"errors"`
}

// eventKey identifies one journal event within one source journal —
// Seq alone is only unique per recorder, so the node stamp (every
// event in these tests carries one) disambiguates across shards.
func eventKey(e journal.Event) string {
	return fmt.Sprintf("%s/%d/%s/%s", e.Node, e.Seq, e.Type, e.TS.Format(time.RFC3339Nano))
}

// TestClusterEventsMergedAcrossShards records interleaved events into
// two shards' journals and checks the router's GET /v1/events returns
// one time-ordered merge with a composite per-source cursor, and that
// walking that cursor with a small page size reproduces the same
// history without duplicates or gaps.
func TestClusterEventsMergedAcrossShards(t *testing.T) {
	b0 := startBackendAt(t, "b0", "127.0.0.1:0", service.Options{Workers: 1})
	b1 := startBackendAt(t, "b1", "127.0.0.1:0", service.Options{Workers: 1})
	rt, cl := newCluster(t, []*backend{b0, b1}, cluster.Options{})
	defer rt.Close()
	rt.Sync(syncCtx())

	// Interleave records across the shards; each sleep keeps the stamps
	// strictly increasing so the expected merge order is unambiguous.
	shards := []*backend{b0, b1}
	const perShard = 3
	want := map[string]bool{}
	for i := 0; i < 2*perShard; i++ {
		b := shards[i%2]
		e := journal.Event{Type: journal.CacheEvict, Graph: fmt.Sprintf("g%d", i), Key: fmt.Sprintf("g%d|k", i)}
		b.svc.Journal().Record(e)
		time.Sleep(2 * time.Millisecond)
	}
	for i := 0; i < 2*perShard; i++ {
		want[fmt.Sprintf("g%d", i)] = false
	}

	var resp eventsResp
	cl.doJSON("GET", "/v1/events?limit=1000", nil, &resp, http.StatusOK)
	if resp.Partial {
		t.Fatalf("partial merge with all shards up: %v", resp.Errors)
	}
	for i := 1; i < len(resp.Events); i++ {
		if resp.Events[i].TS.Before(resp.Events[i-1].TS) {
			t.Fatalf("merge not time-ordered at %d: %v after %v",
				i, resp.Events[i].TS, resp.Events[i-1].TS)
		}
	}
	for _, e := range resp.Events {
		if _, ok := want[e.Graph]; ok && e.Type == journal.CacheEvict {
			want[e.Graph] = true
		}
	}
	for g, seen := range want {
		if !seen {
			t.Errorf("recorded event for %s missing from merged page", g)
		}
	}
	// The router's own journal contributes the member_up transitions
	// from the Sync above, so all three sources appear in the cursor.
	for _, src := range []string{"router:", "b0:", "b1:"} {
		if !strings.Contains(resp.NextCursor, src) {
			t.Errorf("next_cursor %q missing source %q", resp.NextCursor, src)
		}
	}

	// Paged walk: same history, two events at a time, no duplicates.
	seen := map[string]bool{}
	var walked []journal.Event
	cursor := ""
	for i := 0; i < 50; i++ {
		path := "/v1/events?limit=2"
		if cursor != "" {
			path += "&cursor=" + cursor
		}
		var page eventsResp
		cl.doJSON("GET", path, nil, &page, http.StatusOK)
		if len(page.Events) == 0 {
			break
		}
		for _, e := range page.Events {
			if k := eventKey(e); seen[k] {
				t.Fatalf("event %s returned twice across pages", k)
			} else {
				seen[k] = true
			}
			walked = append(walked, e)
		}
		cursor = page.NextCursor
	}
	if len(walked) != len(resp.Events) {
		t.Fatalf("paged walk returned %d events, single page returned %d", len(walked), len(resp.Events))
	}
	for i := range walked {
		if eventKey(walked[i]) != eventKey(resp.Events[i]) {
			t.Fatalf("paged walk diverges at %d: %s vs %s",
				i, eventKey(walked[i]), eventKey(resp.Events[i]))
		}
	}
}

// TestClusterEventsDeadShard kills one shard and checks the merged
// view stays readable: the live shard's and the router's own events
// come back, the response is marked partial, and the dead shard is
// named in errors rather than silently omitted.
func TestClusterEventsDeadShard(t *testing.T) {
	b0 := startBackendAt(t, "b0", "127.0.0.1:0", service.Options{Workers: 1})
	b1 := startBackendAt(t, "b1", "127.0.0.1:0", service.Options{Workers: 1})
	rt, cl := newCluster(t, []*backend{b0, b1}, cluster.Options{})
	defer rt.Close()
	rt.Sync(syncCtx())

	b0.svc.Journal().Record(journal.Event{Type: journal.CacheEvict, Graph: "galive", Key: "galive|k"})
	b1.svc.Journal().Record(journal.Event{Type: journal.CacheEvict, Graph: "gdead", Key: "gdead|k"})

	b1.kill()
	rt.Sync(syncCtx()) // prober marks b1 down, journals member_down

	var resp eventsResp
	cl.doJSON("GET", "/v1/events?limit=1000", nil, &resp, http.StatusOK)
	if !resp.Partial {
		t.Fatal("response not marked partial with a dead shard")
	}
	if _, ok := resp.Errors["b1"]; !ok {
		t.Fatalf("dead shard b1 not reported in errors: %v", resp.Errors)
	}
	var sawAlive, sawDead, sawDown bool
	for _, e := range resp.Events {
		switch {
		case e.Graph == "galive":
			sawAlive = true
		case e.Graph == "gdead":
			sawDead = true
		case e.Type == journal.MemberDown && e.Node == "b1":
			sawDown = true
		}
	}
	if !sawAlive {
		t.Error("live shard's event missing from merged page")
	}
	if sawDead {
		t.Error("dead shard's event returned after its death")
	}
	if !sawDown {
		t.Error("router journal missing member_down for the killed shard")
	}
}

// placementResp mirrors cluster.PlacementResponse for decoding.
type placementResp struct {
	GraphID   string `json:"graph_id"`
	Cataloged bool   `json:"cataloged"`
	Owner     string `json:"owner"`
	HRWOwner  string `json:"hrw_owner"`
	Nodes     []struct {
		Node     string `json:"node"`
		Rank     int    `json:"rank"`
		Alive    bool   `json:"alive"`
		Owner    bool   `json:"owner"`
		Resident bool   `json:"resident"`
	} `json:"nodes"`
	History []journal.Event `json:"history"`
}

// TestPlacementExplainsHRW registers a spread of graphs and checks the
// placement endpoint's explanation against the HRW functions directly:
// the reported rank order IS cluster.Rank, the owner IS cluster.Owner
// over the live set, and the owning node is flagged in the rank list.
func TestPlacementExplainsHRW(t *testing.T) {
	b0 := startBackendAt(t, "b0", "127.0.0.1:0", service.Options{Workers: 1})
	b1 := startBackendAt(t, "b1", "127.0.0.1:0", service.Options{Workers: 1})
	b2 := startBackendAt(t, "b2", "127.0.0.1:0", service.Options{Workers: 1})
	rt, cl := newCluster(t, []*backend{b0, b1, b2}, cluster.Options{})
	defer rt.Close()
	rt.Sync(syncCtx())
	names := []string{"b0", "b1", "b2"}

	owners := map[string]bool{}
	for n := 4; n < 12; n++ {
		info := cl.registerLine(n)

		var pl placementResp
		cl.doJSON("GET", "/v1/cluster/placement/"+info.ID, nil, &pl, http.StatusOK)
		if !pl.Cataloged {
			t.Fatalf("graph %s not cataloged", info.ID)
		}
		wantOwner, ok := cluster.Owner(names, info.ID)
		if !ok {
			t.Fatal("no HRW owner over a live topology")
		}
		if pl.HRWOwner != wantOwner {
			t.Errorf("graph %s: hrw_owner %s, want %s", info.ID, pl.HRWOwner, wantOwner)
		}
		if pl.Owner != wantOwner {
			t.Errorf("graph %s: cataloged owner %s, want HRW owner %s (all shards up)", info.ID, pl.Owner, wantOwner)
		}
		owners[pl.Owner] = true

		wantRank := cluster.Rank(names, info.ID)
		if len(pl.Nodes) != len(wantRank) {
			t.Fatalf("graph %s: %d placement nodes, want %d", info.ID, len(pl.Nodes), len(wantRank))
		}
		for i, node := range pl.Nodes {
			if node.Node != wantRank[i] || node.Rank != i {
				t.Errorf("graph %s: rank %d is %s(%d), want %s", info.ID, i, node.Node, node.Rank, wantRank[i])
			}
			if node.Owner != (node.Node == pl.Owner) {
				t.Errorf("graph %s: owner flag on %s disagrees with owner %s", info.ID, node.Node, pl.Owner)
			}
			if !node.Alive {
				t.Errorf("graph %s: node %s reported dead in a live topology", info.ID, node.Node)
			}
		}
		if top := pl.Nodes[0].Node; top != pl.HRWOwner {
			t.Errorf("graph %s: rank 0 is %s but hrw_owner is %s", info.ID, top, pl.HRWOwner)
		}
	}
	// Sanity for the property: HRW should have spread 8 graphs over >1 node.
	if len(owners) < 2 {
		t.Errorf("HRW placed every graph on one node: %v", owners)
	}
}

// TestClusterEventsTraceFilter checks ?trace= through the router: the
// filter must reach every shard's journal as well as the router's own,
// in the page form and in the live SSE tail. (The router used to
// re-encode the shard queries by hand and dropped it, so shards
// answered with every event they had.)
func TestClusterEventsTraceFilter(t *testing.T) {
	b0 := startBackendAt(t, "b0", "127.0.0.1:0", service.Options{Workers: 1})
	b1 := startBackendAt(t, "b1", "127.0.0.1:0", service.Options{Workers: 1})
	rt, cl := newCluster(t, []*backend{b0, b1}, cluster.Options{})
	defer rt.Close()
	rt.Sync(syncCtx())

	journals := map[string]*journal.Recorder{"router": rt.Journal(), "b0": b0.svc.Journal(), "b1": b1.svc.Journal()}
	for name, j := range journals {
		j.Record(journal.Event{Type: journal.CacheEvict, Graph: "noise-" + name, TraceID: "t-other"})
		j.Record(journal.Event{Type: journal.CacheEvict, Graph: "want-" + name, TraceID: "t-want"})
		j.Record(journal.Event{Type: journal.CacheExpire, Graph: "untraced-" + name})
	}
	wantGraphs := func(events []journal.Event) {
		t.Helper()
		got := map[string]bool{}
		for _, e := range events {
			if e.TraceID != "t-want" {
				t.Errorf("?trace=t-want returned %s event for graph %q with trace %q", e.Type, e.Graph, e.TraceID)
			}
			got[e.Graph] = true
		}
		for name := range journals {
			if !got["want-"+name] {
				t.Errorf("t-want event of %s missing (got %v)", name, got)
			}
		}
	}

	var page eventsResp
	cl.doJSON("GET", "/v1/events?trace=t-want&limit=1000", nil, &page, http.StatusOK)
	if len(page.Events) != len(journals) {
		t.Errorf("page holds %d events, want one per journal", len(page.Events))
	}
	wantGraphs(page.Events)

	// The live tail, asked for both ways: the replay carries the retained
	// matches (one more on the second round: the first round's live one),
	// then a live non-matching event on a shard must not come through
	// while the matching one after it does.
	for round, form := range []string{"stream=1", "accept"} {
		ctx, cancel := context.WithCancel(context.Background())
		path := "/v1/events?trace=t-want"
		if form == "stream=1" {
			path += "&stream=1"
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if form == "accept" {
			req.Header.Set("Accept", "text/event-stream")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		frames := make(chan journal.Event)
		go func() {
			defer close(frames)
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				data, ok := strings.CutPrefix(sc.Text(), "data: ")
				if !ok {
					continue
				}
				var e journal.Event
				if err := json.Unmarshal([]byte(data), &e); err != nil {
					t.Errorf("bad SSE data %q: %v", data, err)
					return
				}
				frames <- e
			}
		}()
		next := func() journal.Event {
			t.Helper()
			select {
			case e, ok := <-frames:
				if !ok {
					t.Fatalf("%s: stream ended early", form)
				}
				return e
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: no SSE frame within 10s", form)
			}
			panic("unreachable")
		}
		var replay []journal.Event
		for len(replay) < len(journals)+round {
			replay = append(replay, next())
		}
		wantGraphs(replay)
		b1.svc.Journal().Record(journal.Event{Type: journal.CacheEvict, Graph: "live-noise", TraceID: "t-other"})
		b1.svc.Journal().Record(journal.Event{Type: journal.CacheEvict, Graph: "live-want-" + form, TraceID: "t-want"})
		if e := next(); e.Graph != "live-want-"+form {
			t.Errorf("%s: live frame is %s/%s (trace %q), want only the t-want event", form, e.Type, e.Graph, e.TraceID)
		}
		cancel()
		resp.Body.Close()
		for range frames {
		}
	}
}
