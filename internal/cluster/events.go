package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"

	"uicwelfare/internal/journal"
	"uicwelfare/internal/service"
	"uicwelfare/internal/telemetry"
)

// The router half of the flight recorder's query surface. GET /v1/events
// on the router merges the router's own journal (membership transitions,
// ownership flips, sketch ships, sweep scheduling) with every live
// shard's journal (cache churn, admission decisions, job spill/replay)
// into one time-ordered stream, so a failover reads as a single
// narrative: member_down, ownership_flip, sketch_ship, then the new
// owner's cache imports — one query, no per-shard stitching.

// ClusterEventsResponse is the router's GET /v1/events body. Cursors
// are recorder-local sequence numbers, so the merged stream's cursor is
// composite: "router:4,b0:12,b1:9". Passing it back as ?cursor= resumes
// every journal exactly where the page ended.
type ClusterEventsResponse struct {
	Events     []journal.Event   `json:"events"`
	NextCursor string            `json:"next_cursor"`
	Partial    bool              `json:"partial,omitempty"`
	Errors     map[string]string `json:"errors,omitempty"`
}

// handleEvents implements the router's GET /v1/events: the merged,
// time-ordered, cursor-paginated view over the router's and every live
// shard's journal, with the same type/graph/node/trace/since filters as
// the backend form. ?stream=1 (or Accept: text/event-stream) switches
// to a live SSE tail fanned in from every journal. A dead shard
// contributes nothing but an entry in "errors" with "partial": true —
// the cluster's history stays readable while a shard is down, which is
// exactly when it is needed.
func (r *Router) handleEvents(w http.ResponseWriter, req *http.Request) {
	values := req.URL.Query()
	cursor, err := parseMergedCursor(values.Get("cursor"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	values.Del("cursor")
	q, err := service.ParseEventQuery(values)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if service.WantsEventStream(req) {
		r.streamMergedEvents(w, req, q, values, cursor)
		return
	}
	limit := q.Limit
	if limit <= 0 {
		limit = journal.DefaultLimit
	}
	page := mergePages(values, cursor, min(limit, journal.MaxLimit), r.members.Snapshot(),
		func(src string, vals url.Values) ([]journal.Event, uint64, error) {
			if src == routerNode {
				own, err := service.ParseEventQuery(vals)
				events, next := r.flight.Events(own)
				return events, next, err
			}
			var resp service.EventsResponse
			err := r.getJSON(req.Context(), src, "/v1/events", vals, &resp)
			return resp.Events, resp.NextCursor, err
		},
		func(e *journal.Event) (time.Time, uint64) { return e.TS, e.Seq })
	writeJSON(w, http.StatusOK, ClusterEventsResponse{
		Events:     page.items,
		NextCursor: page.cursor,
		Partial:    len(page.errs) > 0,
		Errors:     page.errs,
	})
}

// streamMergedEvents serves the router's SSE live tail: the router's own
// retained events first (after the client's cursor), then a fan-in of
// live events from its own journal and every live shard's SSE tail.
// Cross-source ordering is arrival order — exact ordering is the query
// form's job; the tail's job is latency.
func (r *Router) streamMergedEvents(w http.ResponseWriter, req *http.Request, q journal.Query, values url.Values, cursor mergedCursor) {
	ctx, cancel := context.WithCancel(req.Context())
	defer cancel()
	// Shard tails block on a full channel rather than drop, so the depth
	// only has to absorb a burst between two writes to the client.
	ch := make(chan journal.Event, 256)
	for _, name := range r.members.Alive() {
		vals := sourceValues(values, cursor.of(name), 0)
		vals.Set("stream", "1")
		go r.tailBackendEvents(ctx, name, vals, ch)
	}
	q.After = cursor.of(routerNode)
	service.StreamEvents(w, req.WithContext(ctx), r.flight, q, ch)
}

// tailBackendEvents opens one shard's SSE event tail and forwards every
// decoded event into ch until ctx ends or the stream breaks (a dead
// shard simply stops contributing; the client reconnects with its cursor
// to pick up whatever the shard's ring retained).
func (r *Router) tailBackendEvents(ctx context.Context, name string, vals url.Values, ch chan<- journal.Event) {
	base, ok := r.members.URLOf(name)
	if !ok {
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/events?"+vals.Encode(), nil)
	if err != nil {
		return
	}
	if r.token != "" {
		req.Header.Set(service.ClusterTokenHeader, r.token)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var e journal.Event
		if err := json.Unmarshal([]byte(data), &e); err != nil {
			continue
		}
		select {
		case ch <- e:
		case <-ctx.Done():
			return
		}
	}
}

// --- placement introspection -------------------------------------------

// PlacementNode is one backend's standing for a graph in the placement
// view: its HRW preference rank (0 = first choice), liveness, whether it
// is the cataloged owner, and what it actually holds right now.
type PlacementNode struct {
	Node  string `json:"node"`
	Rank  int    `json:"rank"`
	Alive bool   `json:"alive"`
	Owner bool   `json:"owner"`
	// Resident reports whether the graph is registered on the node at
	// this moment (mid-rebalance a graph can be resident on two nodes, or
	// on none that is alive); ResidentSketches is the node's cached
	// sketch count for it.
	Resident         bool `json:"resident"`
	ResidentSketches int  `json:"resident_sketches,omitempty"`
}

// PlacementResponse is GET /v1/cluster/placement/{graph_id}: why a graph
// lives where it lives — the full HRW rank order over the topology, the
// cataloged owner, per-node residency, and the graph's ownership history
// (flips, ships, failed rebalances) from the router's journal.
type PlacementResponse struct {
	GraphID   string `json:"graph_id"`
	Name      string `json:"name,omitempty"`
	Cataloged bool   `json:"cataloged"`
	// Owner is the cataloged owner; HRWOwner is where HRW places the
	// graph among the currently-live backends. They differ only while a
	// rebalance is pending.
	Owner    string            `json:"owner,omitempty"`
	HRWOwner string            `json:"hrw_owner,omitempty"`
	Nodes    []PlacementNode   `json:"nodes"`
	History  []journal.Event   `json:"history"`
	Partial  bool              `json:"partial,omitempty"`
	Errors   map[string]string `json:"errors,omitempty"`
}

// handlePlacement implements GET /v1/cluster/placement/{graph_id}.
func (r *Router) handlePlacement(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("graph_id")
	r.mu.Lock()
	rec := r.catalog[id]
	var name, owner string
	if rec != nil {
		name, owner = rec.name, rec.owner
	}
	r.mu.Unlock()

	all := make([]string, 0, len(r.members.Snapshot()))
	aliveSet := map[string]bool{}
	for _, st := range r.members.Snapshot() {
		all = append(all, st.Name)
		aliveSet[st.Name] = st.Healthy
	}
	ranked := Rank(all, id)
	hrwOwner, _ := Owner(r.members.Alive(), id)

	// Residency is asked of every live backend directly — the catalog
	// says where the graph should be, the shards say where it is.
	type residency struct {
		resident bool
		sketches int
	}
	res := map[string]residency{}
	errs := map[string]string{}
	for _, fr := range r.fanout(req.Context(), http.MethodGet, "/v1/graphs/"+id) {
		if fr.err != nil {
			errs[fr.backend] = fr.err.Error()
			continue
		}
		if fr.status == http.StatusNotFound {
			continue
		}
		if fr.status != http.StatusOK {
			errs[fr.backend] = fmt.Sprintf("status %d", fr.status)
			continue
		}
		var gi service.GraphInfo
		if err := json.Unmarshal(fr.body, &gi); err != nil {
			errs[fr.backend] = err.Error()
			continue
		}
		res[fr.backend] = residency{resident: true, sketches: gi.ResidentSketches}
	}

	nodes := make([]PlacementNode, 0, len(ranked))
	for i, n := range ranked {
		nodes = append(nodes, PlacementNode{
			Node:             n,
			Rank:             i,
			Alive:            aliveSet[n],
			Owner:            n == owner,
			Resident:         res[n].resident,
			ResidentSketches: res[n].sketches,
		})
	}
	history, _ := r.flight.Events(journal.Query{Graph: id, Limit: journal.MaxLimit})
	if history == nil {
		history = []journal.Event{}
	}
	out := PlacementResponse{
		GraphID:   id,
		Name:      name,
		Cataloged: rec != nil,
		Owner:     owner,
		HRWOwner:  hrwOwner,
		Nodes:     nodes,
		History:   history,
	}
	if len(errs) > 0 {
		out.Partial = true
		out.Errors = errs
	}
	writeJSON(w, http.StatusOK, out)
}

// edgeTraceID resolves the trace id a router-minted journal event should
// carry: the context's trace when one is attached, else empty.
func edgeTraceID(ctx context.Context) string {
	if tr := telemetry.FromContext(ctx); tr != nil {
		return tr.ID()
	}
	return ""
}
