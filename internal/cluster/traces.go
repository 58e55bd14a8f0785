package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"uicwelfare/internal/service"
	"uicwelfare/internal/tracestore"
)

// The router half of the trace store's query surface. GET /v1/traces on
// the router merges the router's own retained trace fragments (edge
// dispatch/proxy spans) with every live shard's, behind the same
// composite "node:seq" cursor GET /v1/events uses. GET /v1/traces/{id}
// assembles the cross-tier waterfall: every fragment recorded under the
// id — the router's and the owning backend's — grafted into one span
// tree via the parent ids X-Welmax-Span-Id propagation stitched in.

// ClusterTracesResponse is the router's GET /v1/traces body. Cursors
// are store-local sequence numbers, so the merged cursor is composite:
// "router:4,b0:12,b1:9".
type ClusterTracesResponse struct {
	Traces     []tracestore.Record `json:"traces"`
	NextCursor string              `json:"next_cursor"`
	Partial    bool                `json:"partial,omitempty"`
	Errors     map[string]string   `json:"errors,omitempty"`
}

// handleTraces implements the router's GET /v1/traces: the merged,
// time-ordered, cursor-paginated view over the router's and every live
// shard's retained trace summaries, with the same route/graph/min_ms/
// since filters as the backend form. A dead shard contributes nothing
// but an entry in "errors" with "partial": true.
func (r *Router) handleTraces(w http.ResponseWriter, req *http.Request) {
	values := req.URL.Query()
	cursor, err := parseMergedCursor(values.Get("cursor"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	values.Del("cursor")
	q, err := service.ParseTraceQuery(values)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	limit := q.Limit
	if limit <= 0 {
		limit = tracestore.DefaultLimit
	}
	page := mergePages(values, cursor, min(limit, tracestore.MaxLimit), r.members.Snapshot(),
		func(src string, vals url.Values) ([]tracestore.Record, uint64, error) {
			if src == routerNode {
				own, err := service.ParseTraceQuery(vals)
				records, next := r.traces.Traces(own)
				return records, next, err
			}
			var resp service.TracesResponse
			err := r.getJSON(req.Context(), src, "/v1/traces", vals, &resp)
			return resp.Traces, resp.NextCursor, err
		},
		func(rec *tracestore.Record) (time.Time, uint64) { return rec.Start, rec.Seq })
	writeJSON(w, http.StatusOK, ClusterTracesResponse{
		Traces:     page.items,
		NextCursor: page.cursor,
		Partial:    len(page.errs) > 0,
		Errors:     page.errs,
	})
}

// handleTraceGet implements the router's GET /v1/traces/{id}: the
// cross-tier waterfall. Every live shard (and the router's own store)
// is asked for its fragment of the id; all fragments found are grafted
// into one tree — the backend's spans carry the router's proxy span as
// their parent, so the assembly is pure concatenation plus a sort. 404
// means no store anywhere retained the id.
func (r *Router) handleTraceGet(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	var fragments []tracestore.Record
	if rec, ok := r.traces.Get(id); ok {
		fragments = append(fragments, rec)
	}
	errs := map[string]string{}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for _, name := range r.members.Alive() {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			status, body, err := r.call(req.Context(), http.MethodGet, name, "/v1/traces/"+url.PathEscape(id), nil)
			if err != nil {
				mu.Lock()
				errs[name] = err.Error()
				mu.Unlock()
				return
			}
			if status == http.StatusNotFound {
				return // that shard never saw (or sampled out) the trace
			}
			if status != http.StatusOK {
				mu.Lock()
				errs[name] = fmt.Sprintf("status %d", status)
				mu.Unlock()
				return
			}
			var tree service.TraceTreeResponse
			if err := json.Unmarshal(body, &tree); err != nil {
				mu.Lock()
				errs[name] = err.Error()
				mu.Unlock()
				return
			}
			mu.Lock()
			fragments = append(fragments, treeToRecord(tree))
			mu.Unlock()
		}(name)
	}
	wg.Wait()
	for _, m := range r.members.Snapshot() {
		if !m.Healthy {
			errs[m.Name] = "backend down"
		}
	}
	if len(fragments) == 0 {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown trace %q (expired, sampled out, or never seen)", id))
		return
	}
	// The root fragment anchors the response envelope: prefer the one
	// whose spans start earliest — normally the router's own, which
	// opened the trace at the edge.
	sort.SliceStable(fragments, func(i, j int) bool {
		return fragments[i].Start.Before(fragments[j].Start)
	})
	out := service.TraceTree(fragments[0])
	for _, frag := range fragments[1:] {
		out.AddRecord(frag)
		// The whole-request figures come from the fragment that saw the
		// most: a backend job outlives the router's 202 exchange.
		if frag.DurationMS > out.DurationMS {
			out.DurationMS = frag.DurationMS
		}
		if out.Error == "" {
			out.Error = frag.Error
		}
		if out.Graph == "" {
			out.Graph = frag.Graph
		}
		out.SpansDropped += frag.SpansDropped
	}
	if len(errs) > 0 {
		out.Partial = true
		out.Errors = errs
	}
	writeJSON(w, http.StatusOK, out)
}

// treeToRecord converts one backend's tree response back into a record
// so AddRecord can graft it. Span node stamps survive via the per-span
// Node field taking precedence in AddRecord when the record-level Node
// is empty — here every span keeps its own stamp.
func treeToRecord(tree service.TraceTreeResponse) tracestore.Record {
	rec := tracestore.Record{
		TraceID:      tree.TraceID,
		Route:        tree.Route,
		Graph:        tree.Graph,
		Start:        tree.Start,
		DurationMS:   tree.DurationMS,
		Error:        tree.Error,
		Kept:         tree.Kept,
		SpansDropped: tree.SpansDropped,
		Resources:    tree.Resources,
	}
	for _, sp := range tree.Spans {
		rec.Spans = append(rec.Spans, sp.Span)
	}
	if len(tree.Spans) > 0 {
		rec.Node = tree.Spans[0].Node
	}
	return rec
}
