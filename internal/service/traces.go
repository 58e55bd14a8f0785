package service

import (
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"time"

	"uicwelfare/internal/telemetry"
	"uicwelfare/internal/tracestore"
)

// TracesResponse is the body of GET /v1/traces: a page of trace
// summaries (spans stripped; the tree is one GET /v1/traces/{id} away).
// NextCursor resumes the query exactly where this page ended; it
// advances even when every examined trace was filtered out, so
// pagination always terminates.
type TracesResponse struct {
	Traces     []tracestore.Record `json:"traces"`
	NextCursor uint64              `json:"next_cursor"`
	Node       string              `json:"node,omitempty"`
	// Partial and Errors appear on the router's merged form when one or
	// more shards could not be queried.
	Partial bool              `json:"partial,omitempty"`
	Errors  map[string]string `json:"errors,omitempty"`
}

// TraceSpan is one span of an assembled trace tree, stamped with the
// node that recorded it — the single field that distinguishes the
// router's fragment from a backend's once the two are merged.
type TraceSpan struct {
	telemetry.Span
	Node string `json:"node,omitempty"`
}

// TraceTreeResponse is the body of GET /v1/traces/{id}: one trace's
// full span tree. On a backend it holds that process's fragment; on the
// router it is the cross-tier assembly — the router's dispatch/proxy
// spans plus the owning backend's spans, parented into one tree via
// X-Welmax-Span-Id propagation. Spans are sorted by start time, the
// natural waterfall order.
type TraceTreeResponse struct {
	TraceID      string           `json:"trace_id"`
	Route        string           `json:"route,omitempty"`
	Graph        string           `json:"graph,omitempty"`
	Start        time.Time        `json:"start"`
	DurationMS   float64          `json:"duration_ms"`
	Error        string           `json:"error,omitempty"`
	Kept         string           `json:"kept,omitempty"`
	Spans        []TraceSpan      `json:"spans"`
	SpansDropped int64            `json:"spans_dropped,omitempty"`
	Resources    map[string]int64 `json:"resources,omitempty"`
	// Partial and Errors appear on the router's merged form when a
	// backend fragment could not be fetched.
	Partial bool              `json:"partial,omitempty"`
	Errors  map[string]string `json:"errors,omitempty"`
}

// TraceTree converts one stored record into the tree response form.
func TraceTree(rec tracestore.Record) TraceTreeResponse {
	t := TraceTreeResponse{
		TraceID:      rec.TraceID,
		Route:        rec.Route,
		Graph:        rec.Graph,
		Start:        rec.Start,
		DurationMS:   rec.DurationMS,
		Error:        rec.Error,
		Kept:         rec.Kept,
		Spans:        []TraceSpan{},
		SpansDropped: rec.SpansDropped,
	}
	t.AddRecord(rec)
	return t
}

// AddRecord merges another fragment of the same trace into the tree:
// its spans (stamped with the fragment's node) and resource totals. The
// router uses it to graft the owning backend's fragment under its own;
// sorting restores waterfall order across fragments.
func (t *TraceTreeResponse) AddRecord(rec tracestore.Record) {
	for _, sp := range rec.Spans {
		t.Spans = append(t.Spans, TraceSpan{Span: sp, Node: rec.Node})
	}
	sort.SliceStable(t.Spans, func(i, j int) bool {
		return t.Spans[i].StartUnixNS < t.Spans[j].StartUnixNS
	})
	if len(rec.Resources) > 0 && t.Resources == nil {
		t.Resources = map[string]int64{}
	}
	for k, v := range rec.Resources {
		t.Resources[k] += v
	}
}

// ParseTraceQuery decodes the GET /v1/traces query parameters (cursor,
// limit, route, graph, min_ms, since) shared by the backend and router
// forms of the endpoint.
func ParseTraceQuery(values url.Values) (tracestore.Query, error) {
	after, limit, since, err := parsePageQuery(values)
	q := tracestore.Query{
		After: after,
		Route: values.Get("route"),
		Graph: values.Get("graph"),
		Since: since,
		Limit: limit,
	}
	if raw := values.Get("min_ms"); raw != "" && err == nil {
		if q.MinMS, err = strconv.ParseFloat(raw, 64); err != nil || q.MinMS < 0 {
			err = fmt.Errorf("bad min_ms %q", raw)
		}
	}
	return q, err
}

// handleTraces implements GET /v1/traces: cursor pagination over the
// retained trace summaries with route/graph/min_ms/since filters. With
// telemetry off the store is nil and the page is cleanly empty.
func (s *Service) handleTraces(w http.ResponseWriter, r *http.Request) {
	q, err := ParseTraceQuery(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	records, next := s.traces.Traces(q)
	if records == nil {
		records = []tracestore.Record{}
	}
	writeJSON(w, http.StatusOK, TracesResponse{Traces: records, NextCursor: next, Node: s.nodeID})
}

// handleTraceGet implements GET /v1/traces/{id}: the full span tree of
// one retained trace — ring first, spilled segments second. 404 covers
// both an unknown id and a sampled-out trace (indistinguishable by
// design), and telemetry-off, where nothing is retained at all.
func (s *Service) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.traces.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown trace %q (expired, sampled out, or never seen)", id))
		return
	}
	writeJSON(w, http.StatusOK, TraceTree(rec))
}
