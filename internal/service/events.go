package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"uicwelfare/internal/journal"
)

// EventsResponse is the body of GET /v1/events in query (non-stream)
// mode. NextCursor is the value to pass as ?cursor= to resume exactly
// where this page ended; it advances even when every examined event was
// filtered out, so pagination always terminates.
type EventsResponse struct {
	Events []journal.Event `json:"events"`
	// NextCursor resumes the query; Node tells a merged-stream consumer
	// whose cursor it is (cursors are recorder-local).
	NextCursor uint64 `json:"next_cursor"`
	Node       string `json:"node,omitempty"`
	// Partial and Errors appear on the router's merged form when one or
	// more shards could not be queried.
	Partial bool              `json:"partial,omitempty"`
	Errors  map[string]string `json:"errors,omitempty"`
}

// parsePageQuery decodes the three parameters every ring-backed listing
// shares (GET /v1/events, GET /v1/traces): the cursor, the page limit,
// and the since cutoff.
func parsePageQuery(values url.Values) (after uint64, limit int, since time.Time, err error) {
	if raw := values.Get("cursor"); raw != "" {
		if after, err = strconv.ParseUint(raw, 10, 64); err != nil {
			return 0, 0, since, fmt.Errorf("bad cursor %q", raw)
		}
	}
	if raw := values.Get("limit"); raw != "" {
		if limit, err = strconv.Atoi(raw); err != nil || limit <= 0 {
			return 0, 0, since, fmt.Errorf("bad limit %q", raw)
		}
	}
	if raw := values.Get("since"); raw != "" {
		if since, err = time.Parse(time.RFC3339Nano, raw); err != nil {
			return 0, 0, since, fmt.Errorf("bad since %q (want RFC 3339)", raw)
		}
	}
	return after, limit, since, nil
}

// ParseEventQuery decodes the GET /v1/events query parameters
// (cursor, limit, type, graph, node, trace, since) shared by the
// backend and router forms of the endpoint.
func ParseEventQuery(values url.Values) (journal.Query, error) {
	after, limit, since, err := parsePageQuery(values)
	return journal.Query{
		After: after,
		Type:  values.Get("type"),
		Graph: values.Get("graph"),
		Node:  values.Get("node"),
		Trace: values.Get("trace"),
		Since: since,
		Limit: limit,
	}, err
}

// WantsEventStream reports whether the request asked for the SSE live
// tail (?stream=1 or an Accept of text/event-stream) instead of the
// one-shot query form.
func WantsEventStream(r *http.Request) bool {
	if v := r.URL.Query().Get("stream"); v == "1" || v == "true" || v == "sse" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// writeSSE emits one "event:/data:" frame with v as its JSON data and
// flushes it; false means the stream is over (the client went away).
func writeSSE(w http.ResponseWriter, fl http.Flusher, event string, v any) bool {
	data, err := json.Marshal(v)
	if err != nil {
		return false
	}
	if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
		return false
	}
	fl.Flush()
	return true
}

// handleEvents implements GET /v1/events: the control-plane flight
// recorder's query endpoint (cursor pagination plus type/graph/node/
// since filters) and, in stream mode, a live SSE tail of matching
// events.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	q, err := ParseEventQuery(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if WantsEventStream(r) {
		StreamEvents(w, r, s.flight, q, nil)
		return
	}
	events, next := s.flight.Events(q)
	if events == nil {
		events = []journal.Event{}
	}
	writeJSON(w, http.StatusOK, EventsResponse{Events: events, NextCursor: next, Node: s.nodeID})
}

// StreamEvents serves a live SSE tail of one recorder's events matching
// q: the retained ring events after q.After first (so a reconnecting
// client with a cursor misses nothing the ring still holds), then live
// events as they are recorded. Each frame's SSE event name is the
// journal event type. relayed, when non-nil, is a second live source
// forwarded as-is: the cluster router tails its own recorder through
// this path and fans every shard's tail in through relayed.
func StreamEvents(w http.ResponseWriter, r *http.Request, rec *journal.Recorder, q journal.Query, relayed <-chan journal.Event) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	// Subscribe before replaying so nothing recorded between the two is
	// lost; live events the replay already covered dedupe on Seq.
	ch, cancel := rec.Subscribe(256)
	defer cancel()
	replayQ := q
	replayQ.Limit = journal.MaxLimit
	past, last := rec.Events(replayQ)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	for _, e := range past {
		if !writeSSE(w, fl, e.Type, e) {
			return
		}
	}
	for {
		var e journal.Event
		select {
		case <-r.Context().Done():
			return
		case e = <-ch:
			if e.Seq <= last || !q.Match(e) {
				continue
			}
		case e = <-relayed:
		}
		if !writeSSE(w, fl, e.Type, e) {
			return
		}
	}
}
