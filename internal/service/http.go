package service

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"uicwelfare/internal/core"
	"uicwelfare/internal/progress"
	"uicwelfare/internal/store"
	"uicwelfare/internal/telemetry"
)

// Handler returns the daemon's HTTP API as an http.Handler. Every
// route is registered through timed, which closes over the literal
// pattern string — Go 1.22's mux offers no way to read the matched
// pattern back off the request, and the pattern is exactly the route
// label the latency histograms need.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/graphs", s.timed("POST /v1/graphs", s.handleCreateGraph))
	mux.HandleFunc("POST /v1/graphs/import", s.timed("POST /v1/graphs/import", s.handleImportGraph))
	mux.HandleFunc("GET /v1/graphs", s.timed("GET /v1/graphs", s.handleListGraphs))
	mux.HandleFunc("GET /v1/graphs/{id}", s.timed("GET /v1/graphs/{id}", s.handleGetGraph))
	mux.HandleFunc("DELETE /v1/graphs/{id}", s.timed("DELETE /v1/graphs/{id}", s.handleDeleteGraph))
	mux.HandleFunc("POST /v1/graphs/{id}/warm", s.timed("POST /v1/graphs/{id}/warm", s.handleWarmGraph))
	mux.HandleFunc("GET /v1/graphs/{id}/export", s.timed("GET /v1/graphs/{id}/export", s.handleExportGraph))
	mux.HandleFunc("GET /v1/graphs/{id}/sketches", s.timed("GET /v1/graphs/{id}/sketches", s.handleExportSketches))
	mux.HandleFunc("POST /v1/graphs/{id}/sketches", s.timed("POST /v1/graphs/{id}/sketches", s.handleImportSketches))
	mux.HandleFunc("GET /v1/algorithms", s.timed("GET /v1/algorithms", s.handleListAlgorithms))
	mux.HandleFunc("POST /v1/allocate", s.timed("POST /v1/allocate", s.handleAllocate))
	mux.HandleFunc("POST /v1/estimate", s.timed("POST /v1/estimate", s.handleEstimate))
	mux.HandleFunc("GET /v1/jobs", s.timed("GET /v1/jobs", s.handleListJobs))
	mux.HandleFunc("GET /v1/jobs/{id}", s.timed("GET /v1/jobs/{id}", s.handleGetJob))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.timed("GET /v1/jobs/{id}/events", s.handleJobEvents))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.timed("DELETE /v1/jobs/{id}", s.handleCancelJob))
	mux.HandleFunc("POST /v1/sweeps", s.timed("POST /v1/sweeps", s.sweeps.HandleCreate))
	mux.HandleFunc("GET /v1/sweeps", s.timed("GET /v1/sweeps", s.sweeps.HandleList))
	mux.HandleFunc("GET /v1/sweeps/{id}", s.timed("GET /v1/sweeps/{id}", s.sweeps.HandleGet))
	mux.HandleFunc("GET /v1/sweeps/{id}/events", s.timed("GET /v1/sweeps/{id}/events", s.sweeps.HandleEvents))
	mux.HandleFunc("GET /v1/sweeps/{id}/results", s.timed("GET /v1/sweeps/{id}/results", s.sweeps.HandleResults))
	mux.HandleFunc("DELETE /v1/sweeps/{id}", s.timed("DELETE /v1/sweeps/{id}", s.sweeps.HandleCancel))
	mux.HandleFunc("GET /v1/events", s.timed("GET /v1/events", s.handleEvents))
	mux.HandleFunc("GET /v1/traces", s.timed("GET /v1/traces", s.handleTraces))
	mux.HandleFunc("GET /v1/traces/{id}", s.timed("GET /v1/traces/{id}", s.handleTraceGet))
	mux.HandleFunc("GET /v1/stats", s.timed("GET /v1/stats", s.handleStats))
	mux.HandleFunc("GET /v1/metrics", s.timed("GET /v1/metrics", s.handleMetrics))
	mux.HandleFunc("GET /healthz", s.timed("GET /healthz", s.handleHealthz))
	mux.HandleFunc("GET /v1/healthz", s.timed("GET /v1/healthz", s.handleHealthzV1))
	return mux
}

// timed wraps a handler with per-route latency observation. SSE
// streams are observed too — their "latency" is the stream lifetime,
// which is the honest figure for a streaming route. The observation
// carries the request's trace id (echoed on the response by newTrace)
// as the bucket's exemplar, so a slow route points at a slow trace.
func (s *Service) timed(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.telemetryOn {
			h(w, r)
			return
		}
		start := time.Now()
		h(w, r)
		s.metrics.ObserveEx("welmax_http_request_duration_seconds",
			[]telemetry.Label{{Name: "route", Value: route}}, time.Since(start),
			w.Header().Get(telemetry.TraceHeader))
	}
}

// newTrace mints (or adopts, when the client sent a sanitizable
// X-Welmax-Trace-Id) the request's trace and echoes the id on the
// response, so the caller can correlate the job it is about to receive.
// A sanitizable X-Welmax-Span-Id becomes the trace's parent span: the
// router sends its proxy span's id here, so every span this process
// records nests under the router's waterfall.
func (s *Service) newTrace(w http.ResponseWriter, r *http.Request) *telemetry.Trace {
	tr := telemetry.NewTrace(telemetry.SanitizeID(r.Header.Get(telemetry.TraceHeader)), s.telemetryOn)
	if parent := r.Header.Get(telemetry.SpanHeader); parent != "" {
		tr.SetParent(telemetry.SanitizeID(parent))
	}
	w.Header().Set(telemetry.TraceHeader, tr.ID())
	return tr
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// maxBodyBytes bounds request bodies (inline edge lists are the largest
// legitimate payload); anything bigger is rejected instead of buffered.
const maxBodyBytes = 64 << 20

// maxImportBytes bounds a sketch-stream import. Shipped warm sets are
// larger than any request body (they scale with the sender's cache
// budget, not with one payload) and the stream is consumed one
// checksummed entry at a time, so the higher cap does not translate
// into one giant buffer.
const maxImportBytes = 1 << 30

// ClusterTokenHeader carries the shared cluster secret (-cluster-token)
// on router-to-backend requests; backends started with the token require
// it on the cluster-internal endpoints.
const ClusterTokenHeader = "X-Cluster-Token"

// authorizeCluster gates a cluster-internal endpoint (raw graph import,
// sketch export/import) behind the shared cluster token when one is
// configured. Without a token the check passes — the deployment is then
// trusting its network boundary instead (see Options.ClusterToken).
func (s *Service) authorizeCluster(w http.ResponseWriter, r *http.Request) bool {
	if s.clusterToken == "" {
		return true
	}
	if subtle.ConstantTimeCompare([]byte(r.Header.Get(ClusterTokenHeader)), []byte(s.clusterToken)) == 1 {
		return true
	}
	writeError(w, http.StatusForbidden,
		fmt.Errorf("missing or wrong %s (this backend requires the cluster token)", ClusterTokenHeader))
	return false
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func (s *Service) handleCreateGraph(w http.ResponseWriter, r *http.Request) {
	var req GraphRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Path != "" && !s.allowPaths {
		writeError(w, http.StatusForbidden,
			fmt.Errorf("server-side path loading is disabled (start welmaxd with -allow-paths)"))
		return
	}
	name, g, err := LoadGraph(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	entry, existed, err := s.RegisterGraph(name, g)
	if err != nil {
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	// Content addressing dedupes re-registrations of the same graph to
	// the existing entry: 200 with the resident info, not a second copy.
	status := http.StatusCreated
	if existed {
		status = http.StatusOK
	}
	writeJSON(w, status, entry.Info())
}

// handleImportGraph implements POST /v1/graphs/import: register a graph
// from raw .wmg bytes. This is the cluster shipping path — embedding the
// graph as base64 in a JSON GraphRequest would cap it at ~48MB of
// encoded graph under maxBodyBytes, and shipped graphs legitimately
// exceed that. The embedded name label is kept, the content id is
// recomputed on this side, and duplicates dedupe exactly like
// handleCreateGraph (201 new, 200 resident).
func (s *Service) handleImportGraph(w http.ResponseWriter, r *http.Request) {
	if !s.authorizeCluster(w, r) {
		return
	}
	name, g, err := store.DecodeGraph(http.MaxBytesReader(w, r.Body, maxImportBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	entry, existed, err := s.RegisterGraph(name, g)
	if err != nil {
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	status := http.StatusCreated
	if existed {
		status = http.StatusOK
	}
	writeJSON(w, status, entry.Info())
}

func (s *Service) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.DeleteGraph(id) {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown graph %q", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

// handleWarmGraph implements POST /v1/graphs/{id}/warm: prebuild a
// sketch through the tiered cache as an ordinary cancelable job, so
// operators can pay the dominant sketch cost ahead of user traffic (and,
// with a data dir, ahead of the next restart).
func (s *Service) handleWarmGraph(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req WarmRequest
	if !decodeBody(w, r, &req) {
		return
	}
	tr := s.newTrace(w, r)
	plan, _, err := s.validateWarm(id, &req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Warming is exactly the sketch work admission exists to price;
	// apply the same gate as POST /v1/allocate. The trace rides the
	// admission context so a reject's journal event carries its id.
	endAdmit := tr.StartSpan("admission_check")
	aerr := s.admit(telemetry.NewContext(r.Context(), tr), id, plan)
	endAdmit()
	if aerr != nil {
		writeAdmissionReject(w, aerr, tr.ID())
		return
	}
	s.enqueue(w, "warm", id, tr, &req, func(ctx context.Context, report progress.Func) (any, error) {
		return s.WarmCtx(ctx, id, &req, report)
	})
}

func (s *Service) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	entries := s.registry.List()
	out := make([]GraphInfo, len(entries))
	for i, e := range entries {
		out[i] = e.Info()
	}
	writeJSON(w, http.StatusOK, map[string]any{"graphs": out})
}

func (s *Service) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.registry.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown graph %q", r.PathValue("id")))
		return
	}
	info := entry.Info()
	info.ResidentSketches = s.cache.CountPrefix(entry.ID + "|")
	writeJSON(w, http.StatusOK, info)
}

// enqueue creates a job under the request's trace and submits run to
// the pool; run must return the job's result and honor its context
// (DELETE /v1/jobs/{id} cancels it) while reporting progress through
// report. The trace travels in the job context so span timings land on
// it, and finishJob attaches them to the job record when the run ends.
// It answers 202 with the job id, or 503 when the queue is full.
// graphID labels the trace-store record so /v1/traces can filter by
// graph; it is advisory only and may be empty.
func (s *Service) enqueue(w http.ResponseWriter, kind, graphID string, tr *telemetry.Trace, req any, run func(ctx context.Context, report progress.Func) (any, error)) {
	job := s.jobs.Create(kind, tr.ID(), req)
	ok := s.pool.Submit(func() {
		ctx, ok := s.jobs.Start(job.ID)
		if !ok {
			return // canceled while queued; Start finalized the job
		}
		started := time.Now()
		ctx = telemetry.NewContext(ctx, tr)
		result, err := run(ctx, func(ev progress.Event) {
			s.jobs.Publish(job.ID, JobEvent{
				Type:       EventProgress,
				Stage:      string(ev.Stage),
				Round:      ev.Round,
				Done:       ev.Done,
				Total:      ev.Total,
				SeedPrefix: ev.SeedPrefix,
			})
		})
		s.finishJob(job.ID, kind, graphID, tr, started, result, err)
	})
	if !ok {
		s.jobs.Remove(job.ID)
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("job queue full"))
		return
	}
	writeEncoded(w, http.StatusAccepted, func(b []byte) ([]byte, error) {
		return appendAccepted(b, job.ID, tr.ID()), nil
	})
}

// writeAdmissionReject answers 429 Too Many Requests for a request
// refused by cost-based admission control. The body mirrors the cluster
// tier's transient-failure contract ("retryable": true) and carries the
// calibrated cost estimate so clients can see how far over budget they
// are, plus the trace id so the reject can be matched against the
// flight recorder's admission_reject event; the router relays the
// status and body verbatim, so the contract is identical through a
// cluster proxy.
func writeAdmissionReject(w http.ResponseWriter, aerr *AdmissionError, traceID string) {
	writeJSON(w, http.StatusTooManyRequests, map[string]any{
		"error":           aerr.Error(),
		"retryable":       true,
		"estimated_cost":  aerr.EstimatedBytes,
		"admission_limit": aerr.BudgetBytes,
		"trace_id":        traceID,
	})
}

func (s *Service) handleAllocate(w http.ResponseWriter, r *http.Request) {
	var req AllocateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	tr := s.newTrace(w, r)
	// Fail malformed requests synchronously with 400; the job itself
	// revalidates when it runs.
	plan, err := s.validateAllocate(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Cost-based admission: refuse (retryably) work whose predicted
	// sketch cost would blow the cache budget before it ties up a
	// worker. The trace rides the admission context so a reject's
	// journal event carries its id.
	endAdmit := tr.StartSpan("admission_check")
	aerr := s.admit(telemetry.NewContext(r.Context(), tr), req.GraphID, plan)
	endAdmit()
	if aerr != nil {
		writeAdmissionReject(w, aerr, tr.ID())
		return
	}
	s.enqueue(w, "allocate", req.GraphID, tr, &req, func(ctx context.Context, report progress.Func) (any, error) {
		return s.AllocateCtx(ctx, &req, report)
	})
}

func (s *Service) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req EstimateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	tr := s.newTrace(w, r)
	if _, _, _, err := s.validateEstimate(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.enqueue(w, "estimate", req.GraphID, tr, &req, func(ctx context.Context, report progress.Func) (any, error) {
		return s.EstimateCtx(ctx, &req, report)
	})
}

func (s *Service) handleListAlgorithms(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"algorithms": Algorithms(),
		"default":    core.DefaultAlgorithm,
	})
}

// handleCancelJob implements DELETE /v1/jobs/{id}: an active
// (queued/running) job gets a cancellation request — the worker stops
// at its next cancellation check and the job lands in the "canceled"
// state, still queryable — while an already-terminal job is removed
// from the store.
func (s *Service) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	view, requested, ok := s.jobs.Cancel(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	if requested {
		writeJSON(w, http.StatusAccepted, view)
		return
	}
	s.jobs.Remove(id)
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

// handleJobEvents implements GET /v1/jobs/{id}/events: a server-sent
// event stream of the job's progress ("progress" events carrying sketch
// and estimation counters) ending with a terminal event named after the
// final state ("done", "failed" or "canceled"). Replays the retained
// history first, so subscribing to a finished job yields its events and
// closes.
func (s *Service) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	streamJobEvents(w, r, s.jobs, r.PathValue("id"))
}

// streamJobEvents serves one job's event stream over SSE from any
// JobStore (the sweep engine streams the jobs of whichever store it was
// built over): replayed history, live events, terminal frame, and the
// snapshot resync for subscribers that lost the terminal event.
func streamJobEvents(w http.ResponseWriter, r *http.Request, jobs *JobStore, id string) {
	past, ch, unsub, ok := jobs.Subscribe(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	defer unsub()
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// write emits one SSE frame, its data encoded into the stream's
	// pooled buffer; it reports whether the stream continues. lastSeq
	// tracks the highest sequence written so a synthesized resync event
	// keeps the strictly-increasing seq contract. Returning after the
	// terminal frame lets net/http flush and end the response.
	data := bodyBufs.Get().(*[]byte)
	defer putBody(data)
	lastSeq := 0
	write := func(ev JobEvent) bool {
		if ev.Seq == 0 {
			ev.Seq = lastSeq + 1
		}
		lastSeq = ev.Seq
		*data = ev.appendJSON((*data)[:0])
		return writeSSEFrame(w, ev.Type, *data) && !ev.Terminal()
	}
	// The header and the whole replay go out in one flush.
	for _, ev := range past {
		if !write(ev) {
			return
		}
	}
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-ch:
			if !open {
				// Closed without a terminal event reaching this
				// subscriber (slow consumer or job removal): resync from
				// the job snapshot so the client still sees the outcome.
				if view, ok := jobs.Snapshot(id); ok && view.State.Terminal() {
					write(JobEvent{Type: string(view.State), TraceID: view.TraceID, Error: view.Error})
				}
				return
			}
			if !write(ev) {
				return
			}
			fl.Flush()
		}
	}
}

func (s *Service) handleListJobs(w http.ResponseWriter, r *http.Request) {
	var state JobState
	if raw := r.URL.Query().Get("state"); raw != "" {
		switch st := JobState(raw); st {
		case JobQueued, JobRunning, JobDone, JobFailed, JobCanceled:
			state = st
		default:
			writeError(w, http.StatusBadRequest, fmt.Errorf("unknown job state %q", raw))
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.List(state)})
}

// handleExportGraph implements GET /v1/graphs/{id}/export: the resident
// graph as .wmg bytes — what the cluster router fetches so it can
// re-register the graph on a different backend during rebalancing (and a
// convenient backup endpoint besides).
func (s *Service) handleExportGraph(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	entry, ok := s.registry.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown graph %q", id))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+store.GraphExt))
	_ = store.EncodeGraph(w, entry.Name, entry.Graph)
}

// handleExportSketches implements GET /v1/graphs/{id}/sketches: the
// graph's completed in-memory sketches as a sketch-stream container (see
// Service.ExportSketches). An empty cache yields an empty 200 body —
// shipping zero sketches is a valid rebalance.
func (s *Service) handleExportSketches(w http.ResponseWriter, r *http.Request) {
	if !s.authorizeCluster(w, r) {
		return
	}
	id := r.PathValue("id")
	if _, ok := s.registry.Get(id); !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown graph %q", id))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := s.ExportSketches(id, w); err != nil {
		return // headers are gone; the truncated stream fails the reader's checksum
	}
}

// handleImportSketches implements POST /v1/graphs/{id}/sketches: install
// shipped sketches into this backend's cache so it starts warm for a
// graph it just received (see Service.ImportSketches). Only cluster
// members accept it: an imported sketch becomes authoritative for
// allocation results, so a daemon not running behind a router (-node
// unset) must not let arbitrary callers install sketch contents — and a
// cluster member with -cluster-token set additionally requires the
// shared secret, because -node alone is a deployment hint, not
// authentication.
func (s *Service) handleImportSketches(w http.ResponseWriter, r *http.Request) {
	if s.nodeID == "" {
		writeError(w, http.StatusForbidden,
			fmt.Errorf("sketch import is a cluster endpoint (start welmaxd with -node)"))
		return
	}
	if !s.authorizeCluster(w, r) {
		return
	}
	id := r.PathValue("id")
	if _, ok := s.registry.Get(id); !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown graph %q", id))
		return
	}
	imported, skipped, err := s.ImportSketches(id, http.MaxBytesReader(w, r.Body, maxImportBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"imported": imported, "skipped": skipped})
}

func (s *Service) handleGetJob(w http.ResponseWriter, r *http.Request) {
	view, ok := s.jobs.Snapshot(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeEncoded(w, http.StatusOK, view.appendJSON)
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleHealthzV1 implements GET /v1/healthz: the structured liveness
// probe the cluster router polls (node id, graph count, uptime) —
// cheaper than /v1/stats, which walks every job.
func (s *Service) handleHealthzV1(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Healthz())
}
