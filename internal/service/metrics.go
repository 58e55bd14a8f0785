package service

import (
	"encoding/json"
	"net/http"
	"sort"
	"time"

	"uicwelfare/internal/journal"
	"uicwelfare/internal/telemetry"
	"uicwelfare/internal/tracestore"
)

// handleMetrics implements GET /v1/metrics: the backend's latency
// histograms and operational gauges. The default rendering is
// Prometheus text exposition; ?format=json serves the same data as a
// telemetry.Export — the machine-mergeable form the cluster router
// fetches from every shard and sums into its own exposition.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	export := telemetry.Export{Histograms: s.metrics.Snapshot(), Gauges: s.gauges()}
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, export)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.WritePrometheus(w, export.Histograms, export.Gauges)
}

// gauges assembles the point-in-time metrics from the same sources
// /v1/stats reads, plus the per-graph cost-model calibration. Names are
// stable: the router relays them per backend (adding a node label), so
// renaming one breaks merged dashboards.
func (s *Service) gauges() []telemetry.Gauge {
	st := s.Stats()
	out := []telemetry.Gauge{
		{Name: "welmax_graphs", Value: float64(st.Graphs)},
		{Name: "welmax_sketch_cache_entries", Value: float64(st.SketchCache.Entries)},
		{Name: "welmax_sketch_cache_hits", Value: float64(st.SketchCache.Hits)},
		{Name: "welmax_sketch_cache_misses", Value: float64(st.SketchCache.Misses)},
		{Name: "welmax_sketch_cache_evictions", Value: float64(st.SketchCache.Evictions)},
		{Name: "welmax_sketch_cache_expirations", Value: float64(st.SketchCache.Expirations)},
		{Name: "welmax_sketch_cache_cost_bytes", Value: float64(st.SketchCache.CostBytes)},
		{Name: "welmax_batch_builds", Value: float64(st.Batch.Batched)},
		{Name: "welmax_batch_coalesced_requests", Value: float64(st.Batch.CoalescedRequests)},
		{Name: "welmax_admission_rejects", Value: float64(st.Batch.AdmissionRejects)},
		// welmax_admission_max_bytes is the configured admission budget
		// (0 = admission disabled).
		{Name: "welmax_admission_max_bytes", Value: float64(s.admissionBytes)},
		{Name: "welmax_jobs_queue_depth", Value: float64(st.QueueDepth)},
		{Name: "welmax_workers_busy", Value: float64(st.BusyWorkers)},
		{Name: "welmax_cost_ratio_global", Value: st.Batch.CostRatio},
		{Name: "welmax_sweep_cells_total",
			Labels: []telemetry.Label{{Name: "state", Value: "done"}},
			Value:  float64(st.Sweeps.CellsDone)},
		{Name: "welmax_sweep_cells_total",
			Labels: []telemetry.Label{{Name: "state", Value: "failed"}},
			Value:  float64(st.Sweeps.CellsFailed)},
		{Name: "welmax_sweep_cells_total",
			Labels: []telemetry.Label{{Name: "state", Value: "canceled"}},
			Value:  float64(st.Sweeps.CellsCanceled)},
	}
	perGraph := s.res.Costs.PerGraph()
	sort.Slice(perGraph, func(i, j int) bool { return perGraph[i].GraphID < perGraph[j].GraphID })
	for _, g := range perGraph {
		out = append(out, telemetry.Gauge{
			Name:   "welmax_graph_cost_ratio",
			Labels: []telemetry.Label{{Name: "graph_id", Value: g.GraphID}},
			Value:  g.Ratio,
		})
	}
	out = append(out, telemetry.BuildInfoGauge())
	out = append(out, JournalGauges(s.flight)...)
	out = append(out, TraceStoreGauges(s.traces)...)
	out = append(out, ResourceTotalGauges()...)
	return out
}

// TraceStoreGauges exposes a trace store's tail-sampling health: how
// many completed traces were offered, how many the sampler kept versus
// discarded, and whether the spill path is losing segments. Exported
// because the cluster router renders its own store through the same
// series. A nil store (telemetry off) contributes nothing.
func TraceStoreGauges(ts *tracestore.Store) []telemetry.Gauge {
	if ts == nil {
		return nil
	}
	st := ts.Stats()
	return []telemetry.Gauge{
		{Name: "welmax_trace_offered_total", Value: float64(st.Offered)},
		{Name: "welmax_trace_kept_total", Value: float64(st.Kept)},
		{Name: "welmax_trace_sampled_out_total", Value: float64(st.SampledOut)},
		{Name: "welmax_trace_ring_depth", Value: float64(st.RingLen)},
		{Name: "welmax_trace_ring_capacity", Value: float64(st.RingCap)},
		{Name: "welmax_trace_segments_total", Value: float64(st.Segments)},
		{Name: "welmax_trace_spill_errors_total", Value: float64(st.SpillErrors)},
	}
}

// JournalGauges exposes a flight recorder's health: how much it has
// seen, how full the ring is, and whether the spill path is losing or
// failing to persist events. Exported because the cluster router
// renders its own recorder through the same series.
func JournalGauges(rec *journal.Recorder) []telemetry.Gauge {
	js := rec.Stats()
	return []telemetry.Gauge{
		{Name: "welmax_journal_events_total", Value: float64(js.Recorded)},
		{Name: "welmax_journal_dropped_total", Value: float64(js.Dropped)},
		{Name: "welmax_journal_ring_depth", Value: float64(js.RingLen)},
		{Name: "welmax_journal_ring_capacity", Value: float64(js.RingCap)},
		{Name: "welmax_journal_segments_total", Value: float64(js.Segments)},
		{Name: "welmax_journal_spill_errors_total", Value: float64(js.SpillErrors)},
	}
}

// ResourceTotalGauges renders the process-wide per-trace resource
// accumulators as welmax_resource_total{kind}, sorted for a stable
// exposition order. Exported for the cluster router's exposition.
func ResourceTotalGauges() []telemetry.Gauge {
	totals := telemetry.ResourceTotals()
	kinds := make([]string, 0, len(totals))
	for k := range totals {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	out := make([]telemetry.Gauge, 0, len(kinds))
	for _, k := range kinds {
		out = append(out, telemetry.Gauge{
			Name:   "welmax_resource_total",
			Labels: []telemetry.Label{{Name: "kind", Value: k}},
			Value:  float64(totals[k]),
		})
	}
	return out
}

// observeTrace records a finished unit of work into the histograms: its
// total duration under welmax_job_duration_seconds{kind} and each of
// its trace's stages under welmax_stage_duration_seconds{stage,family}.
// The trace id rides along as the bucket exemplar, so the histogram can
// answer "which trace was that slow one" (GET /v1/traces/{id}).
func (s *Service) observeTrace(kind string, tr *telemetry.Trace, elapsed time.Duration) {
	s.metrics.ObserveEx("welmax_job_duration_seconds",
		[]telemetry.Label{{Name: "kind", Value: kind}}, elapsed, tr.ID())
	stages := tr.Stages()
	if len(stages) == 0 {
		return
	}
	family := tr.Family()
	if family == "" {
		family = "none"
	}
	// Stage histograms carry no exemplars: the drill-down runs from the
	// route- and kind-level series, and skipping the per-stage exemplar
	// bookkeeping keeps the warm path inside the telemetry overhead
	// budget (scripts/bench_snapshot.sh guards it).
	for stage, st := range stages {
		s.metrics.Observe("welmax_stage_duration_seconds",
			[]telemetry.Label{{Name: "stage", Value: stage}, {Name: "family", Value: family}}, st.Total())
	}
}

// finishJob is the worker-side epilogue of every HTTP-enqueued job: it
// attaches the trace's span timings to the job record, feeds the
// histograms, offers the completed trace to the trace store's
// tail-sampler, emits the structured slow-request log line when the run
// crossed the threshold, and finalizes the job. It runs whether the job
// succeeded, failed, or was canceled — slow failures are exactly the
// requests worth finding in the log.
func (s *Service) finishJob(id, kind, graphID string, tr *telemetry.Trace, started time.Time, result any, err error) {
	elapsed := time.Since(started)
	s.jobs.SetStages(id, tr.Stages())
	s.jobs.SetResources(id, tr.Resources())
	if s.telemetryOn {
		s.observeTrace(kind, tr, elapsed)
		rec := tracestore.Record{
			TraceID:      tr.ID(),
			Route:        kind,
			Graph:        graphID,
			Start:        tr.Start(),
			DurationMS:   float64(elapsed) / float64(time.Millisecond),
			Slow:         s.slowThreshold > 0 && elapsed >= s.slowThreshold,
			Spans:        tr.Spans(),
			SpansDropped: tr.DroppedSpans(),
			Resources:    tr.Resources(),
		}
		if err != nil {
			rec.Error = err.Error()
		}
		s.traces.Add(rec)
		if rec.Slow {
			s.logSlowJob(id, kind, tr, elapsed, err)
		}
	}
	s.jobs.Finish(id, result, err)
}

// logSlowJob emits one structured (JSON) log line for a job that ran at
// or beyond the slow threshold, carrying the trace id and the stage
// breakdown so a slow request can be diagnosed from the log alone.
func (s *Service) logSlowJob(id, kind string, tr *telemetry.Trace, elapsed time.Duration, err error) {
	entry := map[string]any{
		"msg":        "slow_request",
		"job_id":     id,
		"kind":       kind,
		"trace_id":   tr.ID(),
		"elapsed_ms": float64(elapsed) / float64(time.Millisecond),
	}
	if stages := tr.Stages(); len(stages) > 0 {
		entry["stages"] = stages
	}
	if resources := tr.Resources(); len(resources) > 0 {
		entry["resources"] = resources
	}
	if err != nil {
		entry["error"] = err.Error()
	}
	line, jerr := json.Marshal(entry)
	if jerr != nil {
		s.slowLogf("slow_request job=%s kind=%s trace=%s elapsed=%v", id, kind, tr.ID(), elapsed)
		return
	}
	s.slowLogf("%s", line)
}

// Metrics exposes the histogram registry (the cluster router's merge
// path and tests read it; handlers go through /v1/metrics).
func (s *Service) Metrics() *telemetry.Metrics { return s.metrics }
