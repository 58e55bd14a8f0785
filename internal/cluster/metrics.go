package cluster

import (
	"net/http"
	"time"

	"uicwelfare/internal/service"
	"uicwelfare/internal/telemetry"
)

// observeOp records one router-initiated cluster operation (placement,
// rebalance, ship, dispatch) into the
// welmax_cluster_op_duration_seconds{op} histogram.
func (r *Router) observeOp(op string, start time.Time) {
	r.metrics.Observe("welmax_cluster_op_duration_seconds",
		[]telemetry.Label{{Name: "op", Value: op}}, time.Since(start))
}

// routerGauges are the router's own point-in-time series, exported
// alongside the relayed per-backend gauges (no node label: they belong
// to the routing tier itself).
func (r *Router) routerGauges() []telemetry.Gauge {
	stateGauge := func(state string, v int64) telemetry.Gauge {
		return telemetry.Gauge{
			Name:   "welmax_cluster_sweep_cells_total",
			Labels: []telemetry.Label{{Name: "state", Value: state}},
			Value:  float64(v),
		}
	}
	cells := r.sweeps.Stats()
	out := []telemetry.Gauge{
		{Name: "welmax_cluster_rebalances", Value: float64(r.rebalances.Load())},
		{Name: "welmax_cluster_sketch_ships", Value: float64(r.ships.Load())},
		{Name: "welmax_cluster_pre_admission_rejects", Value: float64(r.preAdmitRejects.Load())},
		stateGauge("done", cells.CellsDone),
		stateGauge("failed", cells.CellsFailed),
		stateGauge("canceled", cells.CellsCanceled),
	}
	out = append(out, telemetry.BuildInfoGauge())
	out = append(out, service.JournalGauges(r.flight)...)
	out = append(out, service.TraceStoreGauges(r.traces)...)
	out = append(out, service.ResourceTotalGauges()...)
	return out
}

// handleMetrics implements the router's GET /v1/metrics: the cluster's
// merged latency histograms plus every backend's gauges. Histograms are
// fetched from each live shard in JSON form and element-wise summed
// with the router's own (all histograms share the fixed bucket bounds),
// so `welmax_http_request_duration_seconds{route="POST /v1/allocate"}`
// is one series covering the whole cluster. Gauges are point-in-time
// per shard and cannot be meaningfully summed, so each is relayed with
// a node label identifying the backend it came from. A backend that is
// unreachable or answers anything but a 200 JSON export contributes a
// welmax_backend_up{node} of 0 and nothing else — a scrape never fails
// because a shard is down.
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	groups := [][]telemetry.HistSnapshot{r.metrics.Snapshot()}
	gauges := r.routerGauges()
	errs := map[string]string{}
	for _, res := range r.fanout(req.Context(), http.MethodGet, "/v1/metrics?format=json") {
		var export telemetry.Export
		if err := res.decode(&export); err != nil {
			errs[res.backend] = err.Error()
			gauges = append(gauges, backendUp(res.backend, 0))
			continue
		}
		groups = append(groups, export.Histograms)
		gauges = append(gauges, backendUp(res.backend, 1))
		for _, g := range export.Gauges {
			g.Labels = append([]telemetry.Label{{Name: "node", Value: res.backend}}, g.Labels...)
			gauges = append(gauges, g)
		}
	}
	merged := telemetry.MergeSnapshots(groups...)
	if req.URL.Query().Get("format") == "json" {
		out := map[string]any{"histograms": merged, "gauges": gauges}
		if len(errs) > 0 {
			out["partial"] = true
			out["errors"] = errs
		}
		writeJSON(w, http.StatusOK, out)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.WritePrometheus(w, merged, gauges)
}

func backendUp(node string, v float64) telemetry.Gauge {
	return telemetry.Gauge{
		Name:   "welmax_backend_up",
		Labels: []telemetry.Label{{Name: "node", Value: node}},
		Value:  v,
	}
}
