package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"uicwelfare/internal/core"
	"uicwelfare/internal/journal"
	"uicwelfare/internal/service"
	"uicwelfare/internal/store"
	"uicwelfare/internal/sweep"
	"uicwelfare/internal/telemetry"
)

// The cluster sweep runner: what the Router hands its
// service.SweepEngine. The router runs the same POST /v1/sweeps grid a
// single backend does, through the same engine, as a job in its own
// JobStore — but its cells execute as a compute-plane scheduler: each
// is dispatched to the shard that owns its graph (HRW placement — the
// sketches a cell needs are where its graph is), with bounded in-flight
// cells per shard, pre-admission at the edge, and a retry asked of the
// engine on transient refusals (429 admission, 502 owner-down during a
// rebalance). A dead shard fails only its own unfinished cells; the
// sweep completes with those rows marked failed.

// --- pre-admission ------------------------------------------------------

// backendAdmission is one shard's admission posture, read off its
// /v1/metrics gauges: the configured budget, the global calibration
// ratio, and the per-graph ratios (welmax_graph_cost_ratio{graph_id}).
type backendAdmission struct {
	budgetBytes float64
	globalRatio float64
	graphRatio  map[string]float64
}

// refreshAdmission snapshots every live backend's admission gauges in
// one metrics fanout. Backends that fail the fetch are simply absent —
// pre-admission then waves their cells through and lets the shard's own
// admission control decide, which is always the safe direction.
func (r *Router) refreshAdmission(ctx context.Context) map[string]*backendAdmission {
	out := map[string]*backendAdmission{}
	for _, res := range r.fanout(ctx, http.MethodGet, "/v1/metrics?format=json") {
		var export telemetry.Export
		if res.decode(&export) != nil {
			continue
		}
		adm := &backendAdmission{graphRatio: map[string]float64{}}
		for _, g := range export.Gauges {
			switch g.Name {
			case "welmax_admission_max_bytes":
				adm.budgetBytes = g.Value
			case "welmax_cost_ratio_global":
				adm.globalRatio = g.Value
			case "welmax_graph_cost_ratio":
				for _, l := range g.Labels {
					if l.Name == "graph_id" {
						adm.graphRatio[l.Value] = g.Value
					}
				}
			}
		}
		out[res.backend] = adm
	}
	return out
}

// preAdmitSlack is how far over a shard's admission budget a cell's
// predicted cost must be before the router refuses to dispatch it.
// Deliberately loose (2×): the router's estimate is made from relayed
// gauges that may be a sweep old, and a borderline cell deserves the
// shard's own, fresher verdict — pre-admission exists to stop the
// obviously hopeless cells, not to replicate admission control.
const preAdmitSlack = 2.0

// preAdmit prices one cell against its owner's snapshot, mirroring the
// backend's EstimateCost: the planner's a-priori estimator scaled by
// the owner's learned calibration ratio. A nil error means "dispatch".
func (r *Router) preAdmit(adm map[string]*backendAdmission, owner string, nodes, edges int, c *sweep.Cell) error {
	a := adm[owner]
	if a == nil || a.budgetBytes <= 0 {
		return nil // no snapshot, or admission disabled on the owner
	}
	_, meta, err := core.Lookup(c.Algo)
	if err != nil || meta.CostEstimator == nil {
		return nil // unknown planner: the owner will answer; unpriceable: bypass
	}
	eps, ell := service.ResolveEpsEll(c.Eps, 0)
	raw := meta.CostEstimator(nodes, edges, eps, ell, c.Budgets)
	ratio := a.graphRatio[c.GraphID]
	if ratio <= 0 {
		ratio = a.globalRatio
	}
	if ratio <= 0 {
		ratio = 1
	}
	predicted := int64(float64(raw) * ratio)
	if limit := int64(a.budgetBytes * preAdmitSlack); predicted > limit {
		return fmt.Errorf("router pre-admission: predicted sketch cost %d bytes is over %.0fx backend %s's admission budget (%d bytes)",
			predicted, preAdmitSlack, owner, int64(a.budgetBytes))
	}
	return nil
}

// --- sweep execution ----------------------------------------------------

const (
	// sweepShardConcurrency bounds how many sweep cells the router keeps
	// in flight per backend at once: a sweep should load a shard like a
	// couple of eager clients, not like a thundering herd.
	sweepShardConcurrency = 2
	cellPollInterval      = 100 * time.Millisecond
	cellCancelTimeout     = 2 * time.Second
)

// newSweepEngine wires the router's runner, artifact directory and
// trace store into a sweep engine over its own job store. Router-run
// sweeps persist their .wsr artifacts under spillDir/sweeps, next to
// the graph catalog spill.
func (r *Router) newSweepEngine() *service.SweepEngine {
	runner := service.SweepRunner{
		Backoff: 100 * time.Millisecond,
		// A sweep over a graph the router cannot place is a spec error,
		// answered 400 now rather than N failed cells later.
		Check: func(spec *sweep.Spec, _ []sweep.Cell) error {
			r.mu.Lock()
			defer r.mu.Unlock()
			for _, id := range spec.GraphIDs {
				if r.catalog[id] == nil {
					return fmt.Errorf("graph %s is not registered with the router (register it through POST /v1/graphs first)", id)
				}
			}
			return nil
		},
		// The admission snapshot is taken once per sweep: cheap, and fresh
		// enough for the deliberately-loose pre-admission threshold. A cell
		// holds its shard's slot from dispatch through its terminal poll:
		// the bound is on cells occupying the shard, not on concurrent HTTP
		// calls.
		Begin: func(ctx context.Context) service.SweepAttempt {
			adm := r.refreshAdmission(ctx)
			slots := map[string]chan struct{}{}
			for _, m := range r.members.Snapshot() {
				slots[m.Name] = make(chan struct{}, sweepShardConcurrency)
			}
			return func(ctx context.Context, c *service.SweepCellRun) (service.JobState, error) {
				return r.attemptRemoteCell(ctx, adm, slots, c)
			}
		},
	}
	hooks := service.SweepHooks{
		Trace: func(w http.ResponseWriter, req *http.Request) *telemetry.Trace {
			tr := telemetry.NewTrace(telemetry.SanitizeID(req.Header.Get(telemetry.TraceHeader)), true)
			w.Header().Set(telemetry.TraceHeader, tr.ID())
			return tr
		},
		// The edge fragment of a sweep is the sweep itself (dispatches and
		// the artifact write); like a body-routed request it carries no
		// single graph label.
		Finish: func(jobID string, tr *telemetry.Trace, _ time.Time, summary *sweep.Summary, err error) {
			r.jobs.SetStages(jobID, tr.Stages())
			r.recordTrace(tr, "sweep", "", err)
			r.jobs.Finish(jobID, summary, err)
		},
	}
	return service.NewSweepEngine(r.jobs, runner, store.SweepDir(filepath.Join(r.spillDir, "sweeps")), hooks)
}

// attemptRemoteCell makes one attempt at a cell: resolve the graph's
// owner, pre-admit, take a slot on that shard, dispatch the allocate and
// poll the owner's job to completion. Every attempt re-resolves
// ownership, so a cell interrupted by a rebalance lands on the graph's
// new home. Transient refusals (owner down or mid-move, 429 admission,
// full job queue, transport errors) are journaled and ask for a retry.
func (r *Router) attemptRemoteCell(ctx context.Context, adm map[string]*backendAdmission, slots map[string]chan struct{}, c *service.SweepCellRun) (service.JobState, error) {
	cell := c.Cell
	// record journals one scheduling decision about this cell.
	record := func(ev journal.Event) {
		ev.Sweep, ev.Cell, ev.Graph, ev.TraceID = c.SweepID, cell.ID, cell.GraphID, c.TraceID
		r.flight.Record(ev)
	}
	retry := func(err error) (service.JobState, error) {
		record(journal.Event{Type: journal.SweepRetry, Count: int64(c.Attempt), Error: err.Error()})
		return service.JobQueued, err
	}
	owner, err := r.ownerOf(cell.GraphID)
	if err != nil {
		return retry(err) // owner down; a rebalance may revive the cell
	}
	// A retry that re-resolves to a different shard is the sweep
	// scheduler following a rebalance: journal the failover so the
	// cell's path across the cluster is reconstructable. Row.Node still
	// names the previous attempt's shard here.
	if prev := c.Row.Node; prev != "" && owner != prev {
		record(journal.Event{Type: journal.SweepShardFailover, From: prev, To: owner})
	}
	r.mu.Lock()
	var nodes, edges int
	if rec := r.catalog[cell.GraphID]; rec != nil {
		nodes, edges = rec.nodes, rec.edges
	}
	r.mu.Unlock()
	if err := r.preAdmit(adm, owner, nodes, edges, cell); err != nil {
		// Obviously over budget wherever it lands: failing now is the
		// point of pre-admission (no dispatch, no 429 round-trips).
		r.preAdmitRejects.Add(1)
		return service.JobFailed, err
	}
	body, err := json.Marshal(service.CellAllocateRequest(c.Spec, cell))
	if err != nil {
		return service.JobFailed, err
	}
	c.Row.Node = owner
	select {
	case slots[owner] <- struct{}{}:
		defer func() { <-slots[owner] }()
	case <-ctx.Done():
		return service.JobCanceled, nil
	}
	c.Running()
	record(journal.Event{Type: journal.SweepDispatch, To: owner, Count: int64(c.Attempt)})
	outcome, err := r.dispatchCell(ctx, c, owner, body)
	if outcome == service.JobQueued {
		return retry(err)
	}
	return outcome, err
}

// dispatchCell POSTs the cell's allocate to the owner, then polls the
// minted job to a terminal state. On JobFailed and JobQueued (retry) the
// returned error says why. The backend job id lands in Row.JobID — its
// node prefix is the proof of where the cell ran.
func (r *Router) dispatchCell(ctx context.Context, c *service.SweepCellRun, owner string, body []byte) (service.JobState, error) {
	dispatchStart := time.Now()
	status, raw, err := r.call(ctx, http.MethodPost, owner, "/v1/allocate", bytes.NewReader(body))
	r.observeOp("dispatch", dispatchStart)
	if err != nil {
		if ctx.Err() != nil {
			return service.JobCanceled, nil
		}
		return service.JobQueued, fmt.Errorf("backend %s: %w", owner, err)
	}
	switch {
	case status == http.StatusAccepted:
		// fall through to polling
	case status == http.StatusBadRequest || status == http.StatusNotFound:
		// Deterministic: the spec is wrong for this backend (or the graph
		// vanished under a racing DELETE). Retrying cannot help.
		return service.JobFailed, fmt.Errorf("backend %s: status %d: %s", owner, status, bytes.TrimSpace(raw))
	default:
		// 429 (admission), 503 (queue full), 5xx: transient by contract.
		return service.JobQueued, fmt.Errorf("backend %s: status %d: %s", owner, status, bytes.TrimSpace(raw))
	}
	var accepted struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(raw, &accepted); err != nil || accepted.JobID == "" {
		return service.JobQueued, fmt.Errorf("backend %s: unparseable accept body: %s", owner, bytes.TrimSpace(raw))
	}
	c.Row.JobID = accepted.JobID

	tick := time.NewTicker(cellPollInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			// Sweep canceled: best-effort cancel of the backend job on a
			// fresh context (ours is dead).
			cctx, cancel := context.WithTimeout(context.Background(), cellCancelTimeout)
			_, _, _ = r.call(cctx, http.MethodDelete, owner, "/v1/jobs/"+accepted.JobID, nil)
			cancel()
			return service.JobCanceled, nil
		case <-tick.C:
			status, raw, err := r.call(ctx, http.MethodGet, owner, "/v1/jobs/"+accepted.JobID, nil)
			if err != nil {
				if ctx.Err() != nil {
					return service.JobCanceled, nil
				}
				// The owner died mid-cell: the job is gone with it. Retry
				// re-resolves ownership; if the graph has no live home the
				// attempts run out and the cell fails in isolation.
				return service.JobQueued, fmt.Errorf("backend %s: poll: %w", owner, err)
			}
			if status != http.StatusOK {
				return service.JobQueued, fmt.Errorf("backend %s: poll status %d", owner, status)
			}
			var view struct {
				State  service.JobState        `json:"state"`
				Error  string                  `json:"error"`
				Result *service.AllocateResult `json:"result"`
			}
			if err := json.Unmarshal(raw, &view); err != nil {
				return service.JobQueued, fmt.Errorf("backend %s: poll: %w", owner, err)
			}
			switch view.State {
			case service.JobDone:
				if view.Result != nil {
					c.SetResult(view.Result)
				}
				return service.JobDone, nil
			case service.JobFailed:
				return service.JobFailed, fmt.Errorf("backend %s job %s: %s", owner, accepted.JobID, view.Error)
			case service.JobCanceled:
				if ctx.Err() != nil {
					return service.JobCanceled, nil
				}
				// Canceled behind the router's back (an operator DELETE):
				// surface it as this cell's failure, not the sweep's.
				return service.JobFailed, fmt.Errorf("backend %s job %s was canceled", owner, accepted.JobID)
			}
		}
	}
}
