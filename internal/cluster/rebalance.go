package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"time"

	"uicwelfare/internal/journal"
	"uicwelfare/internal/service"
	"uicwelfare/internal/telemetry"
)

// syncCatalog runs one adopt + rebalance pass. Passes are serialized:
// the probe loop, Sync, and tests may all trigger one, and two
// concurrent passes could ship the same graph twice. Each pass runs
// under its own trace: every backend request it issues carries the
// pass's id, so one grep correlates a rebalance with the imports,
// exports, and deletes it caused across the shards.
func (r *Router) syncCatalog(ctx context.Context) {
	r.syncMu.Lock()
	defer r.syncMu.Unlock()
	ctx = telemetry.NewContext(ctx, telemetry.NewTrace("", true))
	// Clear the drift flag before the pass, never after: a request that
	// flags new drift while the pass runs must survive into the next
	// round, and rebalance below only ever re-raises the flag.
	r.dirty.Store(false)
	r.adopt(ctx)
	r.rebalance(ctx)
}

// adopt discovers graphs the router does not know about — typically a
// backend's -data-dir re-index after a restart — by listing every live
// backend and fetching the .wmg export of each unknown graph. Eagerly
// fetching the bytes is the point: once the router holds them it can
// re-route the graph even if the backend that introduced it dies.
func (r *Router) adopt(ctx context.Context) {
	for _, res := range r.fanout(ctx, http.MethodGet, "/v1/graphs") {
		var body struct {
			Graphs []service.GraphInfo `json:"graphs"`
		}
		if res.decode(&body) != nil {
			continue
		}
		for _, gi := range body.Graphs {
			r.mu.Lock()
			known := r.catalog[gi.ID] != nil
			dead := r.tombs[gi.ID]
			r.mu.Unlock()
			if dead {
				// A client-deleted graph still resident somewhere (a move
				// raced the DELETE): sweep it instead of re-adopting it.
				if status, _, err := r.call(ctx, http.MethodDelete, res.backend, "/v1/graphs/"+gi.ID, nil); err != nil || status != http.StatusOK {
					log.Printf("cluster: sweep deleted %s on %s: status %d err %v", gi.ID, res.backend, status, err)
				}
				continue
			}
			if known {
				// A cataloged graph whose spill went missing (a failed
				// write at registration, external removal) is re-fetched
				// while a live backend still exports it, so the re-ship
				// guarantee holds if that backend later dies.
				if _, err := os.Stat(r.spillPath(gi.ID)); err != nil {
					status, wmg, err := r.call(ctx, http.MethodGet, res.backend, "/v1/graphs/"+gi.ID+"/export", nil)
					if err != nil || status != http.StatusOK {
						log.Printf("cluster: re-spill %s from %s: status %d err %v", gi.ID, res.backend, status, err)
						r.dirty.Store(true)
					} else {
						r.saveWMG(gi.ID, wmg)
					}
				}
				continue
			}
			status, wmg, err := r.call(ctx, http.MethodGet, res.backend, "/v1/graphs/"+gi.ID+"/export", nil)
			if err != nil || status != http.StatusOK {
				log.Printf("cluster: adopt %s from %s: status %d err %v", gi.ID, res.backend, status, err)
				continue
			}
			r.mu.Lock()
			adopted := r.catalog[gi.ID] == nil && !r.tombs[gi.ID]
			if adopted {
				r.catalog[gi.ID] = &graphRecord{id: gi.ID, name: gi.Name, owner: res.backend, nodes: gi.Nodes, edges: gi.Edges}
			}
			r.mu.Unlock()
			if !adopted {
				continue // a DELETE (or another pass) won the race; no spill
			}
			r.saveWMG(gi.ID, wmg)
			// Mirror the delete-race guard elsewhere: a DELETE that landed
			// between the insert and the spill write removed the file
			// before it existed — sweep it so no orphan .wmg outlives the
			// deletion.
			r.mu.Lock()
			gone := r.tombs[gi.ID]
			r.mu.Unlock()
			if gone {
				r.removeWMG(gi.ID)
			}
		}
	}
}

// rebalance re-routes every cataloged graph whose HRW owner (among live
// backends) differs from where it currently lives: the graph's .wmg
// bytes are registered on the new owner, the old owner's warm sketches
// are shipped along when it is still alive to export them, and the old
// copy is deleted so its registry slot and sketch memory are freed. A
// failed move leaves the record unchanged — the next membership change
// or probe round retries.
func (r *Router) rebalance(ctx context.Context) {
	alive := r.members.Alive()
	if len(alive) == 0 {
		r.mu.Lock()
		n := len(r.catalog)
		r.mu.Unlock()
		if n > 0 {
			r.dirty.Store(true) // nothing can be placed; keep retrying
		}
		return
	}
	r.mu.Lock()
	records := make([]*graphRecord, 0, len(r.catalog))
	for _, rec := range r.catalog {
		records = append(records, rec)
	}
	r.mu.Unlock()

	converged := true
	started := false
	moved := 0
	for _, rec := range records {
		r.mu.Lock()
		id, owner := rec.id, rec.owner
		deleted := r.catalog[id] != rec
		r.mu.Unlock()
		if deleted {
			continue
		}
		want, ok := Owner(alive, id)
		if !ok || want == owner {
			continue
		}
		if !started {
			started = true
			r.flight.Record(journal.Event{Type: journal.RebalanceStart, TraceID: edgeTraceID(ctx)})
		}
		if err := r.moveGraph(ctx, id, owner, want); err != nil {
			log.Printf("cluster: move %s %s -> %s: %v", id, owner, want, err)
			r.flight.Record(journal.Event{
				Type: journal.RebalanceFailed, Graph: id, From: owner, To: want,
				TraceID: edgeTraceID(ctx), Error: err.Error(),
			})
			converged = false // retried next probe round via the dirty flag
			continue
		}
		r.mu.Lock()
		// A DELETE may have removed the record mid-move: the fresh copy on
		// the new owner must not outlive the deletion.
		resurrected := r.catalog[id] != rec
		if !resurrected {
			rec.owner = want
		}
		r.mu.Unlock()
		if resurrected {
			if status, _, err := r.call(ctx, http.MethodDelete, want, "/v1/graphs/"+id, nil); err != nil || status != http.StatusOK {
				log.Printf("cluster: undo move of deleted %s on %s: status %d err %v", id, want, status, err)
			}
			r.removeWMG(id) // moveGraph may have re-spilled mid-delete
			continue
		}
		r.rebalances.Add(1)
		moved++
		r.flight.Record(journal.Event{
			Type: journal.OwnershipFlip, Graph: id, From: owner, To: want,
			TraceID: edgeTraceID(ctx),
		})
	}
	if started {
		// The pass-level terminal event; individual move failures above
		// carry their own rebalance_failed events with the reason.
		r.flight.Record(journal.Event{Type: journal.RebalanceDone, Count: int64(moved), TraceID: edgeTraceID(ctx)})
	}
	if !converged {
		r.dirty.Store(true)
	}
}

// moveGraph ships one graph to its new owner: register the graph bytes
// there (raw .wmg import, read back from the catalog spill or re-fetched
// from a live holder), stream the old owner's warm sketches across (when
// it is alive to export them), and delete the old copy.
func (r *Router) moveGraph(ctx context.Context, id, oldOwner, newOwner string) error {
	defer r.observeOp("rebalance", time.Now())
	oldAlive := oldOwner != "" && r.members.IsAlive(oldOwner)

	wmg, err := r.loadWMG(id)
	fromSpill := err == nil
	if err != nil {
		if wmg, err = r.fetchWMG(ctx, id, oldOwner); err != nil {
			return err
		}
		r.saveWMG(id, wmg)
	}

	// The graph must exist on the new owner before sketches can import.
	status, raw, err := r.call(ctx, http.MethodPost, newOwner, "/v1/graphs/import", bytes.NewReader(wmg))
	if err != nil {
		return err
	}
	if fromSpill && status == http.StatusBadRequest {
		// A readable spill the backend rejects is corrupt or stale (bit
		// rot, a foreign file in a user-supplied catalog dir). Drop it and
		// retry once from a live holder — otherwise the dirty-flag loop
		// would reload the same bad file every probe round forever.
		r.removeWMG(id)
		if wmg, err = r.fetchWMG(ctx, id, oldOwner); err != nil {
			return fmt.Errorf("spill for %s rejected by %s (status %d: %s); %w", id, newOwner, status, raw, err)
		}
		r.saveWMG(id, wmg)
		if status, raw, err = r.call(ctx, http.MethodPost, newOwner, "/v1/graphs/import", bytes.NewReader(wmg)); err != nil {
			return err
		}
	}
	if status != http.StatusCreated && status != http.StatusOK {
		return fmt.Errorf("register on %s: status %d: %s", newOwner, status, raw)
	}

	if oldAlive {
		// Best-effort: a failed transfer just means the new owner starts
		// cold, exactly as if the old owner had died.
		if shipped, sentBytes, err := r.streamSketches(ctx, id, oldOwner, newOwner); err != nil {
			log.Printf("cluster: ship sketches for %s %s -> %s: %v", id, oldOwner, newOwner, err)
		} else if shipped > 0 {
			r.ships.Add(1)
			telemetry.AddResource(ctx, telemetry.ResBytesShipped, sentBytes)
			r.flight.Record(journal.Event{
				Type: journal.SketchShip, Graph: id, From: oldOwner, To: newOwner,
				Count: int64(shipped), Bytes: sentBytes, TraceID: edgeTraceID(ctx),
			})
		}
	}

	if oldAlive && oldOwner != newOwner {
		if status, _, err := r.call(ctx, http.MethodDelete, oldOwner, "/v1/graphs/"+id, nil); err != nil || status != http.StatusOK {
			log.Printf("cluster: free %s on %s: status %d err %v", id, oldOwner, status, err)
		}
	}
	return nil
}

// fetchWMG recovers a graph's encoded bytes when the catalog spill is
// missing or unreadable: the graph's current holder is asked for its
// export first, then every other live backend (mid-rebalance a graph can
// be resident on a backend that is not its cataloged owner).
func (r *Router) fetchWMG(ctx context.Context, id, preferred string) ([]byte, error) {
	var order []string
	if preferred != "" && r.members.IsAlive(preferred) {
		order = append(order, preferred)
	}
	for _, b := range r.members.Alive() {
		if b != preferred {
			order = append(order, b)
		}
	}
	for _, b := range order {
		status, raw, err := r.call(ctx, http.MethodGet, b, "/v1/graphs/"+id+"/export", nil)
		if err == nil && status == http.StatusOK {
			return raw, nil
		}
	}
	return nil, fmt.Errorf("graph %s: no spilled copy and no live backend exports it", id)
}

// streamSketches pipes the old owner's sketch export straight into the
// new owner's import — the response body becomes the request body, so
// the router never buffers the warm set (which can approach the 1GB
// ship cap). It returns how many sketches the new owner imported and
// how many stream bytes crossed the router (the ship's cost for the
// flight recorder and the bytes_shipped resource).
func (r *Router) streamSketches(ctx context.Context, id, from, to string) (int, int64, error) {
	defer r.observeOp("ship", time.Now())
	fromBase, ok1 := r.members.URLOf(from)
	toBase, ok2 := r.members.URLOf(to)
	if !ok1 || !ok2 {
		return 0, 0, fmt.Errorf("unknown backend %q or %q", from, to)
	}
	// Both legs of the ship carry the sync pass's trace id, like every
	// other router-initiated request (call does this automatically; the
	// streaming legs here are hand-built).
	traceID := ""
	if tr := telemetry.FromContext(ctx); tr != nil {
		traceID = tr.ID()
	}
	ctx, cancel := context.WithTimeout(ctx, r.timeout)
	defer cancel()
	get, err := http.NewRequestWithContext(ctx, http.MethodGet, fromBase+"/v1/graphs/"+id+"/sketches", nil)
	if err != nil {
		return 0, 0, err
	}
	if r.token != "" {
		get.Header.Set(service.ClusterTokenHeader, r.token)
	}
	if traceID != "" {
		get.Header.Set(telemetry.TraceHeader, traceID)
	}
	exp, err := r.client.Do(get)
	if err != nil {
		return 0, 0, err
	}
	defer exp.Body.Close()
	if exp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("export: status %d", exp.StatusCode)
	}
	counted := &countingReader{r: io.LimitReader(exp.Body, maxShipBytes)}
	post, err := http.NewRequestWithContext(ctx, http.MethodPost, toBase+"/v1/graphs/"+id+"/sketches", counted)
	if err != nil {
		return 0, 0, err
	}
	if r.token != "" {
		post.Header.Set(service.ClusterTokenHeader, r.token)
	}
	if traceID != "" {
		post.Header.Set(telemetry.TraceHeader, traceID)
	}
	imp, err := r.client.Do(post)
	if err != nil {
		return 0, 0, err
	}
	defer imp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(imp.Body, 1<<20))
	if imp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("import: status %d: %s", imp.StatusCode, raw)
	}
	var body struct {
		Imported int `json:"imported"`
	}
	_ = json.Unmarshal(raw, &body)
	return body.Imported, counted.n, nil
}

// countingReader counts the bytes drawn through it — how a ship's
// stream cost is measured without buffering the stream.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
