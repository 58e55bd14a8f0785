package service

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"

	"uicwelfare/internal/expr"
	"uicwelfare/internal/graph"
	"uicwelfare/internal/store"
)

// Registry keeps graphs resident in memory so queries skip the
// load-and-parse cost of the one-shot CLIs. Graphs are immutable once
// registered and are shared read-only by all jobs.
//
// Ids are content addresses: store.GraphID hashes the canonical edge
// list, so registering the same graph twice — in one process or across
// daemon restarts — resolves to the same id. Duplicate registrations
// dedupe to the existing entry instead of consuming a second residency
// slot, and clients can cache graph ids across restarts.
//
// Residency is bounded: past the limit, registration of a *new* graph
// fails until one is deleted (graphs are whole working sets, so silent
// LRU eviction under a client's feet would be worse than an explicit
// error). Deduped registrations always succeed.
type Registry struct {
	mu     sync.RWMutex
	graphs map[string]*GraphEntry
	limit  int
}

// GraphEntry is one resident graph.
type GraphEntry struct {
	ID    string
	Name  string
	Graph *graph.Graph
}

// Info returns the wire description of the entry.
func (e *GraphEntry) Info() GraphInfo {
	return GraphInfo{ID: e.ID, Name: e.Name, Nodes: e.Graph.N(), Edges: e.Graph.M()}
}

// NewRegistry returns an empty registry holding at most limit graphs
// (default 64 if limit <= 0).
func NewRegistry(limit int) *Registry {
	if limit <= 0 {
		limit = 64
	}
	return &Registry{graphs: map[string]*GraphEntry{}, limit: limit}
}

// Add registers a graph under its content-addressed id. Registering a
// graph whose content is already resident returns the existing entry
// with existed = true (the first registration's name wins). It fails
// only when the graph is genuinely new and the registry is full.
func (r *Registry) Add(name string, g *graph.Graph) (entry *GraphEntry, existed bool, err error) {
	return r.AddWithID(store.GraphID(g), name, g)
}

// AddWithID is Add with the content address already computed — the boot
// re-index path uses it so each persisted graph is hashed once (by
// store.LoadGraphs), not twice. id must be store.GraphID(g); nothing
// else may mint ids.
func (r *Registry) AddWithID(id, name string, g *graph.Graph) (entry *GraphEntry, existed bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.graphs[id]; ok {
		return e, true, nil
	}
	if len(r.graphs) >= r.limit {
		return nil, false, fmt.Errorf("graph registry full (%d graphs); DELETE /v1/graphs/{id} to free one", r.limit)
	}
	e := &GraphEntry{ID: id, Name: name, Graph: g}
	r.graphs[e.ID] = e
	return e, false, nil
}

// Delete removes the entry with the given id, reporting whether it
// existed. Jobs already running against the graph keep their reference;
// the memory is reclaimed when they finish.
func (r *Registry) Delete(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.graphs[id]; !ok {
		return false
	}
	delete(r.graphs, id)
	return true
}

// Get returns the entry with the given id.
func (r *Registry) Get(id string) (*GraphEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.graphs[id]
	return e, ok
}

// List returns all entries ordered by id.
func (r *Registry) List() []*GraphEntry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*GraphEntry, 0, len(r.graphs))
	for _, e := range r.graphs {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of resident graphs.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.graphs)
}

// LoadGraph materializes the graph described by a GraphRequest.
func LoadGraph(req *GraphRequest) (name string, g *graph.Graph, err error) {
	sources := 0
	for _, set := range []bool{req.Network != "", req.Edges != "", req.Path != "", len(req.Wmg) > 0} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return "", nil, fmt.Errorf("exactly one of network, edges, path, wmg required")
	}
	directed := true
	if req.Directed != nil {
		directed = *req.Directed
	}
	switch {
	case req.Network != "":
		// The spec lookup is only for the size precheck; generation goes
		// through the shared error-returning path (the one
		// welfare.GenerateNetwork wraps) so an unknown name stays a
		// 400, never a panic.
		spec, err := expr.NetworkByName(req.Network)
		if err != nil {
			return "", nil, err
		}
		scale := req.Scale
		if scale <= 0 {
			scale = 1.0
		}
		if n := float64(spec.DefaultNodes) * scale; n > MaxGraphNodes {
			return "", nil, fmt.Errorf("scale %g yields %.0f nodes, over the limit of %d", scale, n, MaxGraphNodes)
		}
		name = req.Network
		g, err = expr.GenerateByName(req.Network, scale, req.Seed)
		if err != nil {
			return "", nil, err
		}
	case req.Edges != "":
		name = "inline"
		g, err = graph.ReadEdgeList(strings.NewReader(req.Edges), !directed)
		if err != nil {
			return "", nil, err
		}
		if !req.KeepProbs {
			g = g.WeightedCascade()
		}
	case len(req.Wmg) > 0:
		// Inline binary upload: probabilities are authoritative, exactly
		// like a .wmg path load, and the embedded name label is the
		// default.
		name, g, err = store.DecodeGraph(bytes.NewReader(req.Wmg))
		if err != nil {
			return "", nil, err
		}
	default:
		name = req.Path
		var binary bool
		g, binary, err = store.LoadGraphFile(req.Path, !directed)
		if err != nil {
			return "", nil, err
		}
		// Binary .wmg files carry authoritative probabilities; only text
		// edge lists get the weighted-cascade reset.
		if !binary && !req.KeepProbs {
			g = g.WeightedCascade()
		}
	}
	if req.Name != "" {
		name = req.Name
	}
	return name, g, nil
}
