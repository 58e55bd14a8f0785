package store

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"uicwelfare/internal/frame"
	"uicwelfare/internal/graph"
	"uicwelfare/internal/rrset"
)

// File extensions of the two persisted artifact kinds.
const (
	// GraphExt is the binary graph format written under <dir>/graphs and
	// by gengraph -format binary.
	GraphExt = ".wmg"
	// SketchExt is the spilled-sketch format written under <dir>/sketches.
	SketchExt = ".wms"
)

// spillKeyFormat tags every spill file name with the format of the
// cache keys its hash is taken over: "k2" since the request seed joined
// the key. A spill named under another key format (or none — the files
// written before the tag) hashes a key no lookup prints any more, so it
// would never be read or replaced; Open removes it. Bump the tag
// whenever the key format changes.
const spillKeyFormat = "k2"

// Store is the disk tier under welmaxd's in-memory state: graphs live as
// content-addressed .wmg files under <dir>/graphs, spilled sketches as
// .wms files under <dir>/sketches named <graphID>-<key format>-<keyhash>
// so a graph's sketches can be swept when it is deleted. All operations
// are safe for concurrent use: writes go through a temp file plus
// rename (a crashed daemon never leaves a half-written artifact a
// restart would trust — the checksum catches any that slip through),
// and the counters are atomics exposed via Stats for GET /v1/stats.
type Store struct {
	dir string

	// maxSketchBytes bounds the sketch directory (0 = unbounded); the
	// oldest spilled files are evicted past it.
	maxSketchBytes int64

	// evictMu serializes the size-scan-and-evict pass so concurrent
	// spills don't double-delete.
	evictMu sync.Mutex
	// auditMu serializes appends to the job-history trail.
	auditMu sync.Mutex

	diskHits    atomic.Int64
	spills      atomic.Int64
	spillErrors atomic.Int64
	loadErrors  atomic.Int64
	evictions   atomic.Int64
	expired     atomic.Int64
}

// Open creates (if needed) and opens a data directory, removing the
// sketch spills named under another cache-key format (spillKeyFormat).
// maxSketchMB bounds the spilled-sketch tier in megabytes; 0 leaves it
// unbounded.
func Open(dir string, maxSketchMB int) (*Store, error) {
	for _, sub := range []string{graphsDir(dir), sketchesDir(dir), jobsDir(dir), sweepsDir(dir)} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	// Glob fails only on a malformed pattern, and a stale spill that
	// cannot be removed costs disk, not correctness: no key names it.
	spills, _ := filepath.Glob(filepath.Join(sketchesDir(dir), "*"+SketchExt))
	for _, path := range spills {
		if !strings.Contains(filepath.Base(path), "-"+spillKeyFormat+"-") {
			os.Remove(path)
		}
	}
	return &Store{dir: dir, maxSketchBytes: int64(maxSketchMB) << 20}, nil
}

// Dir returns the data directory root.
func (s *Store) Dir() string { return s.dir }

func graphsDir(dir string) string   { return filepath.Join(dir, "graphs") }
func sketchesDir(dir string) string { return filepath.Join(dir, "sketches") }

// Stats is the /v1/stats view of the disk tier.
type Stats struct {
	// Hits counts sketches served from disk instead of rebuilt.
	Hits int64 `json:"hits"`
	// Spills counts completed builds written to disk; SpillErrors counts
	// writes that failed (full disk, unwritable dir) — a nonzero value
	// means restarts will rebuild instead of loading.
	Spills      int64 `json:"spills"`
	SpillErrors int64 `json:"spill_errors"`
	// LoadErrors counts unreadable artifacts (truncated, bad checksum,
	// an inconsistent payload, a graph of another format version); a
	// sketch spill also has its file removed so the next rebuild
	// overwrites it. A sketch spill of another format version is removed
	// as a plain miss and not counted: it is what an upgrade leaves.
	LoadErrors int64 `json:"load_errors"`
	// Evictions counts spilled sketches deleted to honor the byte budget.
	Evictions int64 `json:"evictions"`
	// Expired counts spills rejected (and removed) for exceeding the
	// cache TTL at load time.
	Expired int64 `json:"expired"`
}

// Stats snapshots the disk-tier counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:        s.diskHits.Load(),
		Spills:      s.spills.Load(),
		SpillErrors: s.spillErrors.Load(),
		LoadErrors:  s.loadErrors.Load(),
		Evictions:   s.evictions.Load(),
		Expired:     s.expired.Load(),
	}
}

// SaveGraph persists a graph under its content id, keeping the caller's
// name label in the file. Saving an id that already exists is a cheap
// no-op — content addressing makes the bytes identical.
func (s *Store) SaveGraph(id, name string, g *graph.Graph) error {
	path := filepath.Join(graphsDir(s.dir), id+GraphExt)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	return frame.WriteFileAtomic(path, func(w io.Writer) error {
		return EncodeGraph(w, name, g)
	})
}

// StoredGraph is one graph recovered by LoadGraphs.
type StoredGraph struct {
	ID    string
	Name  string
	Graph *graph.Graph
}

// LoadGraphs decodes every readable graph artifact in the data
// directory, sorted by id for deterministic boot order. Unreadable files
// count as load errors and are skipped — one corrupt artifact must not
// keep the daemon from starting. A file whose name does not match its
// content hash (hand-dropped into the directory, or surviving a hash
// scheme change) is renamed to the recomputed id on the spot: the hash
// is the identity, and DeleteGraph targets <id>.wmg, so leaving the old
// name would make the graph undeletable — removed from the registry but
// resurrected at every restart.
func (s *Store) LoadGraphs() []StoredGraph {
	entries, err := os.ReadDir(graphsDir(s.dir))
	if err != nil {
		s.loadErrors.Add(1)
		return nil
	}
	var out []StoredGraph
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), GraphExt) {
			continue
		}
		path := filepath.Join(graphsDir(s.dir), e.Name())
		f, err := os.Open(path)
		if err != nil {
			s.loadErrors.Add(1)
			continue
		}
		name, g, err := DecodeGraph(f)
		f.Close()
		if err != nil {
			s.loadErrors.Add(1)
			continue
		}
		id := GraphID(g)
		if e.Name() != id+GraphExt {
			canonical := filepath.Join(graphsDir(s.dir), id+GraphExt)
			if err := os.Rename(path, canonical); err != nil {
				s.loadErrors.Add(1)
				continue // an unrenameable alias would be undeletable; skip it
			}
		}
		out = append(out, StoredGraph{ID: id, Name: name, Graph: g})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// DeleteGraph removes a graph artifact and every sketch spilled for it.
func (s *Store) DeleteGraph(id string) {
	os.Remove(filepath.Join(graphsDir(s.dir), id+GraphExt))
	matches, _ := filepath.Glob(filepath.Join(sketchesDir(s.dir), id+"-*"+SketchExt))
	for _, m := range matches {
		os.Remove(m)
	}
}

// sketchPath maps a cache key to its spill file. Keys embed budgets and
// float parameters, so they are hashed rather than used as filenames;
// the graph id prefix keeps a graph's sketches sweepable as a group, and
// the key-format tag lets Open tell a spill no key names any more.
func (s *Store) sketchPath(graphID, key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(sketchesDir(s.dir), fmt.Sprintf("%s-%s-%x%s", graphID, spillKeyFormat, sum[:12], SketchExt))
}

// SaveSketch spills a completed build to disk and enforces the byte
// budget. Spill failures are counted (Stats.SpillErrors — the operator's
// signal that persistence is broken) and returned, but are never fatal
// to the request that built the sketch — the memory tier already has it.
func (s *Store) SaveSketch(graphID, key string, sketch *rrset.Sketch) error {
	err := frame.WriteFileAtomic(s.sketchPath(graphID, key), func(w io.Writer) error {
		return EncodeSketch(w, sketch)
	})
	if err != nil {
		s.spillErrors.Add(1)
		return fmt.Errorf("store: spill %s: %w", key, err)
	}
	s.spills.Add(1)
	if s.maxSketchBytes > 0 {
		s.evictMu.Lock()
		s.evictions.Add(int64(frame.PruneOldest(sketchesDir(s.dir), SketchExt, s.maxSketchBytes)))
		s.evictMu.Unlock()
	}
	return nil
}

// LoadSketch returns the spilled sketch for a cache key, or nil on a
// miss. An unreadable file counts as a load error, is removed so the
// rebuild's spill replaces it, and reads as a miss — the caller falls
// back to building from scratch. A spill of another sketch format
// version (one left by an older build) is removed and read as a miss
// too, but is not a load error: it is the expected one-time cost of an
// upgrade, not broken persistence. A positive maxAge additionally
// rejects (and removes) spills older than it: with a cache TTL
// configured, a spill left behind by cost eviction or a restart must
// not resurrect a sketch older than the TTL promises. The file is
// opened and stat'ed once; the age check and the exact-size payload
// read share that stat.
func (s *Store) LoadSketch(graphID, key string, g *graph.Graph, maxAge time.Duration) *rrset.Sketch {
	path := s.sketchPath(graphID, key)
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil
	}
	if maxAge > 0 && time.Since(info.ModTime()) > maxAge {
		f.Close()
		os.Remove(path)
		s.expired.Add(1)
		return nil
	}
	sketch, err := DecodeSketch(&statReader{f: f, left: info.Size()}, g)
	f.Close()
	if err != nil {
		if !errors.Is(err, ErrBadVersion) {
			s.loadErrors.Add(1)
		}
		os.Remove(path)
		return nil
	}
	s.diskHits.Add(1)
	return sketch
}

// statReader reads an open file whose length its opener has already
// stat'ed: Len lets frame.Read size the payload exactly without a
// second Stat.
type statReader struct {
	f    *os.File
	left int64
}

func (r *statReader) Read(p []byte) (int, error) {
	n, err := r.f.Read(p)
	r.left -= int64(n)
	return n, err
}

func (r *statReader) Len() int { return int(r.left) }

// DeleteSketch removes one spilled sketch. The cache's TTL expiry uses
// it: an expired in-memory entry must invalidate the disk copy too, or
// the "rebuild" would just reload the same stale spill.
func (s *Store) DeleteSketch(graphID, key string) {
	os.Remove(s.sketchPath(graphID, key))
}

// HasSketch reports whether a spill exists for the key without decoding
// it (used by stats-minded callers and tests).
func (s *Store) HasSketch(graphID, key string) bool {
	_, err := os.Stat(s.sketchPath(graphID, key))
	return err == nil
}

// SaveGraphFile writes a standalone .wmg file (gengraph's binary output
// mode) outside any data directory.
func SaveGraphFile(path, name string, g *graph.Graph) error {
	return frame.WriteFileAtomic(path, func(w io.Writer) error {
		return EncodeGraph(w, name, g)
	})
}

// LoadGraphFile loads a graph from either format, sniffing the magic
// bytes: a .wmg binary file decodes directly (binary=true; its stored
// probabilities are authoritative, so callers skip their
// weighted-cascade reset), anything else parses as a text edge list with
// the usual undirected handling.
func LoadGraphFile(path string, undirected bool) (g *graph.Graph, binary bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	var magic [8]byte
	n, _ := f.Read(magic[:])
	if _, err := f.Seek(0, 0); err != nil {
		return nil, false, err
	}
	if n == len(magic) && string(magic[:]) == GraphMagic {
		_, g, err := DecodeGraph(f)
		return g, true, err
	}
	g, err = graph.ReadEdgeList(f, undirected)
	return g, false, err
}
