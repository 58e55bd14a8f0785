// Package journal is welmaxd's control-plane flight recorder. The data
// plane got its observability in the telemetry package (traces,
// histograms, /v1/metrics); this package records the *decisions* around
// it — membership transitions, ownership flips, sketch ships,
// rebalances, cache evictions, admission verdicts, sweep dispatch — as
// typed, timestamped events an operator (or a test) can query after the
// fact instead of reconstructing incidents from stderr.
//
// Events land in an internal/ringlog log — a bounded in-memory ring
// (Record is called from hot paths, some holding other locks, so it
// does O(1) work and never blocks) with a best-effort asynchronous
// spill to CRC-framed segment files under <data-dir>/journal/ — and
// feed live subscribers for SSE tails. This package is the policy on
// top: the event vocabulary, stamping, the query filters, subscribers.
package journal

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"uicwelfare/internal/ringlog"
)

// Event types recorded by the cluster and service tiers. The set is a
// contract: scripts/cluster_smoke.sh and the HA roadmap work assert
// against these strings.
const (
	MemberUp   = "member_up"
	MemberDown = "member_down"

	OwnershipFlip   = "ownership_flip"
	SketchShip      = "sketch_ship"
	RebalanceStart  = "rebalance_start"
	RebalanceDone   = "rebalance_done"
	RebalanceFailed = "rebalance_failed"

	CacheEvict  = "cache_evict"
	CacheExpire = "cache_expire"

	AdmissionReject      = "admission_reject"
	AdmissionRecalibrate = "admission_recalibrate"

	SweepDispatch      = "sweep_dispatch"
	SweepRetry         = "sweep_retry"
	SweepShardFailover = "sweep_shard_failover"

	JobSpill  = "job_spill"
	JobReplay = "job_replay"

	BatchFire = "batch_fire"
)

// Event is one control-plane decision. Only Type is always set; the
// remaining fields are a fixed vocabulary shared by all event types so
// the journal stays queryable (filter by graph, node, trace) without a
// per-type schema. Zero-valued fields are omitted from the JSON.
type Event struct {
	// Seq is the recorder-local monotonically increasing sequence
	// number; it doubles as the pagination cursor for GET /v1/events.
	Seq uint64 `json:"seq"`
	// TS is the wall-clock record time (the cross-shard merge key).
	TS   time.Time `json:"ts"`
	Type string    `json:"type"`
	// Node is the recording node (stamped by the Recorder).
	Node    string `json:"node,omitempty"`
	Graph   string `json:"graph,omitempty"`
	TraceID string `json:"trace_id,omitempty"`
	// Key is a sketch-cache key for cache and batch events.
	Key string `json:"key,omitempty"`
	// From/To carry node names for ownership flips and ships.
	From  string `json:"from,omitempty"`
	To    string `json:"to,omitempty"`
	Job   string `json:"job,omitempty"`
	Sweep string `json:"sweep,omitempty"`
	Cell  string `json:"cell,omitempty"`
	// Count and Bytes quantify the event (sketches shipped, entries
	// evicted, estimated admission cost, ...).
	Count  int64  `json:"count,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
	WaitMS int64  `json:"wait_ms,omitempty"`
	Reason string `json:"reason,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Segment file identity. The framing (magic, version, payload length,
// JSONL payload, CRC-32C) is internal/frame's; the ring, the spill and
// the rotation are internal/ringlog's.
const (
	// SegmentMagic opens a .wmj journal segment.
	SegmentMagic = "WMJRNL\x00\x00"
	// SegmentVersion is the current segment format version.
	SegmentVersion = 1
	// SegmentExt is the journal segment file extension.
	SegmentExt = ".wmj"
)

// ErrBadSegment reports an unreadable segment (wrong magic or version,
// truncated, or failed checksum).
var ErrBadSegment = ringlog.ErrBadSegment

// Options configures a Recorder. The zero value is usable: an
// in-memory-only journal (no Dir, no spill) with default ring size.
type Options struct {
	// Node stamps every recorded event (e.g. "b0", "router").
	Node string
	// RingSize bounds the in-memory ring (default 4096 events).
	RingSize int
	// Dir enables async segment spill when non-empty; segments are
	// written directly into it (callers pass <data-dir>/journal).
	Dir string
	// SegmentBytes seals a segment once its JSONL payload reaches this
	// size (default 256 KiB).
	SegmentBytes int64
	// MaxBytes bounds the segment directory; oldest segments are
	// deleted past it (default 32 MiB, 0 keeps the default — the
	// journal must not grow without bound).
	MaxBytes int64
	// FlushInterval seals a non-empty pending segment even below
	// SegmentBytes, so a quiet journal still reaches disk (default 5s).
	FlushInterval time.Duration
}

// Stats is the recorder's self-accounting, exported as gauges.
type Stats struct {
	// Recorded counts all events accepted into the ring.
	Recorded int64 `json:"recorded"`
	// Dropped counts events whose disk spill was dropped because the
	// spill channel was full (the ring still saw them).
	Dropped int64 `json:"dropped"`
	// RingLen/RingCap describe current ring occupancy.
	RingLen int `json:"ring_len"`
	RingCap int `json:"ring_cap"`
	// Segments counts segment files sealed; SpillErrors counts failed
	// segment writes.
	Segments    int64 `json:"segments"`
	SpillErrors int64 `json:"spill_errors"`
}

// Recorder is the flight recorder: a ringlog of recent events (with
// its optional async disk spill) plus live subscribers.
type Recorder struct {
	node string
	log  *ringlog.Log[Event]

	subMu sync.Mutex
	subs  map[chan Event]struct{}
}

// New creates a Recorder. When opts.Dir is set the directory is
// created and the background spill goroutine started; Close flushes
// and stops it. Over a directory that already holds segments the
// sequence continues where the previous run's spill ended.
func New(opts Options) (*Recorder, error) {
	size := opts.RingSize
	if size <= 0 {
		size = 4096
	}
	log, err := ringlog.New[Event](ringlog.Config{
		RingSize: size,
		Dir:      opts.Dir,
		Prefix:   "journal",
		Ext:      SegmentExt,
		Magic:    SegmentMagic,
		Version:  SegmentVersion,
		// Events come in bursts (a rebalance, an eviction sweep) far
		// shorter than this; past it the disk copy is dropped, counted.
		SpillDepth:    1024,
		SegmentBytes:  opts.SegmentBytes,
		MaxBytes:      opts.MaxBytes,
		FlushInterval: opts.FlushInterval,
	})
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Recorder{node: opts.Node, log: log, subs: make(map[chan Event]struct{})}, nil
}

// Record stamps and stores one event. It is safe to call from any
// goroutine, including ones holding unrelated locks: the ring append is
// O(1), the spill send and subscriber notifies are non-blocking, and
// nothing here does I/O.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	if e.TS.IsZero() {
		e.TS = time.Now().UTC()
	}
	if e.Node == "" {
		e.Node = r.node
	}
	r.log.Append(&e, &e.Seq)

	r.subMu.Lock()
	for ch := range r.subs {
		select {
		case ch <- e:
		default: // slow subscriber: skip, the ring has the event
		}
	}
	r.subMu.Unlock()
}

// Query selects events from the ring. The zero value returns the most
// recent DefaultLimit events.
type Query struct {
	// After is the pagination cursor: only events with Seq > After are
	// returned. 0 starts from the oldest retained event.
	After uint64
	// Type, Graph, Node, and Trace filter on the corresponding fields
	// when non-empty. Type may be a comma-separated list.
	Type  string
	Graph string
	Node  string
	Trace string
	// Since drops events recorded before it when non-zero.
	Since time.Time
	// Limit caps the result (default DefaultLimit, max MaxLimit).
	Limit int
}

// Query result bounds.
const (
	DefaultLimit = 100
	MaxLimit     = 1000
)

// types splits the Type filter's comma-separated list (nil = any).
func (q Query) types() []string {
	if q.Type == "" {
		return nil
	}
	types := strings.Split(q.Type, ",")
	for i := range types {
		types[i] = strings.TrimSpace(types[i])
	}
	return types
}

// Match reports whether the event passes the query's filters (the
// cursor and limit are handled by Events; Match is exported so the
// router can filter a merged cross-shard stream with the same rules).
func (q Query) Match(e Event) bool {
	return q.match(&e, q.types())
}

// match is Match with the Type list already split, so a ring scan
// splits it once per query rather than once per entry.
func (q Query) match(e *Event, types []string) bool {
	if types != nil && !slices.Contains(types, e.Type) {
		return false
	}
	if q.Graph != "" && e.Graph != q.Graph {
		return false
	}
	if q.Node != "" && e.Node != q.Node {
		return false
	}
	if q.Trace != "" && e.TraceID != q.Trace {
		return false
	}
	if !q.Since.IsZero() && e.TS.Before(q.Since) {
		return false
	}
	return true
}

// Events returns matching events in sequence order plus the cursor to
// pass as After on the next call (the last examined sequence number,
// regardless of filter matches, so pagination advances past filtered
// spans too). next equals q.After when nothing new was examined.
func (r *Recorder) Events(q Query) (events []Event, next uint64) {
	limit := q.Limit
	if limit <= 0 {
		limit = DefaultLimit
	}
	types := q.types()
	return r.log.Scan(q.After, min(limit, MaxLimit), func(e *Event) bool { return q.match(e, types) })
}

// LastSeq returns the most recently assigned sequence number (0 when
// nothing has been recorded). SSE tails start here.
func (r *Recorder) LastSeq() uint64 { return r.log.LastSeq() }

// Subscribe registers a live event channel. Slow subscribers miss
// events rather than blocking recorders; the returned cancel must be
// called exactly once.
func (r *Recorder) Subscribe(buffer int) (<-chan Event, func()) {
	if buffer <= 0 {
		buffer = 64
	}
	ch := make(chan Event, buffer)
	r.subMu.Lock()
	r.subs[ch] = struct{}{}
	r.subMu.Unlock()
	cancel := func() {
		r.subMu.Lock()
		delete(r.subs, ch)
		r.subMu.Unlock()
	}
	return ch, cancel
}

// Stats snapshots the recorder's counters.
func (r *Recorder) Stats() Stats {
	st := r.log.Stats()
	return Stats{
		Recorded:    st.Appended,
		Dropped:     st.Dropped,
		RingLen:     st.RingLen,
		RingCap:     st.RingCap,
		Segments:    st.Segments,
		SpillErrors: st.SpillErrors,
	}
}

// Close stops the spill goroutine after flushing any pending segment.
// The ring remains queryable. Close is a no-op for in-memory journals
// and idempotent otherwise.
func (r *Recorder) Close() {
	if r != nil {
		r.log.Close()
	}
}

// ReadSegment decodes one segment file, verifying magic, version,
// length, and checksum, and returns its events in recorded order.
func ReadSegment(path string) ([]Event, error) {
	return ringlog.ReadSegment[Event](path, SegmentMagic, SegmentVersion)
}
