// Package tracestore retains completed request traces — the span trees
// the telemetry package records — for after-the-fact inspection via
// GET /v1/traces. It is the data-plane sibling of internal/journal:
// the journal records control-plane *decisions*, the trace store keeps
// the per-request *timelines* those decisions acted on.
//
// Kept traces land in an internal/ringlog log — a bounded in-memory
// ring (Add is called at request completion, so it does O(1) work and
// never blocks) with a best-effort asynchronous spill to CRC-framed
// segment files under <data-dir>/traces, the journal's exact
// mechanism. This package is the policy on top. Admission is
// tail-sampled: every trace that was slow, errored, or queued by
// admission control is kept, and fast successes are kept with a
// configurable probability — the interesting traces survive without
// the store having to retain every warm cache hit.
package tracestore

import (
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"uicwelfare/internal/ringlog"
	"uicwelfare/internal/telemetry"
)

// Keep reasons stamped on retained records, so a reader can tell why a
// trace survived tail sampling.
const (
	KeptSlow    = "slow"
	KeptError   = "error"
	KeptSampled = "sampled"
)

// Record is one completed trace: identity, the request it served, the
// whole-request envelope (start, duration, outcome), and the retained
// span records with their per-span resource deltas. On the router tier
// Node distinguishes the router's fragment from the backend's; the two
// fragments of one trace id assemble into a single tree through the
// parent ids their spans carry.
type Record struct {
	// Seq is the store-local sequence number; it doubles as the
	// pagination cursor for GET /v1/traces.
	Seq     uint64 `json:"seq"`
	TraceID string `json:"trace_id"`
	Node    string `json:"node,omitempty"`
	// Route names the serving surface ("allocate", "warm", "proxy", ...).
	Route string `json:"route,omitempty"`
	Graph string `json:"graph,omitempty"`

	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Error      string    `json:"error,omitempty"`
	// Slow marks a trace that bypassed sampling; Kept names the final
	// keep reason (slow, error, sampled).
	Slow bool   `json:"slow,omitempty"`
	Kept string `json:"kept,omitempty"`

	Spans        []telemetry.Span `json:"spans,omitempty"`
	SpansDropped int64            `json:"spans_dropped,omitempty"`
	Resources    map[string]int64 `json:"resources,omitempty"`
}

// Summary returns the record without its span records — the list form
// GET /v1/traces pages through (the full tree is one GET
// /v1/traces/{id} away).
func (r Record) Summary() Record {
	r.Spans = nil
	return r
}

// Segment file identity. The framing (magic, version, payload length,
// JSONL payload, CRC-32C) is internal/frame's; the ring, the spill and
// the rotation are internal/ringlog's.
const (
	// SegmentMagic opens a .wmt trace segment.
	SegmentMagic = "WMTRCE\x00\x00"
	// SegmentVersion is the current segment format version.
	SegmentVersion = 1
	// SegmentExt is the trace segment file extension.
	SegmentExt = ".wmt"
)

// ErrBadSegment reports an unreadable segment (wrong magic or version,
// truncated, or failed checksum).
var ErrBadSegment = ringlog.ErrBadSegment

// Options configures a Store. The zero value is usable: an
// in-memory-only store (no Dir, no spill) that keeps every trace.
type Options struct {
	// Node stamps every record (e.g. "b0", "router").
	Node string
	// RingSize bounds the in-memory ring (default 512 traces).
	RingSize int
	// SampleRate is the probability of keeping a trace that is neither
	// slow nor errored, clamped to [0, 1]. Negative keeps
	// none of them; the default (0 on the zero value) is rescued to 1
	// by SampleAll for tests — welmaxd passes -trace-sample.
	SampleRate float64
	// SampleAll forces SampleRate 1 (keep everything); the zero-value
	// Options then keeps every trace rather than silently none.
	SampleAll bool
	// Dir enables async segment spill when non-empty (callers pass
	// <data-dir>/traces).
	Dir string
	// SegmentBytes seals a segment once its JSONL payload reaches this
	// size (default 256 KiB).
	SegmentBytes int64
	// MaxBytes bounds the segment directory; oldest segments are
	// deleted past it (default 32 MiB; the store must not grow without
	// bound).
	MaxBytes int64
	// FlushInterval seals a non-empty pending segment even below
	// SegmentBytes, so a quiet store still reaches disk (default 5s).
	FlushInterval time.Duration
}

// Stats is the store's self-accounting, exported as gauges.
type Stats struct {
	// Offered counts every trace presented to Add; Kept the ones
	// retained; SampledOut the fast successes sampling discarded.
	Offered    int64 `json:"offered"`
	Kept       int64 `json:"kept"`
	SampledOut int64 `json:"sampled_out"`
	// Dropped counts records whose disk spill was dropped because the
	// spill channel was full (the ring still saw them).
	Dropped int64 `json:"dropped"`
	RingLen int   `json:"ring_len"`
	RingCap int   `json:"ring_cap"`
	// Segments counts segment files sealed; SpillErrors counts failed
	// segment writes.
	Segments    int64 `json:"segments"`
	SpillErrors int64 `json:"spill_errors"`
}

// Store is the tail-sampling admission in front of a ringlog of kept
// traces (with its optional async disk spill).
type Store struct {
	node   string
	sample float64
	log    *ringlog.Log[Record]

	offered    atomic.Int64
	sampledOut atomic.Int64
}

// New creates a Store. When opts.Dir is set the directory is created
// and the background spill goroutine started; Close flushes and stops
// it. Over a directory that already holds segments the sequence
// continues where the previous run's spill ended.
func New(opts Options) (*Store, error) {
	size := opts.RingSize
	if size <= 0 {
		size = 512
	}
	sample := opts.SampleRate
	if opts.SampleAll {
		sample = 1
	}
	log, err := ringlog.New[Record](ringlog.Config{
		RingSize: size,
		Dir:      opts.Dir,
		Prefix:   "traces",
		Ext:      SegmentExt,
		Magic:    SegmentMagic,
		Version:  SegmentVersion,
		// One kept trace per finished request: a quarter of the
		// journal's depth, since each record carries a span tree.
		SpillDepth:    256,
		SegmentBytes:  opts.SegmentBytes,
		MaxBytes:      opts.MaxBytes,
		FlushInterval: opts.FlushInterval,
	})
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	return &Store{node: opts.Node, sample: min(max(sample, 0), 1), log: log}, nil
}

// Add offers one completed trace to the store. Tail sampling decides
// retention: slow and errored traces are always kept; the rest survive
// with the configured sample probability. Add reports whether the
// record was kept. Safe from any goroutine; a nil
// store keeps nothing.
func (s *Store) Add(rec Record) bool {
	if s == nil {
		return false
	}
	s.offered.Add(1)
	if rec.Node == "" {
		rec.Node = s.node
	}
	if rec.Start.IsZero() {
		rec.Start = time.Now().UTC()
	}
	switch {
	case rec.Error != "":
		rec.Kept = KeptError
	case rec.Slow:
		rec.Kept = KeptSlow
	case rand.Float64() < s.sample:
		rec.Kept = KeptSampled
	default:
		s.sampledOut.Add(1)
		return false
	}
	s.log.Append(&rec, &rec.Seq)
	return true
}

// Query selects traces from the ring. The zero value returns the most
// recent DefaultLimit traces.
type Query struct {
	// After is the pagination cursor: only records with Seq > After are
	// returned. 0 starts from the oldest retained record.
	After uint64
	// Route and Graph filter on the corresponding fields when non-empty.
	Route string
	Graph string
	// MinMS drops traces faster than this many milliseconds.
	MinMS float64
	// Since drops traces started before it when non-zero.
	Since time.Time
	// Limit caps the result (default DefaultLimit, max MaxLimit).
	Limit int
}

// Query result bounds.
const (
	DefaultLimit = 50
	MaxLimit     = 500
)

// Match reports whether the record passes the query's filters (the
// cursor and limit are handled by Traces; Match is exported so the
// router can filter a merged cross-shard page with the same rules).
func (q Query) Match(r Record) bool { return q.match(&r) }

func (q Query) match(r *Record) bool {
	if q.Route != "" && r.Route != q.Route {
		return false
	}
	if q.Graph != "" && r.Graph != q.Graph {
		return false
	}
	if q.MinMS > 0 && r.DurationMS < q.MinMS {
		return false
	}
	if !q.Since.IsZero() && r.Start.Before(q.Since) {
		return false
	}
	return true
}

// Traces returns matching trace summaries (spans stripped) in sequence
// order plus the cursor to pass as After on the next call — the last
// examined sequence number, regardless of filter matches, so
// pagination advances past filtered spans of the ring too. next equals
// q.After when nothing new was examined.
func (s *Store) Traces(q Query) (records []Record, next uint64) {
	if s == nil {
		return nil, q.After
	}
	limit := q.Limit
	if limit <= 0 {
		limit = DefaultLimit
	}
	records, next = s.log.Scan(q.After, min(limit, MaxLimit), q.match)
	for i := range records {
		records[i] = records[i].Summary()
	}
	return records, next
}

// Get returns the full record (spans included) for a trace id. The
// ring is searched newest-first; on a miss the spilled segments are
// scanned newest-first, so a trace that aged out of the ring is still
// retrievable while its segment survives the byte budget.
func (s *Store) Get(id string) (Record, bool) {
	if s == nil || id == "" {
		return Record{}, false
	}
	return s.log.Find(func(r *Record) bool { return r.TraceID == id })
}

// LastSeq returns the most recently assigned sequence number (0 when
// nothing has been kept).
func (s *Store) LastSeq() uint64 {
	if s == nil {
		return 0
	}
	return s.log.LastSeq()
}

// Stats snapshots the store's counters. A nil store reports zeros.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	st := s.log.Stats()
	return Stats{
		Offered:     s.offered.Load(),
		Kept:        st.Appended,
		SampledOut:  s.sampledOut.Load(),
		Dropped:     st.Dropped,
		RingLen:     st.RingLen,
		RingCap:     st.RingCap,
		Segments:    st.Segments,
		SpillErrors: st.SpillErrors,
	}
}

// Close stops the spill goroutine after flushing any pending segment.
// The ring remains queryable. Close is a no-op for in-memory stores
// and idempotent otherwise.
func (s *Store) Close() {
	if s != nil {
		s.log.Close()
	}
}

// ReadSegment decodes one segment file, verifying magic, version,
// length, and checksum, and returns its records in kept order.
func ReadSegment(path string) ([]Record, error) {
	return ringlog.ReadSegment[Record](path, SegmentMagic, SegmentVersion)
}
