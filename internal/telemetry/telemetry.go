// Package telemetry is welmaxd's observability substrate: request
// traces with per-stage span timing, and lock-free log-bucketed latency
// histograms exported in Prometheus text format. It sits below every
// other tier (no repo-internal imports), so the sketch builders
// (rrset, imm, prima), the service, the batch scheduler, and the
// cluster router can all record into one shared vocabulary:
//
//   - a Trace is minted per request (or adopted from the TraceHeader),
//     travels in the context, and records real spans — start timestamp,
//     duration, parent span id, per-span resource deltas — capped per
//     trace with counted drops, alongside the bounded per-stage
//     aggregate totals that job records keep;
//   - StartSpan(ctx, stage) times one stage occurrence and is a no-op
//     without a trace in ctx (library callers pay nothing); WithSpan
//     additionally threads the new span through the context so nested
//     spans parent under it, and SpanHeader carries the parent id
//     across the router→shard hop so both processes' spans assemble
//     into one tree;
//   - Metrics is a registry of labeled histograms whose bucket
//     increments are plain atomics, exportable as Prometheus text or as
//     a JSON Export the cluster router merges across shards.
package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader is the HTTP header carrying a request's trace id. The
// cluster router mints one when the client did not send one, backends
// adopt an inbound id or mint their own, and every response echoes the
// id back so a client can correlate its request with job records, SSE
// events, and slow-request logs.
const TraceHeader = "X-Welmax-Trace-Id"

// SpanHeader is the HTTP header carrying the caller's current span id
// alongside TraceHeader. The cluster router sets it on the backend hop
// so the backend's spans parent under the router's proxy span and the
// two processes' fragments assemble into one tree.
const SpanHeader = "X-Welmax-Span-Id"

// MaxSpans bounds the span records retained per trace. A sketch build
// can legitimately record many spans; past the cap the aggregate
// per-stage totals keep accumulating and the trace counts the dropped
// span records instead of growing without bound.
const MaxSpans = 512

// maxTraceIDLen bounds adopted trace ids: the id is echoed into logs,
// job records, and SSE frames, so an unbounded client-chosen value
// would let one request bloat all three.
const maxTraceIDLen = 64

// NewTraceID mints a random 16-hex-digit trace id.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; here a
		// constant id only degrades correlation, so don't.
		return "trace-rand-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// SanitizeID normalizes an externally supplied trace id: control
// characters (which would corrupt log lines and SSE frames) are
// stripped, overlong ids are truncated, and an empty result mints a
// fresh id.
func SanitizeID(id string) string {
	clean := make([]byte, 0, len(id))
	for i := 0; i < len(id) && len(clean) < maxTraceIDLen; i++ {
		if c := id[i]; c > 0x20 && c < 0x7f {
			clean = append(clean, c)
		}
	}
	if len(clean) == 0 {
		return NewTraceID()
	}
	return string(clean)
}

// spanPrefix is this process's span-id prefix: 4 random bytes minted
// at init. Span ids are prefix + a process-local counter, so minting
// one is an atomic add (cheap enough for the build hot path) while ids
// stay unique across the router and backend halves of one trace.
var spanPrefix = func() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "spanrand"
	}
	return hex.EncodeToString(b[:])
}()

var spanCounter atomic.Uint64

// newSpanID mints a process-unique span id in one allocation.
func newSpanID() string {
	buf := make([]byte, 0, len(spanPrefix)+14)
	buf = append(buf, spanPrefix...)
	buf = append(buf, '-')
	buf = strconv.AppendUint(buf, spanCounter.Add(1), 36)
	return string(buf)
}

// Span is one recorded stage occurrence within a trace: when it
// started (wall clock; durations are measured on the monotonic clock),
// how long it ran, which span it ran under, and the resource deltas
// attributed to it while it was open. Parent is empty for spans rooted
// at the trace itself (or at the inbound SpanHeader parent on a
// backend).
type Span struct {
	ID          string           `json:"id"`
	Parent      string           `json:"parent,omitempty"`
	Stage       string           `json:"stage"`
	StartUnixNS int64            `json:"start_unix_ns"`
	DurationMS  float64          `json:"duration_ms"`
	Resources   map[string]int64 `json:"resources,omitempty"`
}

// StageStats is the accumulated timing of one named stage within a
// trace: how many spans ran and their total duration. It is the wire
// form stored on job records (JobView.Stages → history.jsonl).
type StageStats struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
}

// Total returns the accumulated duration.
func (s StageStats) Total() time.Duration {
	return time.Duration(s.TotalMS * float64(time.Millisecond))
}

// Resource kinds accumulated per trace by the serving tiers. Like
// stage names they are an open vocabulary — these constants just keep
// the recorders and the readers (JobView.Resources, the slow-request
// log, welmax_resource_total) spelling them identically.
const (
	ResRRSetsGrown      = "rr_sets_grown"
	ResSketchBytesBuilt = "sketch_bytes_built"
	ResCacheHits        = "cache_hits"
	ResCacheMisses      = "cache_misses"
	ResBytesShipped     = "bytes_shipped"
)

// resourceTotals aggregates every AddResource across all traces in the
// process — the backing store of the welmax_resource_total{kind}
// counters. Bounded by the resource-kind vocabulary, not by traffic.
var (
	resTotalsMu sync.Mutex
	resTotals   = map[string]int64{}
)

// ResourceTotals snapshots the process-wide per-kind resource counters.
func ResourceTotals() map[string]int64 {
	resTotalsMu.Lock()
	defer resTotalsMu.Unlock()
	out := make(map[string]int64, len(resTotals))
	for k, v := range resTotals {
		out[k] = v
	}
	return out
}

// Trace accumulates the spans of one request. Two representations are
// kept: bounded per-stage aggregate totals (the wire form job records
// store, however many spans a build records) and the individual span
// records themselves — start timestamp, duration, parent id, per-span
// resource deltas — capped at MaxSpans with counted drops. A nil
// *Trace is valid everywhere and records nothing; a disabled trace
// keeps its id (cheap correlation stays on) but drops span timings.
type Trace struct {
	id      string
	enabled bool
	start   time.Time

	mu        sync.Mutex
	family    string
	parent    string // inbound SpanHeader parent; roots top-level spans
	stages    map[string]StageStats
	resources map[string]int64
	spans     []Span
	openRes   map[string]map[string]int64 // resource deltas of still-open spans
	dropped   int64                       // span records lost to the MaxSpans cap
}

// NewTrace returns a trace with the given id. enabled=false keeps the
// id for correlation but makes every span a no-op (-telemetry=off).
func NewTrace(id string, enabled bool) *Trace {
	return &Trace{id: id, enabled: enabled, start: time.Now()}
}

// Start returns the trace's creation time (zero on a nil trace).
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// SetParent records the inbound parent span id (the caller's current
// span, from SpanHeader): top-level spans of this trace parent under
// it, which is what stitches a backend's spans under the router's.
func (t *Trace) SetParent(spanID string) {
	if t == nil || spanID == "" {
		return
	}
	t.mu.Lock()
	t.parent = spanID
	t.mu.Unlock()
}

// Parent returns the inbound parent span id ("" when none).
func (t *Trace) Parent() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.parent
}

// ID returns the trace id ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Enabled reports whether spans are recorded.
func (t *Trace) Enabled() bool { return t != nil && t.enabled }

// SetFamily labels the trace with the planner's sketch family
// ("prima", "imm"); the stage-duration histograms carry it.
func (t *Trace) SetFamily(family string) {
	if t == nil || family == "" {
		return
	}
	t.mu.Lock()
	t.family = family
	t.mu.Unlock()
}

// Family returns the sketch-family label ("" when unset or nil).
func (t *Trace) Family() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.family
}

// Record adds one completed span of the named stage.
func (t *Trace) Record(stage string, d time.Duration) {
	if !t.Enabled() {
		return
	}
	if d < 0 {
		d = 0
	}
	t.mu.Lock()
	if t.stages == nil {
		t.stages = map[string]StageStats{}
	}
	st := t.stages[stage]
	st.Count++
	st.TotalMS += float64(d) / float64(time.Millisecond)
	t.stages[stage] = st
	t.mu.Unlock()
}

// StartSpan starts timing one occurrence of stage and returns the
// function ending it. The end function is idempotent and safe to call
// from a different goroutine than the starter — hot paths that may end
// a span early (e.g. a cache-lookup span ended when the build callback
// starts, or a batch-gather span ended from the scheduler's timer
// goroutine) can also defer it safely. On a nil or disabled trace both
// directions are no-ops. The span parents under the trace's inbound
// parent; use WithSpan (or startSpan) to nest under another span.
func (t *Trace) StartSpan(stage string) func() {
	_, end := t.startSpan(stage, t.Parent())
	return end
}

// startSpan starts one span under the given parent id, returning the
// new span's id and the idempotent end function. On a nil or disabled
// trace the id is "" and the end function a no-op.
func (t *Trace) startSpan(stage, parent string) (string, func()) {
	if !t.Enabled() {
		return "", func() {}
	}
	id := newSpanID()
	start := time.Now()
	var ended atomic.Bool
	return id, func() {
		if ended.Swap(true) {
			return
		}
		t.finishSpan(Span{ID: id, Parent: parent, Stage: stage, StartUnixNS: start.UnixNano()}, time.Since(start))
	}
}

// finishSpan records one completed span: the stage aggregate always
// accumulates; the span record itself is retained up to MaxSpans (past
// it only the drop counter advances) and picks up whatever resource
// deltas were attributed to the span while it was open.
func (t *Trace) finishSpan(sp Span, d time.Duration) {
	if d < 0 {
		d = 0
	}
	sp.DurationMS = float64(d) / float64(time.Millisecond)
	t.mu.Lock()
	if t.stages == nil {
		t.stages = map[string]StageStats{}
	}
	st := t.stages[sp.Stage]
	st.Count++
	st.TotalMS += sp.DurationMS
	t.stages[sp.Stage] = st
	if res := t.openRes[sp.ID]; res != nil {
		sp.Resources = res
		delete(t.openRes, sp.ID)
	}
	switch {
	case t.spans == nil:
		// Pre-size for a typical request (a handful of stages) so the
		// hot path never regrows the slice span by span.
		t.spans = make([]Span, 0, 8)
		t.spans = append(t.spans, sp)
	case len(t.spans) < MaxSpans:
		t.spans = append(t.spans, sp)
	default:
		t.dropped++
	}
	t.mu.Unlock()
}

// Spans snapshots the retained span records (nil when none).
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		return nil
	}
	return append([]Span(nil), t.spans...)
}

// DroppedSpans returns how many span records the MaxSpans cap dropped.
func (t *Trace) DroppedSpans() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// AddResource accumulates n units of a resource kind against the
// trace (rr_sets_grown, cache_hits, bytes_shipped, ...) and against
// the process-wide totals. Like span timings it is gated on Enabled,
// so -telemetry=off requests pay nothing.
func (t *Trace) AddResource(kind string, n int64) {
	t.addResource("", kind, n)
}

// addResource is AddResource with optional attribution to a still-open
// span: when spanID is non-empty the delta also lands on that span's
// record when it finishes (deltas for spans the cap later drops are
// discarded with the record).
func (t *Trace) addResource(spanID, kind string, n int64) {
	if !t.Enabled() || n == 0 {
		return
	}
	t.mu.Lock()
	if t.resources == nil {
		t.resources = map[string]int64{}
	}
	t.resources[kind] += n
	if spanID != "" {
		if t.openRes == nil {
			t.openRes = map[string]map[string]int64{}
		}
		res := t.openRes[spanID]
		if res == nil {
			res = map[string]int64{}
			t.openRes[spanID] = res
		}
		res[kind] += n
	}
	t.mu.Unlock()
	resTotalsMu.Lock()
	resTotals[kind] += n
	resTotalsMu.Unlock()
}

// Resources snapshots the trace's accumulated resource counters (nil
// when nothing was recorded) — the block that lands on JobView and the
// slow-request log.
func (t *Trace) Resources() map[string]int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.resources) == 0 {
		return nil
	}
	out := make(map[string]int64, len(t.resources))
	for k, v := range t.resources {
		out[k] = v
	}
	return out
}

// Stages snapshots the accumulated per-stage timings.
func (t *Trace) Stages() map[string]StageStats {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.stages) == 0 {
		return nil
	}
	out := make(map[string]StageStats, len(t.stages))
	for k, v := range t.stages {
		out[k] = v
	}
	return out
}

// ctxKey keys the span context in a context.
type ctxKey struct{}

// spanCtx is what actually travels in the context: the trace plus the
// id of the span currently open at this point of the call tree, so
// nested StartSpan calls parent correctly.
type spanCtx struct {
	t    *Trace
	span string // "" = parent is the trace's inbound parent
}

// NewContext returns ctx carrying t (with no current span — top-level
// spans parent under the trace's inbound parent). Attaching a nil
// trace returns ctx unchanged.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, spanCtx{t: t})
}

// FromContext returns the trace carried by ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	sc, _ := ctx.Value(ctxKey{}).(spanCtx)
	return sc.t
}

// SpanIDFromContext returns the id of the span currently open in ctx,
// falling back to the trace's inbound parent and then to "". The
// router uses it to stamp SpanHeader on the backend hop.
func SpanIDFromContext(ctx context.Context) string {
	sc, _ := ctx.Value(ctxKey{}).(spanCtx)
	if sc.span != "" {
		return sc.span
	}
	return sc.t.Parent()
}

// StartSpan times one occurrence of stage against the trace in ctx,
// parenting it under the span currently open in ctx; a context without
// a trace gets a no-op end function. This is the hook the library
// tiers (rrset, imm, prima, batch) call — they stay ignorant of
// whether anyone is tracing.
func StartSpan(ctx context.Context, stage string) func() {
	sc, _ := ctx.Value(ctxKey{}).(spanCtx)
	parent := sc.span
	if parent == "" {
		parent = sc.t.Parent()
	}
	_, end := sc.t.startSpan(stage, parent)
	return end
}

// WithSpan is StartSpan, but additionally returns a context carrying
// the new span as current, so spans started under the returned context
// nest beneath it. Without a trace (or disabled) it returns ctx
// unchanged and a no-op end.
func WithSpan(ctx context.Context, stage string) (context.Context, func()) {
	sc, _ := ctx.Value(ctxKey{}).(spanCtx)
	if !sc.t.Enabled() {
		return ctx, func() {}
	}
	parent := sc.span
	if parent == "" {
		parent = sc.t.Parent()
	}
	id, end := sc.t.startSpan(stage, parent)
	return context.WithValue(ctx, ctxKey{}, spanCtx{t: sc.t, span: id}), end
}

// AddResource accumulates a resource count against the trace in ctx —
// and against the span currently open in ctx, so span records carry
// the resource deltas of the work done under them. A context without a
// trace records nothing. Same contract as StartSpan: the library tiers
// call it without knowing whether anyone is tracing.
func AddResource(ctx context.Context, kind string, n int64) {
	sc, _ := ctx.Value(ctxKey{}).(spanCtx)
	if sc.t == nil {
		return
	}
	sc.t.addResource(sc.span, kind, n)
}
