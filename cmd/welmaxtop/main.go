// Command welmaxtop is a terminal console for a welmaxd node or
// cluster router: one screen that answers "what is this process doing
// right now" from the observability endpoints every welmaxd already
// serves — GET /v1/metrics?format=json for gauges, latency histograms,
// and slow-trace exemplars, GET /v1/events for the control-plane
// flight recorder's typed event tail, and GET /v1/traces/{id} for span
// waterfalls.
//
// Each refresh it shows request throughput and latency per route
// (rates are computed from successive histogram snapshots, so the
// first frame shows totals only), the operational gauges worth
// watching (cache, queue, admission, journal and trace-store health,
// per-trace resource totals), the slowest recent trace per route (from
// the histograms' bucket exemplars), and the most recent journal
// events. The event tail subscribes to the server's SSE stream so
// events appear the moment they are journaled; when the stream cannot
// be established it falls back to cursor polling and keeps retrying
// the stream each refresh.
//
// Typing a slow-trace row's number (then Enter) fetches that trace and
// renders its span waterfall — on a router, the cross-tier assembly
// with both the router's and the owning shard's spans. Typing a raw
// trace id works too; 0 clears the waterfall.
//
//	welmaxtop -addr http://localhost:8080
//	welmaxtop -addr http://localhost:8080 -interval 1s -events 25
//	welmaxtop -addr http://localhost:8080 -once        # one plain frame (no ANSI), for scripts
//	welmaxtop -addr http://localhost:8080 -graph g-abc # event tail filtered to one graph
//	welmaxtop -addr http://localhost:8080 -trace ab12  # print one trace's waterfall and exit
//
// Pointing it at a router shows the merged cluster view: the router's
// /v1/metrics relays every shard's gauges (node-labeled) and merges
// the histograms (exemplars keep the slowest trace per bucket), and
// its /v1/events merges every shard's journal time-ordered.
//
// Exit status: 0 on a rendered frame, 1 when -once (or -trace) could
// not reach the node — scripts probing a deployment get a real error,
// not an empty frame.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"uicwelfare/internal/journal"
	"uicwelfare/internal/telemetry"
)

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:8080", "welmaxd or router base URL")
		interval = flag.Duration("interval", 2*time.Second, "refresh cadence")
		events   = flag.Int("events", 15, "journal events shown in the tail")
		typeF    = flag.String("type", "", "event tail filter: comma-separated journal event types")
		graphF   = flag.String("graph", "", "event tail filter: graph id")
		nodeF    = flag.String("node", "", "event tail filter: node name")
		traceF   = flag.String("trace-filter", "", "event tail filter: trace id")
		once     = flag.Bool("once", false, "render one plain frame (no screen clearing) and exit; exits 1 when the node is unreachable")
		traceID  = flag.String("trace", "", "print one trace's span waterfall (GET /v1/traces/{id}) and exit")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-request HTTP timeout")
	)
	flag.Parse()

	base := strings.TrimRight(*addr, "/")
	// Accept a bare host:port the way curl does.
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	top := &console{
		base:   base,
		client: &http.Client{Timeout: *timeout},
		// The SSE tail lives as long as the server keeps it open; a
		// client-side timeout would sever it mid-stream.
		streamClient: &http.Client{},
		tail:         *events,
		typeF:        *typeF,
		graphF:       *graphF,
		nodeF:        *nodeF,
		traceF:       *traceF,
	}
	if *traceID != "" {
		tree, err := top.fetchTrace(*traceID)
		if err != nil {
			fmt.Fprintln(os.Stderr, "welmaxtop:", err)
			os.Exit(1)
		}
		var b strings.Builder
		renderWaterfall(&b, tree)
		fmt.Print(b.String())
		return
	}
	if *once {
		top.refresh(false)
		if !top.metricsOK {
			for _, e := range top.lastErrs {
				fmt.Fprintln(os.Stderr, "welmaxtop:", e)
			}
			os.Exit(1)
		}
		top.render(os.Stdout, false)
		return
	}
	go top.readKeys(os.Stdin)
	for {
		top.refresh(true)
		top.render(os.Stdout, true)
		time.Sleep(*interval)
	}
}

// console holds the rolling state a frame is rendered from: the last
// two metrics snapshots (for rates), the event ring, the events cursor
// (a string verbatim from the server — a bare sequence number on a
// backend, a composite node:seq list on a router), the slow-trace
// exemplar table, and the currently selected waterfall.
type console struct {
	base         string
	client       *http.Client
	streamClient *http.Client
	tail         int
	typeF        string
	graphF       string
	nodeF        string
	traceF       string

	prev      telemetry.Export
	prevAt    time.Time
	cur       telemetry.Export
	curAt     time.Time
	cursor    string
	lastErrs  []string
	metricsOK bool

	// mu guards the fields shared with the SSE-tail and key-reader
	// goroutines.
	mu        sync.Mutex
	events    []journal.Event
	streaming bool
	streamErr string
	slow      []slowTrace
	picked    string // trace id selected for the waterfall ("" = none)
	tree      *traceTree
	treeErr   string
}

// slowTrace is one row of the exemplar table: the slowest recent trace
// observed in a route's (or job kind's) latency histogram.
type slowTrace struct {
	label   string
	traceID string
	seconds float64
}

// eventsPage decodes either tier's GET /v1/events body: next_cursor is
// a JSON number on a backend and a string on the router, so it lands
// in a RawMessage and is re-serialized verbatim as the next cursor
// query parameter.
type eventsPage struct {
	Events     []journal.Event   `json:"events"`
	NextCursor json.RawMessage   `json:"next_cursor"`
	Partial    bool              `json:"partial,omitempty"`
	Errors     map[string]string `json:"errors,omitempty"`
}

// traceSpan and traceTree decode GET /v1/traces/{id} (either tier's
// form — the router's merged assembly has multi-node spans).
type traceSpan struct {
	telemetry.Span
	Node string `json:"node,omitempty"`
}

type traceTree struct {
	TraceID      string            `json:"trace_id"`
	Route        string            `json:"route,omitempty"`
	Graph        string            `json:"graph,omitempty"`
	DurationMS   float64           `json:"duration_ms"`
	Error        string            `json:"error,omitempty"`
	Kept         string            `json:"kept,omitempty"`
	Spans        []traceSpan       `json:"spans"`
	SpansDropped int64             `json:"spans_dropped,omitempty"`
	Resources    map[string]int64  `json:"resources,omitempty"`
	Partial      bool              `json:"partial,omitempty"`
	Errors       map[string]string `json:"errors,omitempty"`
}

// eventVals assembles the event tail's query parameters.
func (c *console) eventVals() url.Values {
	vals := url.Values{}
	if c.typeF != "" {
		vals.Set("type", c.typeF)
	}
	if c.graphF != "" {
		vals.Set("graph", c.graphF)
	}
	if c.nodeF != "" {
		vals.Set("node", c.nodeF)
	}
	if c.traceF != "" {
		vals.Set("trace", c.traceF)
	}
	return vals
}

// refresh fetches one metrics snapshot and tops up the event tail.
// With stream true it prefers the SSE tail (events arrive on their own
// goroutine) and only polls events while no stream is established,
// retrying the stream connect each round.
func (c *console) refresh(stream bool) {
	c.lastErrs = c.lastErrs[:0]

	var export telemetry.Export
	if err := c.getJSON("/v1/metrics?format=json", &export); err != nil {
		c.lastErrs = append(c.lastErrs, "metrics: "+err.Error())
		c.metricsOK = false
	} else {
		c.prev, c.prevAt = c.cur, c.curAt
		c.cur, c.curAt = export, time.Now()
		c.metricsOK = true
		c.updateSlow()
	}

	c.mu.Lock()
	streaming := c.streaming
	if c.streamErr != "" {
		c.lastErrs = append(c.lastErrs, c.streamErr)
	}
	c.mu.Unlock()
	if !streaming {
		c.pollEvents()
		if stream {
			c.tryStream()
		}
	}
	c.refreshTree()
	sort.Strings(c.lastErrs)
}

// pollEvents is the cursor-paginated fallback tail (and the -once
// path): one page per refresh, appended to the ring.
func (c *console) pollEvents() {
	vals := c.eventVals()
	vals.Set("limit", strconv.Itoa(journal.MaxLimit))
	if c.cursor != "" {
		vals.Set("cursor", c.cursor)
	}
	var page eventsPage
	if err := c.getJSON("/v1/events?"+vals.Encode(), &page); err != nil {
		c.lastErrs = append(c.lastErrs, "events: "+err.Error())
		return
	}
	if next := strings.Trim(string(page.NextCursor), `"`); next != "" && next != "null" {
		c.cursor = next
	}
	c.mu.Lock()
	for _, e := range page.Events {
		c.appendEventLocked(e)
	}
	c.mu.Unlock()
	for src, msg := range page.Errors {
		c.lastErrs = append(c.lastErrs, "events["+src+"]: "+msg)
	}
}

// tryStream attempts to establish the SSE event tail. On success a
// reader goroutine feeds the ring until the stream breaks, which flips
// the console back to polling (and retrying) mode. The connect failure
// itself is not an error line — polling is the designed fallback.
func (c *console) tryStream() {
	vals := c.eventVals()
	vals.Set("stream", "1")
	if c.cursor != "" {
		vals.Set("cursor", c.cursor)
	}
	req, err := http.NewRequest(http.MethodGet, c.base+"/v1/events?"+vals.Encode(), nil)
	if err != nil {
		return
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.streamClient.Do(req)
	if err != nil {
		return
	}
	if resp.StatusCode != http.StatusOK ||
		!strings.Contains(resp.Header.Get("Content-Type"), "text/event-stream") {
		resp.Body.Close()
		return
	}
	c.mu.Lock()
	c.streaming = true
	c.streamErr = ""
	c.mu.Unlock()
	go func() {
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			var e journal.Event
			if err := json.Unmarshal([]byte(data), &e); err != nil {
				continue
			}
			c.mu.Lock()
			c.appendEventLocked(e)
			c.mu.Unlock()
		}
		c.mu.Lock()
		c.streaming = false
		c.streamErr = "events: stream dropped; polling until it reconnects"
		c.mu.Unlock()
	}()
}

// appendEventLocked appends one event to the tail ring, skipping exact
// duplicates (a stream reconnect replays what the ring already shows).
// Caller holds c.mu.
func (c *console) appendEventLocked(e journal.Event) {
	for _, have := range c.events {
		if have.Seq == e.Seq && have.Type == e.Type && have.Node == e.Node && have.TS.Equal(e.TS) {
			return
		}
	}
	c.events = append(c.events, e)
	if len(c.events) > c.tail {
		c.events = c.events[len(c.events)-c.tail:]
	}
}

// updateSlow rebuilds the slow-trace table from the current snapshot's
// histogram exemplars: the slowest exemplar per route (HTTP histogram)
// and per job kind, slowest first.
func (c *console) updateSlow() {
	best := map[string]slowTrace{}
	for _, h := range c.cur.Histograms {
		var label string
		switch h.Name {
		case "welmax_http_request_duration_seconds":
			label = labelValue(h.Labels, "route")
		case "welmax_job_duration_seconds":
			label = "job:" + labelValue(h.Labels, "kind")
		default:
			continue
		}
		for _, ex := range h.Exemplars {
			if ex.TraceID == "" {
				continue
			}
			if cur, ok := best[label]; !ok || ex.Seconds > cur.seconds {
				best[label] = slowTrace{label: label, traceID: ex.TraceID, seconds: ex.Seconds}
			}
		}
	}
	rows := make([]slowTrace, 0, len(best))
	for _, r := range best {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].seconds != rows[j].seconds {
			return rows[i].seconds > rows[j].seconds
		}
		return rows[i].label < rows[j].label
	})
	if len(rows) > 8 {
		rows = rows[:8]
	}
	c.mu.Lock()
	c.slow = rows
	c.mu.Unlock()
}

// readKeys turns stdin lines into waterfall selections: a slow-trace
// row number, a raw trace id, or 0/q to clear.
func (c *console) readKeys(in io.Reader) {
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		c.mu.Lock()
		switch {
		case line == "0" || line == "q" || line == "c":
			c.picked, c.tree, c.treeErr = "", nil, ""
		default:
			if n, err := strconv.Atoi(line); err == nil {
				if n >= 1 && n <= len(c.slow) {
					c.picked = c.slow[n-1].traceID
				}
			} else {
				c.picked = line
			}
		}
		c.mu.Unlock()
	}
}

// refreshTree fetches the selected trace's tree when the selection
// changed (or last fetch failed — the trace may still be in flight).
func (c *console) refreshTree() {
	c.mu.Lock()
	picked := c.picked
	have := c.tree != nil && c.tree.TraceID == picked
	c.mu.Unlock()
	if picked == "" || have {
		return
	}
	tree, err := c.fetchTrace(picked)
	c.mu.Lock()
	if err != nil {
		c.tree, c.treeErr = nil, err.Error()
	} else {
		c.tree, c.treeErr = tree, ""
	}
	c.mu.Unlock()
}

func (c *console) fetchTrace(id string) (*traceTree, error) {
	var tree traceTree
	if err := c.getJSON("/v1/traces/"+url.PathEscape(id), &tree); err != nil {
		return nil, fmt.Errorf("trace %s: %w", id, err)
	}
	return &tree, nil
}

func (c *console) getJSON(path string, out any) error {
	resp, err := c.client.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// render draws one frame. With ansi it repaints in place (clear +
// home); without it the frame is plain text suitable for piping.
func (c *console) render(w io.Writer, ansi bool) {
	var b strings.Builder
	if ansi {
		b.WriteString("\x1b[2J\x1b[H")
	}
	mode := "poll"
	c.mu.Lock()
	if c.streaming {
		mode = "live"
	}
	c.mu.Unlock()
	fmt.Fprintf(&b, "welmaxtop  %s  %s  events:%s\n", c.base, time.Now().Format("15:04:05"), mode)
	for _, e := range c.lastErrs {
		fmt.Fprintf(&b, "  ! %s\n", e)
	}
	b.WriteByte('\n')

	c.renderRoutes(&b)
	c.renderGauges(&b)
	c.renderSlow(&b)
	c.renderEvents(&b)
	c.renderTree(&b)
	fmt.Fprint(w, b.String())
}

// renderRoutes shows per-route request throughput and latency from
// welmax_http_request_duration_seconds, with rates diffed against the
// previous snapshot.
func (c *console) renderRoutes(b *strings.Builder) {
	type row struct {
		route string
		count int64
		rate  float64
		avgMS float64
		p95MS float64
	}
	prevCount := map[string]int64{}
	for _, h := range c.prev.Histograms {
		if h.Name == "welmax_http_request_duration_seconds" {
			prevCount[labelValue(h.Labels, "route")] += h.Count
		}
	}
	dt := c.curAt.Sub(c.prevAt).Seconds()
	var rows []row
	for _, h := range c.cur.Histograms {
		if h.Name != "welmax_http_request_duration_seconds" || h.Count == 0 {
			continue
		}
		route := labelValue(h.Labels, "route")
		r := row{route: route, count: h.Count, avgMS: h.SumSeconds / float64(h.Count) * 1e3, p95MS: quantileMS(h, 0.95)}
		if dt > 0 {
			if d := h.Count - prevCount[route]; d > 0 {
				r.rate = float64(d) / dt
			}
		}
		rows = append(rows, r)
	}
	if len(rows) == 0 {
		return
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].count > rows[j].count })
	fmt.Fprintf(b, "%-36s %10s %8s %9s %9s\n", "ROUTE", "REQS", "REQ/S", "AVG", "P95")
	for _, r := range rows {
		fmt.Fprintf(b, "%-36s %10d %8.1f %8.1fms %8.1fms\n", r.route, r.count, r.rate, r.avgMS, r.p95MS)
	}
	b.WriteByte('\n')
}

// watchedGauges are the operational series worth a fixed slot on the
// board, in display order.
var watchedGauges = []string{
	"welmax_graphs",
	"welmax_jobs_queue_depth",
	"welmax_workers_busy",
	"welmax_sketch_cache_entries",
	"welmax_sketch_cache_hits",
	"welmax_sketch_cache_misses",
	"welmax_sketch_cache_evictions",
	"welmax_batch_builds",
	"welmax_batch_coalesced_requests",
	"welmax_admission_rejects",
	"welmax_cluster_rebalances",
	"welmax_cluster_sketch_ships",
	"welmax_journal_events_total",
	"welmax_journal_dropped_total",
	"welmax_journal_ring_depth",
	"welmax_trace_kept_total",
	"welmax_trace_sampled_out_total",
	"welmax_trace_ring_depth",
}

func (c *console) renderGauges(b *strings.Builder) {
	byName := map[string]float64{}
	var resources []telemetry.Gauge
	for _, g := range c.cur.Gauges {
		switch g.Name {
		case "welmax_resource_total":
			resources = append(resources, g)
		default:
			// Cluster expositions carry the same series once per node;
			// summing gives the fleet view and is a no-op on one backend.
			byName[g.Name] += g.Value
		}
	}
	col := 0
	for _, name := range watchedGauges {
		v, ok := byName[name]
		if !ok {
			continue
		}
		if col%2 != 0 {
			b.WriteString("   ")
		}
		fmt.Fprintf(b, "%-32s %12s", strings.TrimPrefix(name, "welmax_"), formatValue(v))
		if col++; col%2 == 0 {
			b.WriteByte('\n')
		}
	}
	if col%2 != 0 {
		b.WriteByte('\n')
	}
	if len(resources) > 0 {
		kinds := map[string]float64{}
		for _, g := range resources {
			kinds[labelValue(g.Labels, "kind")] += g.Value
		}
		names := make([]string, 0, len(kinds))
		for k := range kinds {
			names = append(names, k)
		}
		sort.Strings(names)
		b.WriteString("resources:")
		for _, k := range names {
			fmt.Fprintf(b, "  %s=%s", k, formatValue(kinds[k]))
		}
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
}

// renderSlow shows the slowest recent trace per route from the
// histogram exemplars; typing a row's number renders its waterfall.
func (c *console) renderSlow(b *strings.Builder) {
	c.mu.Lock()
	rows := append([]slowTrace(nil), c.slow...)
	c.mu.Unlock()
	if len(rows) == 0 {
		return
	}
	b.WriteString("SLOW TRACES (type number + Enter for waterfall, 0 clears)\n")
	for i, r := range rows {
		fmt.Fprintf(b, "  [%d] %-34s %9.1fms  trace=%s\n", i+1, r.label, r.seconds*1e3, r.traceID)
	}
	b.WriteByte('\n')
}

func (c *console) renderEvents(b *strings.Builder) {
	fmt.Fprintf(b, "EVENTS (last %d)\n", c.tail)
	c.mu.Lock()
	events := append([]journal.Event(nil), c.events...)
	c.mu.Unlock()
	if len(events) == 0 {
		b.WriteString("  (none yet)\n")
		return
	}
	for _, e := range events {
		fmt.Fprintf(b, "%s  %-18s %s\n", e.TS.Format("15:04:05.000"), e.Type, eventDetail(e))
	}
}

// renderTree appends the selected trace's waterfall, if any.
func (c *console) renderTree(b *strings.Builder) {
	c.mu.Lock()
	picked, tree, treeErr := c.picked, c.tree, c.treeErr
	c.mu.Unlock()
	if picked == "" {
		return
	}
	b.WriteByte('\n')
	if tree == nil {
		msg := treeErr
		if msg == "" {
			msg = "fetching..."
		}
		fmt.Fprintf(b, "TRACE %s: %s\n", picked, msg)
		return
	}
	renderWaterfall(b, tree)
}

// renderWaterfall draws one trace's span tree as an indented waterfall:
// children under parents, each bar positioned and scaled on the trace's
// own time axis.
func renderWaterfall(b *strings.Builder, t *traceTree) {
	fmt.Fprintf(b, "TRACE %s", t.TraceID)
	if t.Route != "" {
		fmt.Fprintf(b, "  route=%s", t.Route)
	}
	if t.Graph != "" {
		fmt.Fprintf(b, "  graph=%s", t.Graph)
	}
	fmt.Fprintf(b, "  %.1fms", t.DurationMS)
	if t.Error != "" {
		fmt.Fprintf(b, "  error=%s", t.Error)
	}
	if t.Partial {
		b.WriteString("  (partial)")
	}
	b.WriteByte('\n')
	if t.SpansDropped > 0 {
		fmt.Fprintf(b, "  (%d spans dropped at the per-trace cap)\n", t.SpansDropped)
	}
	if len(t.Spans) == 0 {
		b.WriteString("  (no spans recorded)\n")
		return
	}

	// Time axis across every span present.
	minNS, maxNS := t.Spans[0].StartUnixNS, int64(0)
	for _, sp := range t.Spans {
		if sp.StartUnixNS < minNS {
			minNS = sp.StartUnixNS
		}
		if end := sp.StartUnixNS + int64(sp.DurationMS*1e6); end > maxNS {
			maxNS = end
		}
	}
	span := maxNS - minNS
	if span <= 0 {
		span = 1
	}
	const width = 32

	// Children under parents, roots first, each level in start order. A
	// span whose parent is not in the tree (the backend fragment viewed
	// alone roots at the router's span id) renders as a root.
	present := map[string]bool{}
	for _, sp := range t.Spans {
		present[sp.ID] = true
	}
	children := map[string][]traceSpan{}
	var roots []traceSpan
	for _, sp := range t.Spans {
		if sp.Parent != "" && present[sp.Parent] {
			children[sp.Parent] = append(children[sp.Parent], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	var draw func(sp traceSpan, depth int)
	draw = func(sp traceSpan, depth int) {
		offset := int(float64(sp.StartUnixNS-minNS) / float64(span) * width)
		bar := int(sp.DurationMS * 1e6 / float64(span) * width)
		if bar < 1 {
			bar = 1
		}
		if offset > width-1 {
			offset = width - 1
		}
		if offset+bar > width {
			bar = width - offset
		}
		lane := strings.Repeat(" ", offset) + strings.Repeat("#", bar) +
			strings.Repeat(" ", width-offset-bar)
		label := sp.Stage
		if sp.Node != "" {
			label = sp.Node + ":" + label
		}
		fmt.Fprintf(b, "  %-40s |%s| %9.2fms\n", strings.Repeat("  ", depth)+label, lane, sp.DurationMS)
		for _, ch := range children[sp.ID] {
			draw(ch, depth+1)
		}
	}
	for _, sp := range roots {
		draw(sp, 0)
	}
	if len(t.Resources) > 0 {
		kinds := make([]string, 0, len(t.Resources))
		for k := range t.Resources {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		b.WriteString("  resources:")
		for _, k := range kinds {
			fmt.Fprintf(b, "  %s=%d", k, t.Resources[k])
		}
		b.WriteByte('\n')
	}
}

// eventDetail flattens an event's populated fields into one line.
func eventDetail(e journal.Event) string {
	var parts []string
	add := func(k, v string) {
		if v != "" {
			parts = append(parts, k+"="+v)
		}
	}
	add("node", e.Node)
	add("graph", e.Graph)
	if e.From != "" || e.To != "" {
		parts = append(parts, e.From+"→"+e.To)
	}
	add("job", e.Job)
	add("sweep", e.Sweep)
	add("cell", e.Cell)
	if e.Count != 0 {
		parts = append(parts, "n="+strconv.FormatInt(e.Count, 10))
	}
	if e.Bytes != 0 {
		parts = append(parts, "bytes="+strconv.FormatInt(e.Bytes, 10))
	}
	if e.WaitMS != 0 {
		parts = append(parts, "wait="+strconv.FormatInt(e.WaitMS, 10)+"ms")
	}
	add("reason", e.Reason)
	add("err", e.Error)
	add("trace", e.TraceID)
	return strings.Join(parts, " ")
}

func labelValue(labels []telemetry.Label, name string) string {
	for _, l := range labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// quantileMS estimates a latency quantile in milliseconds from the
// snapshot's fixed power-of-two buckets (upper-bound attribution, the
// usual histogram-quantile pessimism).
func quantileMS(h telemetry.HistSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	bounds := telemetry.BucketBounds()
	target := int64(float64(h.Count) * q)
	var cum int64
	for i, n := range h.Buckets {
		cum += n
		if cum > target {
			if i < len(bounds) {
				return bounds[i] * 1e3
			}
			// +Inf bucket: the best available bound is the last finite one.
			return bounds[len(bounds)-1] * 1e3
		}
	}
	return bounds[len(bounds)-1] * 1e3
}

func formatValue(v float64) string {
	switch {
	case v >= 1e9:
		return strconv.FormatFloat(v/1e9, 'f', 1, 64) + "G"
	case v >= 1e6:
		return strconv.FormatFloat(v/1e6, 'f', 1, 64) + "M"
	case v >= 1e4:
		return strconv.FormatFloat(v/1e3, 'f', 1, 64) + "k"
	case v == float64(int64(v)):
		return strconv.FormatInt(int64(v), 10)
	default:
		return strconv.FormatFloat(v, 'f', 2, 64)
	}
}
