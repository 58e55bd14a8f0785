package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one benchmark-side span: a named interval caused by a parent
// span, all spans of one operation sharing its op id. Spans stay in
// memory during the run and are written out when it ends.
type span struct {
	Op      int    `json:"op"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"` // since the recorder was created
	EndNS   int64  `json:"end_ns"`
}

type spanRecorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	ops   int
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

func (r *spanRecorder) nextOp() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

func (r *spanRecorder) add(op int, name, parent string, start, end time.Time) {
	r.mu.Lock()
	r.spans = append(r.spans, span{Op: op, Name: name, Parent: parent, StartNS: start.Sub(r.epoch).Nanoseconds(), EndNS: end.Sub(r.epoch).Nanoseconds()})
	r.mu.Unlock()
}

// addOp records the span tree of one HTTP operation:
// op ⊃ client.post, client.wait, client.fetch.
func (r *spanRecorder) addOp(o *opResult) {
	id := r.nextOp()
	r.add(id, "op", "", o.start, o.end)
	r.add(id, "client.post", "op", o.start, o.posted)
	r.add(id, "client.wait", "op", o.posted, o.waited)
	r.add(id, "client.fetch", "op", o.waited, o.end)
}

// writeFile dumps the spans as JSON lines.
func (r *spanRecorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// memStats is the slice of runtime.MemStats the daemon's pprof listener
// prints at the end of /debug/pprof/heap?debug=1.
type memStats struct {
	totalAlloc, mallocs, numGC float64
}

func (d *daemon) memStats(ctx context.Context) (memStats, error) {
	var ms memStats
	a := newAPI("http://" + d.pprof)
	defer a.close()
	status, body, err := a.do(ctx, http.MethodGet, "/debug/pprof/heap?debug=1", nil)
	if err != nil {
		return ms, err
	}
	if status != http.StatusOK {
		return ms, fmt.Errorf("bench: pprof heap on %s: status %d", d.name, status)
	}
	found := 0
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "# ") {
			continue // the MemStats trailer is the only part read
		}
		for key, dst := range map[string]*float64{"# TotalAlloc = ": &ms.totalAlloc, "# Mallocs = ": &ms.mallocs, "# NumGC = ": &ms.numGC} {
			if rest, ok := strings.CutPrefix(line, key); ok {
				if *dst, err = strconv.ParseFloat(strings.TrimSpace(rest), 64); err != nil {
					return ms, fmt.Errorf("bench: pprof heap on %s: %q", d.name, line)
				}
				found++
			}
		}
	}
	if found != 3 {
		return ms, fmt.Errorf("bench: pprof heap on %s carries no MemStats trailer", d.name)
	}
	return ms, nil
}

func (f *fleet) memStats(ctx context.Context) (memStats, error) {
	var sum memStats
	for _, d := range f.daemons {
		m, err := d.memStats(ctx)
		if err != nil {
			return sum, err
		}
		sum.totalAlloc += m.totalAlloc
		sum.mallocs += m.mallocs
		sum.numGC += m.numGC
	}
	return sum, nil
}

// histogram is one series of GET /v1/metrics?format=json.
type histogram struct {
	Name   string `json:"name"`
	Labels []struct {
		Name  string `json:"name"`
		Value string `json:"value"`
	} `json:"labels"`
	Count   int64   `json:"count"`
	Buckets []int64 `json:"buckets"`
}

// jobHistogram fetches the daemon's own welmax_job_duration_seconds
// {kind="allocate"} buckets (through the router this is the merged
// export over its shards).
func (a *api) jobHistogram(ctx context.Context) ([]int64, error) {
	var export struct {
		Histograms []histogram `json:"histograms"`
	}
	if err := a.getJSON(ctx, "/v1/metrics?format=json", &export); err != nil {
		return nil, err
	}
	for _, h := range export.Histograms {
		if h.Name != "welmax_job_duration_seconds" {
			continue
		}
		for _, l := range h.Labels {
			if l.Name == "kind" && l.Value == "allocate" {
				return h.Buckets, nil
			}
		}
	}
	return nil, errors.New("no welmax_job_duration_seconds{kind=allocate} series")
}

// log2Bucket is the daemon's histogram bucket for a duration: the
// smallest i with d ≤ 2^i microseconds (docs/API.md, GET /v1/metrics).
func log2Bucket(d time.Duration) int {
	us := d.Microseconds()
	if us <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(us))))
}

// medianBucket is the bucket holding the median of a (delta) histogram.
func medianBucket(buckets []int64) int {
	var total int64
	for _, c := range buckets {
		total += c
	}
	var seen int64
	for i, c := range buckets {
		seen += c
		if seen*2 >= total && total > 0 {
			return i
		}
	}
	return -1
}

// crossCheck compares the client's median wait with the server's own
// job-duration histogram over the same pass. The two measure different
// intervals (the client's includes a round trip, and a job can finish
// before the client subscribes), so a gap is a finding, not a failure.
func crossCheck(m *measured, waitMS []float64, before, after []int64) {
	if len(before) != len(after) || len(after) == 0 {
		m.findings = append(m.findings, "server job histogram unavailable for the client/server cross-check")
		return
	}
	delta := make([]int64, len(after))
	for i := range after {
		delta[i] = after[i] - before[i]
	}
	clientP50 := percentile(waitMS, 50)
	cb := log2Bucket(time.Duration(clientP50 * float64(time.Millisecond)))
	sb := medianBucket(delta)
	m.set("service.server_job_p50_bucket_ms", math.Exp2(float64(sb))/1000, "ms")
	note := fmt.Sprintf("client service.wait_ms p50 %.3f ms (log2 bucket %d) vs server welmax_job_duration_seconds p50 bucket %d (≤ %.3f ms)",
		clientP50, cb, sb, math.Exp2(float64(sb))/1000)
	if d := cb - sb; d > 1 || d < -1 {
		note += " — DISAGREE by more than one bucket"
	}
	m.findings = append(m.findings, note)
}

// passCounters is everything read before and after the traced pass:
// the backends' identity counters, the front door's job-duration
// histogram, the fleet's memstats and the front daemon's CPU.
type passCounters struct {
	stats    counters
	hist     []int64
	mem      memStats
	frontCPU float64
}

func (s *session) counters(ctx context.Context, front *api) (passCounters, error) {
	var c passCounters
	var err error
	if c.stats, err = s.backendStats(ctx); err != nil {
		return c, err
	}
	if c.hist, err = front.jobHistogram(ctx); err != nil {
		return c, err
	}
	if c.mem, err = s.fleet.memStats(ctx); err != nil {
		return c, err
	}
	c.frontCPU, err = s.fleet.front.cpuSeconds()
	return c, err
}

// pass is drive for the traced run, where any failed operation ends it.
func (s *session) pass(ctx context.Context, base string, dur time.Duration, next []int) (*phase, error) {
	ph := s.drive(ctx, base, dur, next)
	if len(ph.failures) > 0 {
		return nil, fmt.Errorf("bench: %s traced pass: %w", s.w.name, errors.Join(ph.failures...))
	}
	if len(ph.ops) == 0 {
		return nil, fmt.Errorf("bench: %s traced pass completed no operation", s.w.name)
	}
	return ph, nil
}

// warmProbe sends the workload's first request over and over from one
// client: after the first reply its sketch is resident, so the stream
// is a warm hit on this workload's graph, budgets and eps — the common
// yardstick for service.http_overhead_ms and telemetry.overhead_pct.
func (s *session) warmProbe(ctx context.Context, base string, dur time.Duration) ([]float64, error) {
	a := newAPI(base)
	defer a.close()
	req := s.w.request(s, 0, 0)
	var lat []float64
	deadline := time.Now().Add(dur)
	for i := 0; time.Now().Before(deadline) || i < 2; i++ {
		op, err := a.allocate(ctx, req)
		if err == nil {
			err = checkResult(&op.view, req.Budgets)
		}
		if err != nil {
			return nil, fmt.Errorf("bench: %s warm probe: %w", s.w.name, err)
		}
		if i > 0 { // the first reply may have built the sketch
			lat = append(lat, op.latencyMS())
		}
	}
	return lat, nil
}

// traced is the per-layer run of one workload: an HTTP pass with
// benchmark-side spans and daemon memstats (its latency against an
// untraced pass on the same daemon is trace_overhead_pct), short probe
// passes that isolate the HTTP and proxy hops, and the in-process layer
// pass. End-to-end metrics never come from here.
func (r *runner) traced(ctx context.Context, w *workload) (*measured, error) {
	m := &measured{w: w, metrics: map[string]metric{}}
	rec := newSpanRecorder()
	s, _, err := r.provision(ctx, w, true)
	if err != nil {
		return nil, err
	}
	defer s.fleet.stop()
	front := "http://" + s.fleet.front.addr
	frontAPI := newAPI(front)
	defer frontAPI.close()

	passLen := r.measure / 5
	next := make([]int, w.clients)
	if _, err := s.pass(ctx, front, warmUp, next); err != nil {
		return nil, err
	}
	untraced, err := s.pass(ctx, front, passLen, next)
	if err != nil {
		return nil, err
	}

	before, err := s.counters(ctx, frontAPI)
	if err != nil {
		return nil, err
	}
	tp, err := s.pass(ctx, front, passLen, next)
	if err != nil {
		return nil, err
	}
	after, err := s.counters(ctx, frontAPI)
	if err != nil {
		return nil, err
	}
	delta := after.stats.sub(before.stats)
	if err := w.identity(delta, tp.ops); err != nil {
		m.problems = append(m.problems, fmt.Errorf("%s identity (traced pass): %w", w.name, err))
	}
	m.attempted, m.samples = tp.attempted, len(tp.ops)

	n := float64(len(tp.ops))
	var post, wait, fetch, unattributed []float64
	var grown, uncached float64
	stageMS := map[string]float64{}
	for _, op := range tp.ops {
		rec.addOp(op)
		post = append(post, ms(op.posted.Sub(op.start)))
		wait = append(wait, ms(op.waited.Sub(op.posted)))
		fetch = append(fetch, ms(op.end.Sub(op.waited)))
		var staged float64
		for name, st := range op.view.Stages {
			staged += st.TotalMS
			stageMS[name] += st.TotalMS
		}
		unattributed = append(unattributed, op.latencyMS()-staged)
		grown += float64(op.view.Resources["rr_sets_grown"])
		if !op.view.Result.SketchCached {
			uncached++
		}
	}
	m.set("trace_overhead_pct", (percentile(tp.latencies(), 50)/percentile(untraced.latencies(), 50)-1)*100, "%")
	m.set("service.post_ms", percentile(post, 50), "ms")
	m.set("service.wait_ms", percentile(wait, 50), "ms")
	m.set("service.fetch_ms", percentile(fetch, 50), "ms")
	m.set("service.unattributed_ms", percentile(unattributed, 50), "ms")
	// Server-side stage spans the daemon already records, per op (mean
	// over the pass, so a stage only some ops run keeps its share).
	for _, stage := range serverStages {
		m.set("service.stage."+stage+"_ms", stageMS[stage]/n, "ms")
	}
	m.set("service.cache_hit_ratio", float64(delta.cacheHits)/n, "ratio")
	m.set("service.disk_hit_ratio", float64(delta.diskHits)/n, "ratio")
	m.set("service.extend_ratio", float64(delta.sketchExtends)/n, "ratio")
	m.set("service.builds_per_req", (uncached-float64(delta.sketchExtends))/n, "1/req")
	m.set("service.rr_sets_grown_per_req", grown/n, "1/req")
	m.set("service.alloc_kb_per_req", (after.mem.totalAlloc-before.mem.totalAlloc)/1024/n, "KB")
	m.set("service.mallocs_per_req", (after.mem.mallocs-before.mem.mallocs)/n, "1/req")
	m.set("service.gc_cycles_per_s", (after.mem.numGC-before.mem.numGC)/tp.elapsed.Seconds(), "1/s")
	crossCheck(m, wait, before.hist, after.hist)

	// One-client probes: the same warm request via the front door, and
	// for a routed workload straight to the owning backend — the
	// difference is the proxy hop at equal clients.
	probeLen := passLen / 2
	frontProbe, err := s.warmProbe(ctx, front, probeLen)
	if err != nil {
		return nil, err
	}
	routerCPU, routerRSS, hop := 0.0, 0.0, 0.0
	if w.routed {
		direct, err := s.directProbe(ctx, probeLen)
		if err != nil {
			return nil, err
		}
		hop = percentile(frontProbe, 50) - percentile(direct, 50)
		routerCPU = (after.frontCPU - before.frontCPU) * 1000 / n
		if routerRSS, err = s.fleet.front.rssPeakMB(); err != nil {
			return nil, err
		}
	}
	m.set("cluster.proxy_hop_ms", hop, "ms")
	m.set("cluster.router_cpu_ms_per_req", routerCPU, "ms")
	m.set("cluster.router_rss_mb", routerRSS, "MB")

	// The same probe against a -telemetry off twin of the fleet.
	offLat, err := r.telemetryOffProbe(ctx, w, probeLen)
	if err != nil {
		return nil, err
	}
	m.set("telemetry.overhead_pct", (percentile(frontProbe, 50)/percentile(offLat, 50)-1)*100, "%")

	// Free the daemons' cores before timing layers in this process.
	s.fleet.stop()
	if err := r.layerPass(ctx, s, m, rec, percentile(frontProbe, 50)); err != nil {
		return nil, err
	}
	out := filepath.Join(r.root, "bench", "out", "trace-"+w.name+".jsonl")
	if err := rec.writeFile(out); err != nil {
		return nil, err
	}
	m.findings = append(m.findings, fmt.Sprintf("%d spans written to bench/out/trace-%s.jsonl", len(rec.spans), w.name))
	sort.Strings(m.order)
	return m, nil
}

// serverStages are the daemon's span names (docs/API.md, GET
// /v1/jobs/{id}); each becomes service.stage.<name>_ms.
var serverStages = []string{
	"admission_check", "cache_lookup", "disk_load", "sketch_spill", "batch_gather",
	"budget_merge", "rrset_grow", "rrset_grow_parallel", "greedy_select",
}

// directProbe runs the warm probe against the backend that owns graph
// 0, bypassing the router.
func (s *session) directProbe(ctx context.Context, dur time.Duration) ([]float64, error) {
	for _, d := range s.fleet.backends {
		if d.name == s.owners[0] {
			return s.warmProbe(ctx, "http://"+d.addr, dur)
		}
	}
	return nil, fmt.Errorf("bench: no backend named %q", s.owners[0])
}

// telemetryOffProbe provisions a twin fleet with -telemetry off on the
// backends and runs the warm probe there.
func (r *runner) telemetryOffProbe(ctx context.Context, w *workload, dur time.Duration) ([]float64, error) {
	off := *w
	off.flags = append(append([]string(nil), w.flags...), "-telemetry", "off")
	s, _, err := r.provision(ctx, &off, false)
	if err != nil {
		return nil, err
	}
	defer s.fleet.stop()
	return s.warmProbe(ctx, "http://"+s.fleet.front.addr, dur)
}
