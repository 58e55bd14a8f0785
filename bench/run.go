package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/uic"
	"uicwelfare/internal/utility"
)

// Fixed run shape. warmUp is discarded traffic before the clock starts
// (caches fill, the Go runtime's heap target settles); setUps is how
// many times set-up runs so setup_s can be a median; welfareRuns sizes
// the off-the-clock Monte-Carlo estimate of the returned allocation.
const (
	warmUp      = 2 * time.Second
	setUps      = 3
	welfareRuns = 4000
	welfareSeed = 20190630
	// maxFailures aborts a run that is failing every request instead of
	// spinning on errors for the whole measurement window.
	maxFailures = 20
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner holds what every workload run of one invocation shares.
type runner struct {
	bin, root string
	seed      uint64
	measure   time.Duration
	graphs    graphCache
}

// provision spawns a fresh fleet for w and sets it up, returning the
// session and how long spawn-to-ready took.
func (r *runner) provision(ctx context.Context, w *workload, withPprof bool) (*session, time.Duration, error) {
	s := &session{w: w, seed: r.seed, scale: 1, graphs: r.graphs}
	if err := s.chooseGraphs(); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	f, err := startFleet(ctx, r.bin, r.root, w, withPprof)
	if err != nil {
		return nil, 0, err
	}
	s.fleet = f
	if err := s.setUp(ctx); err != nil {
		f.stop()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// provisionMedian sets the workload up setUps times — each on a fresh
// fleet with fresh data directories — keeps the last one for the run,
// and reports the median spawn-to-ready time.
func (r *runner) provisionMedian(ctx context.Context, w *workload, withPprof bool) (*session, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		s, d, err := r.provision(ctx, w, withPprof)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, d.Seconds())
		if i == setUps-1 {
			return s, median(times), nil
		}
		s.fleet.stop()
	}
}

// phase is the outcome of one closed-loop pass.
type phase struct {
	ops       []*opResult // operations whose output checked out, whole cycles only
	attempted int
	failures  []error
	elapsed   time.Duration
}

func (p *phase) latencies() []float64 {
	lat := make([]float64, len(p.ops))
	for i, op := range p.ops {
		lat[i] = op.latencyMS()
	}
	return lat
}

// drive runs the workload's closed loop for about dur: each client
// sends its next request only after the previous reply is parsed, on
// its own keep-alive connection to base. next[c] is client c's request
// index; it advances across passes so warm-up and measurement continue
// one stream. A pass ends on a cycle boundary, so it may overrun dur by
// at most one cycle.
func (s *session) drive(ctx context.Context, base string, dur time.Duration, next []int) *phase {
	var (
		mu sync.Mutex
		ph phase
		wg sync.WaitGroup
	)
	perClient := make([][]*opResult, s.w.clients)
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < s.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			a := newAPI(base)
			defer a.close()
			var mine []*opResult
			defer func() { perClient[c] = mine[:wholeCycles(len(mine), s.w.cycle)] }()
			for {
				if len(mine)%s.w.cycle == 0 && !time.Now().Before(deadline) {
					return
				}
				req := s.w.request(s, c, next[c])
				next[c]++
				op, err := a.allocate(ctx, req)
				if err == nil {
					err = checkResult(&op.view, req.Budgets)
				}
				mu.Lock()
				ph.attempted++
				if err != nil {
					ph.failures = append(ph.failures, err)
				}
				abort := len(ph.failures) >= maxFailures
				mu.Unlock()
				if err == nil {
					mine = append(mine, op)
					continue
				}
				if abort || ctx.Err() != nil {
					return
				}
				// A failed op breaks its cycle: drop the cycle's earlier
				// ops and realign to the next boundary, so the cycles
				// that are reported keep their shape.
				mine = mine[:wholeCycles(len(mine), s.w.cycle)]
				next[c] += (s.w.cycle - next[c]%s.w.cycle) % s.w.cycle
			}
		}(c)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	// Client order, not finishing order: "the last operation" (whose
	// allocation welfare_mean scores) is then the same op on every run.
	for _, ops := range perClient {
		ph.ops = append(ph.ops, ops...)
	}
	return &ph
}

// measured is everything one workload run produced.
type measured struct {
	w         *workload
	metrics   map[string]metric
	order     []string // metric names in print order
	attempted int
	failed    int
	samples   int
	problems  []error  // identity or output failures; non-empty fails the command
	context   []string // what the machine was doing during the run
	findings  []string
}

func (m *measured) set(name string, v float64, unit string) {
	if _, dup := m.metrics[name]; !dup {
		m.order = append(m.order, name)
	}
	m.metrics[name] = metric{Value: v, Unit: unit}
}

func (m *measured) correct() bool { return len(m.problems) == 0 && m.failed == 0 }

// endToEnd runs one untraced measurement of w and fills the
// end-to-end numbers.
func (r *runner) endToEnd(ctx context.Context, w *workload) (*measured, error) {
	m := &measured{w: w, metrics: map[string]metric{}}
	s, setupS, err := r.provisionMedian(ctx, w, false)
	if err != nil {
		return nil, err
	}
	defer s.fleet.stop()

	base := "http://" + s.fleet.front.addr
	next := make([]int, w.clients)
	if warm := s.drive(ctx, base, warmUp, next); len(warm.failures) > 0 {
		return nil, fmt.Errorf("bench: %s warm-up: %w", w.name, errors.Join(warm.failures...))
	}
	before, err := s.backendStats(ctx)
	if err != nil {
		return nil, err
	}
	cal0 := calibrate()
	cpu0, err := snapshotCPU(s.fleet)
	if err != nil {
		return nil, err
	}
	ph := s.drive(ctx, base, r.measure, next)
	cpu1, err := snapshotCPU(s.fleet)
	if err != nil {
		return nil, err
	}
	cal1 := calibrate()
	after, err := s.backendStats(ctx)
	if err != nil {
		return nil, err
	}
	if err := s.fleet.checkAlive(); err != nil {
		return nil, err
	}
	rss, err := s.fleet.rssPeakMB()
	if err != nil {
		return nil, err
	}

	m.attempted, m.failed, m.samples = ph.attempted, len(ph.failures), len(ph.ops)
	m.problems = append(m.problems, ph.failures...)
	if len(ph.ops) == 0 {
		m.problems = append(m.problems, fmt.Errorf("%s: no operation completed", w.name))
		return m, nil
	}
	if len(ph.failures) == 0 {
		// The deltas only equal the op count when every op ran to the end.
		if err := w.identity(after.sub(before), ph.ops); err != nil {
			m.problems = append(m.problems, fmt.Errorf("%s identity: %w", w.name, err))
		}
	}
	lat := ph.latencies()
	n := float64(len(ph.ops))
	m.set("throughput_rps", n/ph.elapsed.Seconds(), "1/s")
	m.set("latency_p50_ms", percentile(lat, 50), "ms")
	m.set("latency_p90_ms", percentile(lat, 90), "ms")
	m.set("cpu_ms_per_req", (cpu1.daemons-cpu0.daemons)*1000/n, "ms")
	m.set("rss_peak_mb", rss, "MB")
	m.set("setup_s", setupS, "s")
	m.context = append(m.context, machineNote(cal0, cal1, cpu0, cpu1, ph.elapsed))
	last := ph.ops[len(ph.ops)-1]
	welfare, err := s.welfare(last.view.Result, s.graphIndex(last.req.GraphID))
	if err != nil {
		return nil, err
	}
	m.set("welfare_mean", welfare, "utility")
	return m, nil
}

// graphIndex is the session index of a registered graph id.
func (s *session) graphIndex(id string) int {
	for k, have := range s.graphIDs {
		if have == id {
			return k
		}
	}
	return 0
}

// benchGraph is the benchmark's own copy of the session's k-th graph.
func (s *session) benchGraph(k int) (*graph.Graph, error) {
	g, _, err := s.graphs.get(s.scale, s.graphSeeds[k])
	return g, err
}

// welfare is the paper's objective for an allocation the daemon
// returned: expected social welfare under UIC, estimated benchmark-side
// with a fixed Monte-Carlo seed, off the clock. A "speed-up" that
// shrinks the sketch below its guarantee shows here.
func (s *session) welfare(res *allocateResult, k int) (float64, error) {
	g, err := s.benchGraph(k)
	if err != nil {
		return 0, err
	}
	alloc := uic.NewAllocation(len(res.Allocation.Seeds))
	for item, seeds := range res.Allocation.Seeds {
		for _, v := range seeds {
			alloc.Assign(graph.NodeID(v), item)
		}
	}
	est := uic.EstimateWelfareParallelCascade(g, utility.Config1(), graph.CascadeIC, alloc, stats.NewRNG(welfareSeed), welfareRuns, 2)
	return est.Mean, nil
}
