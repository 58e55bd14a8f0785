package main

import (
	"context"
	"math"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"uicwelfare/internal/service"
)

func TestPercentile(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 50, 7},
		{[]float64{7}, 90, 7},
		{ten, 50, 5},    // nearest rank: ceil(0.5*10) = 5th smallest
		{ten, 90, 9},    // 9th smallest, one sample beyond it
		{ten, 100, 10},  // the maximum
		{ten, 0.001, 1}, // rank clamps to the minimum
		{[]float64{1, 2, 3}, 50, 2},
	} {
		if got := percentile(tc.xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
		}
	}
	if ten[0] != 10 {
		t.Error("percentile reordered its input")
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1}, 2},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want int
	}{
		{0, 90, 0},
		{10, 90, 1},
		{100, 90, 10}, // the smallest run whose p90 has ten samples beyond it
		{99, 90, 9},
		{200, 90, 20},
		{200, 99, 2}, // why p99 is not reported on a 200-sample workload
		{240, 50, 120},
	} {
		if got := samplesBeyond(tc.n, tc.p); got != tc.want {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestWholeCycles(t *testing.T) {
	for _, tc := range []struct{ n, cycle, want int }{
		{17, 1, 17}, {17, 0, 17}, {17, 8, 16}, {16, 8, 16}, {7, 8, 0}, {9, 4, 8},
	} {
		if got := wholeCycles(tc.n, tc.cycle); got != tc.want {
			t.Errorf("wholeCycles(%d, %d) = %d, want %d", tc.n, tc.cycle, got, tc.want)
		}
	}
}

func TestBoundArithmetic(t *testing.T) {
	for _, tc := range []struct {
		base, cand float64
		better     string
		bound      float64
		worsening  float64
		within     bool
	}{
		{100, 109, "lower", 0.10, 0.09, true},
		{100, 111, "lower", 0.10, 0.11, false},
		{100, 80, "lower", 0.10, -0.20, true}, // an improvement is never a regression
		{1000, 910, "higher", 0.10, 0.09, true},
		{1000, 890, "higher", 0.10, 0.11, false},
		{1000, 1200, "higher", 0.10, -0.20, true},
		{0, 5, "lower", 0.10, 0, true}, // no base, no verdict
	} {
		if got := relativeWorsening(tc.base, tc.cand, tc.better); math.Abs(got-tc.worsening) > 1e-12 {
			t.Errorf("relativeWorsening(%v, %v, %s) = %v, want %v", tc.base, tc.cand, tc.better, got, tc.worsening)
		}
		if got := relativeWorsening(tc.base, tc.cand, tc.better) <= tc.bound; got != tc.within {
			t.Errorf("%v -> %v (%s) within bound %v = %v, want %v", tc.base, tc.cand, tc.better, tc.bound, got, tc.within)
		}
	}
}

// TestIQRShare pins the spread statistic to Python's
// statistics.quantiles(xs, n=4) — the values below were computed with it.
func TestIQRShare(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{10, 10, 10, 10}, 0},
		{[]float64{98, 102, 100, 97, 103, 101, 99, 100, 104, 96}, (102.25 - 97.75) / 100},
		{[]float64{1, 2}, (2.25 - 0.75) / 1.5}, // two points: Python clamps the interval the same way
		{[]float64{5}, 0},
	} {
		if got := iqrShare(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("iqrShare(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want int
	}{
		{0, 0}, {time.Microsecond, 0}, {2 * time.Microsecond, 1}, {3 * time.Microsecond, 2},
		{1024 * time.Microsecond, 10}, {1025 * time.Microsecond, 11}, {time.Second, 20},
	} {
		if got := log2Bucket(tc.d); got != tc.want {
			t.Errorf("log2Bucket(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
	if got := medianBucket([]int64{0, 1, 8, 1}); got != 2 {
		t.Errorf("medianBucket = %d, want 2", got)
	}
	if got := medianBucket([]int64{0, 0}); got != -1 {
		t.Errorf("medianBucket of an empty histogram = %d, want -1", got)
	}
}

func TestCheckResult(t *testing.T) {
	view := func(state string, seeds ...[]int64) *jobView {
		v := &jobView{ID: "j1", State: state, Result: &allocateResult{}}
		v.Result.Allocation.Seeds = seeds
		return v
	}
	if err := checkResult(view("done", []int64{1, 2}, []int64{3}), []int{2, 1}); err != nil {
		t.Errorf("good result rejected: %v", err)
	}
	for name, bad := range map[string]*jobView{
		"failed state":   view("failed", []int64{1, 2}, []int64{3}),
		"short item":     view("done", []int64{1}, []int64{3}),
		"duplicate seed": view("done", []int64{1, 1}, []int64{3}),
		"missing item":   view("done", []int64{1, 2}),
		"no result":      {ID: "j1", State: "done"},
	} {
		if err := checkResult(bad, []int{2, 1}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestBenchmarkSpec holds BENCHMARK.json to the driver's contract and to
// the code: workload names and reasons, the end-to-end metric set, name
// and unit alphabets, bounds within (0, 0.25], setup_s present.
func TestBenchmarkSpec(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d in the code", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d listed as %q (%q), the code has %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(m specMetric) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated name, or bad unit", m.Name, m.Unit)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		check(m)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range spec.PerLayer {
		check(m)
		if m.Bound != 0 {
			t.Errorf("per-layer metric %q carries a bound", m.Name)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or doubles as a metric name", w.name)
		}
	}
}

func TestCheckAgainst(t *testing.T) {
	listed := []specMetric{{Name: "a", Unit: "ms"}, {Name: "b", Unit: "1/s"}}
	if err := checkAgainst(listed, map[string]metric{"a": {1, "ms"}, "b": {2, "1/s"}}); err != nil {
		t.Errorf("matching set rejected: %v", err)
	}
	for name, got := range map[string]map[string]metric{
		"missing":  {"a": {1, "ms"}},
		"unlisted": {"a": {1, "ms"}, "b": {2, "1/s"}, "c": {3, "s"}},
		"unit":     {"a": {1, "s"}, "b": {2, "1/s"}},
	} {
		if err := checkAgainst(listed, got); err == nil {
			t.Errorf("%s metric set accepted", name)
		}
	}
}

// optionsFromFlags maps a workload's welmaxd flags onto the options
// cmd/welmaxd would build from them, so the smoke below serves the
// workload from the configuration the spawned daemon gets.
func optionsFromFlags(t *testing.T, w *workload, dataDir string) service.Options {
	opts := service.Options{BatchWindow: batchWindow}
	if w.dataDir {
		opts.DataDir = dataDir
	}
	for i := 0; i+1 < len(w.flags); i += 2 {
		n, err := strconv.Atoi(w.flags[i+1])
		if err != nil {
			t.Fatalf("%s: flag %s %s: %v", w.name, w.flags[i], w.flags[i+1], err)
		}
		switch w.flags[i] {
		case "-workers":
			opts.Workers = n
		case "-cache":
			opts.CacheEntries = n
		case "-disk-mb":
			opts.DiskMB = n
		default:
			t.Fatalf("%s: flag %s has no service.Options mapping in the smoke", w.name, w.flags[i])
		}
	}
	return opts
}

// TestWorkloadSmoke runs every single-node workload's set-up, request
// generator and identity assertions against an in-process service under
// httptest — no spawned binary, a 1.2k-node graph — so a broken
// generator or assertion fails here in well under two seconds instead
// of in a 25-second benchmark run.
func TestWorkloadSmoke(t *testing.T) {
	for _, w := range workloads {
		if w.routed {
			continue // needs three processes; covered by the benchmark itself
		}
		t.Run(w.name, func(t *testing.T) {
			svc, err := service.New(optionsFromFlags(t, w, t.TempDir()))
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			ts := httptest.NewServer(svc.Handler())
			defer ts.Close()
			d := &daemon{name: "httptest", addr: ts.Listener.Addr().String()}
			s := &session{w: w, seed: 3, scale: 0.05, graphs: graphCache{}, fleet: &fleet{daemons: []*daemon{d}, backends: []*daemon{d}, front: d}}
			ctx := context.Background()
			if err := s.chooseGraphs(); err != nil {
				t.Fatal(err)
			}
			if err := s.setUp(ctx); err != nil {
				t.Fatal(err)
			}
			next := make([]int, w.clients)
			if ph := s.drive(ctx, ts.URL, 50*time.Millisecond, next); len(ph.failures) > 0 {
				t.Fatalf("warm-up: %v", ph.failures)
			}
			before, err := s.backendStats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			ph := s.drive(ctx, ts.URL, 150*time.Millisecond, next)
			after, err := s.backendStats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(ph.failures) > 0 || ph.attempted != len(ph.ops) {
				t.Fatalf("%d of %d ops failed: %v", len(ph.failures), ph.attempted, ph.failures)
			}
			if len(ph.ops) == 0 || len(ph.ops)%w.cycle != 0 {
				t.Fatalf("%d ops is not a positive number of whole %d-cycles", len(ph.ops), w.cycle)
			}
			if err := w.identity(after.sub(before), ph.ops); err != nil {
				t.Errorf("identity: %v", err)
			}
			// The assertions must also be able to fail: one op fewer
			// than the counters saw breaks every identity.
			if err := w.identity(after.sub(before), ph.ops[1:]); err == nil {
				t.Error("identity still holds with an operation removed")
			}
			if _, err := s.welfare(ph.ops[len(ph.ops)-1].view.Result, 0); err != nil {
				t.Errorf("welfare estimate: %v", err)
			}
		})
	}
}
