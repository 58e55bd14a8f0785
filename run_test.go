package welfare

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"uicwelfare/internal/core"
	"uicwelfare/internal/service"
)

func runTestProblem(t *testing.T) *Problem {
	t.Helper()
	g, err := GenerateNetwork("flixster", 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(g, Config1(), []int{5, 3})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunDefaultsAndOptions(t *testing.T) {
	p := runTestProblem(t)
	res, err := Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != DefaultAlgorithm {
		t.Errorf("default algorithm = %q, want %q", res.Algorithm, DefaultAlgorithm)
	}
	if res.Welfare != nil {
		t.Error("welfare estimated without WithRuns")
	}
	if res.Alloc == nil || len(res.Alloc.Seeds[0]) != 5 || len(res.Alloc.Seeds[1]) != 3 {
		t.Fatalf("allocation = %+v", res.Alloc)
	}

	full, err := Run(context.Background(), p,
		WithAlgorithm(AlgoItemDisjoint),
		WithEps(0.4),
		WithEll(1),
		WithSeed(9),
		WithRuns(500),
		WithEstimateWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if full.Algorithm != AlgoItemDisjoint {
		t.Errorf("algorithm = %q", full.Algorithm)
	}
	if full.Welfare == nil || full.Welfare.Runs != 500 || full.Welfare.Mean <= 0 {
		t.Errorf("welfare = %+v", full.Welfare)
	}
}

// TestRunMatchesCorePlan pins Run's seed convention for every registered
// planner: WithSeed(s) selects seeds from NewRNG(s), exactly what
// core.Plan does when handed that RNG.
func TestRunMatchesCorePlan(t *testing.T) {
	p := runTestProblem(t)
	const seed = 5
	for _, name := range AlgorithmNames() {
		res, err := Run(context.Background(), p, WithAlgorithm(name), WithSeed(seed))
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		want, err := core.Plan(context.Background(), name, p, core.Options{}, NewRNG(seed))
		if err != nil {
			t.Fatalf("%s: core.Plan: %v", name, err)
		}
		if got, want := fmt.Sprint(res.Alloc.Seeds), fmt.Sprint(want.Alloc.Seeds); got != want {
			t.Errorf("%s: Run seeds %s, core.Plan seeds %s", name, got, want)
		}
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	p := runTestProblem(t)
	_, err := Run(context.Background(), p, WithAlgorithm("gradient-descent"))
	if err == nil || !strings.Contains(err.Error(), "gradient-descent") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunProgressAndCancellation(t *testing.T) {
	p := runTestProblem(t)

	var mu sync.Mutex
	stages := map[string]int{}
	res, err := Run(context.Background(), p,
		WithRuns(2000),
		WithProgress(func(ev Progress) {
			mu.Lock()
			stages[string(ev.Stage)]++
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Welfare == nil {
		t.Fatal("no welfare estimate")
	}
	if stages["sketch"] == 0 || stages["estimate"] == 0 {
		t.Errorf("progress stages seen: %v, want both sketch and estimate", stages)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Run: err = %v, want context.Canceled", err)
	}
}

func TestEstimateWelfareCtx(t *testing.T) {
	p := runTestProblem(t)
	res, err := Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateWelfareCtx(context.Background(), p, res.Alloc, CascadeLT, NewRNG(2), 300, 2, nil)
	if err != nil || est.Runs != 300 || est.Mean <= 0 {
		t.Fatalf("LT estimate = %+v, err = %v", est, err)
	}
	// runs <= 0 with multiple workers must clamp to one run, not panic.
	est, err = EstimateWelfareCtx(context.Background(), p, res.Alloc, CascadeIC, NewRNG(2), 0, 4, nil)
	if err != nil || est.Runs != 1 {
		t.Fatalf("clamped estimate = %+v, err = %v", est, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EstimateWelfareCtx(ctx, p, res.Alloc, CascadeIC, NewRNG(2), 10000, 2, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled estimate: err = %v", err)
	}
}

func TestAlgorithmListing(t *testing.T) {
	names := AlgorithmNames()
	if len(names) < 3 {
		t.Fatalf("registry lists %v", names)
	}
	metas := Algorithms()
	if len(metas) != len(names) {
		t.Fatalf("%d metas for %d names", len(metas), len(names))
	}
	for _, m := range metas {
		if m.Name == AlgoBundleGRD && !m.SketchCacheable() {
			t.Error("bundleGRD not sketch-cacheable")
		}
	}
}

func TestGenerateNetwork(t *testing.T) {
	g, err := GenerateNetwork("flixster", 0.02, 1)
	if err != nil || g.N() == 0 {
		t.Fatalf("g = %v, err = %v", g, err)
	}
	if _, err := GenerateNetwork("myspace", 1, 1); err == nil || !strings.Contains(err.Error(), "myspace") {
		t.Fatalf("unknown network: err = %v", err)
	}
}

// TestRunAgreesWithDaemon: the library and the daemon build one sketch
// for one seed — welfare.Run grows it on one goroutine, the daemon on
// four — so a cold allocation returns the same seeds from either. It
// holds after history too: the daemon first serves ε 0.3 at the seed,
// leaving its phase-1 stream resident and grown past what ε 0.5 reads,
// and its ε 0.5 build, reading that stream, still returns welfare.Run's
// seeds.
func TestRunAgreesWithDaemon(t *testing.T) {
	p := runTestProblem(t)
	res, err := Run(context.Background(), p, WithSeed(7), WithEps(0.5))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Options{SketchWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	entry, _, err := svc.RegisterGraph("run", p.G)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.3, 0.5} {
		daemon, err := svc.AllocateCtx(context.Background(), &service.AllocateRequest{
			GraphID: entry.ID, Budgets: p.Budgets, Seed: 7, Eps: eps,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if eps != 0.5 {
			continue
		}
		if got, want := fmt.Sprint(daemon.Allocation.Seeds), fmt.Sprint(res.Alloc.Seeds); got != want {
			t.Errorf("daemon seeds %s, welfare.Run seeds %s", got, want)
		}
	}
	if st := svc.Stats().Phase1; st.Streams != 1 || st.SetsReused == 0 {
		t.Errorf("phase1 stats %+v: want one resident stream the ε 0.5 build reused", st)
	}
}
