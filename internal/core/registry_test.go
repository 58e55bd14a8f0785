package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/imm"
	"uicwelfare/internal/prima"
	"uicwelfare/internal/progress"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/store"
	"uicwelfare/internal/utility"
)

func testProblem(t *testing.T) *Problem {
	t.Helper()
	rng := stats.NewRNG(7)
	g := graph.BarabasiAlbert(200, 3, rng).WeightedCascade()
	return MustProblem(g, utility.Config1(), []int{5, 3})
}

func TestRegistryBuiltins(t *testing.T) {
	names := Names()
	want := []string{AlgoBundleGRD, AlgoItemDisjoint, AlgoBundleDisjoint}
	for _, w := range want {
		found := false
		for _, n := range names {
			if n == w {
				found = true
			}
		}
		if !found {
			t.Errorf("builtin %q not registered (have %v)", w, names)
		}
	}
	if len(Algorithms()) != len(names) {
		t.Errorf("Algorithms() has %d entries, Names() %d", len(Algorithms()), len(names))
	}
	for _, m := range Algorithms() {
		if m.Name == "" || m.Description == "" || len(m.Cascades) == 0 {
			t.Errorf("incomplete meta: %+v", m)
		}
	}

	// The sketch-reusing planners advertise their family and implement
	// the capability; bundle-disj does neither.
	for name, family := range map[string]string{AlgoBundleGRD: "prima", AlgoItemDisjoint: "imm", AlgoBundleDisjoint: ""} {
		p, meta, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if meta.SketchFamily != family {
			t.Errorf("%s: SketchFamily = %q, want %q", name, meta.SketchFamily, family)
		}
		_, isSketch := p.(SketchPlanner)
		if isSketch != meta.SketchCacheable() {
			t.Errorf("%s: SketchPlanner = %v but SketchCacheable = %v", name, isSketch, meta.SketchCacheable())
		}
	}
}

func TestLookupDefaultAndUnknown(t *testing.T) {
	_, meta, err := Lookup("")
	if err != nil || meta.Name != DefaultAlgorithm {
		t.Fatalf("Lookup(\"\") = %v, %v; want default %s", meta.Name, err, DefaultAlgorithm)
	}
	if _, _, err := Lookup("no-such-algo"); err == nil || !strings.Contains(err.Error(), "no-such-algo") {
		t.Fatalf("unknown algorithm: err = %v", err)
	}
	if _, err := Plan(context.Background(), "no-such-algo", testProblem(t), Options{}, stats.NewRNG(1)); err == nil {
		t.Fatal("Plan with unknown algorithm succeeded")
	}
}

func TestPlanCanceledContext(t *testing.T) {
	p := testProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{AlgoBundleGRD, AlgoItemDisjoint, AlgoBundleDisjoint} {
		_, err := Plan(ctx, name, p, Options{}, stats.NewRNG(1))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s with canceled ctx: err = %v, want context.Canceled", name, err)
		}
	}
}

func TestPlanProgressEvents(t *testing.T) {
	p := testProblem(t)
	var sketchEvents int
	opts := Options{Progress: func(ev progress.Event) {
		if ev.Stage == progress.StageSketch {
			sketchEvents++
			if ev.Done <= 0 || ev.Total <= 0 || ev.Done > ev.Total || ev.Round <= 0 {
				t.Errorf("malformed sketch event: %+v", ev)
			}
		}
	}}
	if _, err := Plan(context.Background(), AlgoBundleGRD, p, opts, stats.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	if sketchEvents == 0 {
		t.Error("no sketch progress events reported")
	}
}

func TestRegisterValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty name", func() { Register("", Meta{}, func() Planner { return bundleDisjointPlanner{} }) })
	mustPanic("nil factory", func() { Register("x-nil", Meta{}, nil) })
	mustPanic("duplicate", func() {
		Register(AlgoBundleGRD, Meta{}, func() Planner { return bundleGRDPlanner{} })
	})
	mustPanic("sketch planner without family", func() {
		Register("x-sketchless", Meta{}, func() Planner { return bundleGRDPlanner{} })
	})
}

// TestBuildSketchForOwnBudgetsMatchesFamilyBuilder pins what replaced the
// budget-less sketch build: BuildSketchForBudgets on the planner's own
// canonical budgets is the family builder on the raw budgets, byte for
// byte in the .wms encoding, from the same RNG. Raw vectors are
// unsorted, duplicated and exceed n, so canonicalisation is exercised
// on both sides.
func TestBuildSketchForOwnBudgetsMatchesFamilyBuilder(t *testing.T) {
	g := graph.BarabasiAlbert(200, 3, stats.NewRNG(7)).WeightedCascade()
	ctx := context.Background()
	encode := func(sk *rrset.Sketch, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := store.EncodeSketch(&b, sk); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for _, budgets := range [][]int{{7, 15, 7, 3}, {3, g.N() + 10, 7, 7}} {
		p := MustProblem(g, utility.Config5(len(budgets)), budgets)
		family := map[string]func() (*rrset.Sketch, error){
			AlgoBundleGRD: func() (*rrset.Sketch, error) {
				return prima.BuildSketchCtx(ctx, g, p.Budgets, sketchOptions(Options{}), stats.NewRNG(5))
			},
			AlgoItemDisjoint: func() (*rrset.Sketch, error) {
				return imm.BuildSketchCtx(ctx, g, p.TotalBudget(), sketchOptions(Options{}), stats.NewRNG(5))
			},
		}
		for algo, build := range family {
			planner, _, err := Lookup(algo)
			if err != nil {
				t.Fatal(err)
			}
			sp := planner.(SketchPlanner)
			got := encode(sp.BuildSketchForBudgets(ctx, p, sp.SketchBudgets(p), Options{}, stats.NewRNG(5)))
			if want := encode(build()); !bytes.Equal(got, want) {
				t.Errorf("%s budgets %v: BuildSketchForBudgets(SketchBudgets) encodes to %d bytes differing from the family builder's %d",
					algo, budgets, len(got), len(want))
			}
		}
	}
}

// TestPlanFromSketchMemoHitAllocations is the tripwire that keeps a full
// greedy selection from creeping back onto the warm path: once a sketch
// has been selected, PlanFromSketch at k = 50 copies seeds out of the
// memo — a handful of small allocations, where a fresh NodeSelection
// allocates per-node and per-RR-set scratch (hundreds of KB on a served
// graph, tens even here).
func TestPlanFromSketchMemoHitAllocations(t *testing.T) {
	g := graph.BarabasiAlbert(2000, 3, stats.NewRNG(7)).WeightedCascade()
	prob := MustProblem(g, utility.Config1(), []int{50, 50})
	for _, algo := range []string{AlgoBundleGRD, AlgoItemDisjoint} {
		planner, _, err := Lookup(algo)
		if err != nil {
			t.Fatal(err)
		}
		sp := planner.(SketchPlanner)
		sk, err := sp.BuildSketchForBudgets(context.Background(), prob, sp.SketchBudgets(prob), Options{}, stats.NewRNG(8))
		if err != nil {
			t.Fatal(err)
		}
		plan := func() {
			if _, err := sp.PlanFromSketch(prob, sk); err != nil {
				t.Fatal(err)
			}
		}
		plan() // the one selection this sketch ever pays for

		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, plan)
		runtime.ReadMemStats(&after)
		bytesPerRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up with one extra call
		if allocs > 12 || bytesPerRun > 4<<10 {
			t.Errorf("%s: memo-hit PlanFromSketch = %.0f allocs, %d B per call; want <= 12 allocs, <= 4 KB", algo, allocs, bytesPerRun)
		}
	}
}
