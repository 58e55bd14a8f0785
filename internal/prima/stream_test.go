package prima

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/telemetry"
)

// residentStream lends one phase-1 stream the way the service's sketch
// cache does: the first lend keeps its fresh collection resident, later
// lends get that collection back, one holder at a time. reused sums
// the coverage tests the stream's memo answered.
type residentStream struct {
	mu     sync.Mutex
	col    *rrset.Collection
	reused int
}

func (r *residentStream) lend(_ context.Context, fresh *rrset.Collection) (*rrset.Collection, func(int, int), error) {
	r.mu.Lock()
	if r.col == nil {
		r.col = fresh
	}
	return r.col, func(_, reused int) { r.reused += reused; r.mu.Unlock() }, nil
}

// sameSketch fails unless got and want are the same sketch: family,
// ceiling, Phase1, LB, every stored set and the greedy order.
func sameSketch(t *testing.T, what string, got, want *rrset.Sketch) {
	t.Helper()
	if got.Family != want.Family || got.K != want.K || got.Phase1 != want.Phase1 || got.LB != want.LB {
		t.Fatalf("%s: sketch {%s K%d Phase1 %d LB %g}, fresh build {%s K%d Phase1 %d LB %g}", what,
			got.Family, got.K, got.Phase1, got.LB, want.Family, want.K, want.Phase1, want.LB)
	}
	if !slices.Equal(got.Col.Members(), want.Col.Members()) || !slices.Equal(got.Col.Offsets(), want.Col.Offsets()) {
		t.Fatalf("%s: final collection (%d sets) differs from the fresh build's (%d sets)", what, got.Col.Len(), want.Col.Len())
	}
	if g, w := got.Select().Seeds, want.Select().Seeds; !slices.Equal(g, w) {
		t.Fatalf("%s: seeds %v, fresh build %v", what, g, w)
	}
}

// TestBuildOnResidentPhase1MatchesFresh: a build whose phase 1 reads an
// S₁ another request left resident — grown past the prefix this build
// needs, or short of it — is byte-identical to a fresh build from the
// same seed, under IC and LT; it grows S₁ only when S₁ is short. (IMM's
// twin is imm.TestBuildOnResidentPhase1MatchesFresh.)
func TestBuildOnResidentPhase1MatchesFresh(t *testing.T) {
	g := graph.PowerLawGraph(500, 2.2, 5, stats.NewRNG(71)).WeightedCascade()
	const seed = 72
	builds := map[string]func(opts Options) *rrset.Sketch{
		"prima[10]":       func(o Options) *rrset.Sketch { return BuildSketch(g, []int{10}, o, stats.NewRNG(seed)) },
		"prima[50,50]":    func(o Options) *rrset.Sketch { return BuildSketch(g, []int{50, 50}, o, stats.NewRNG(seed)) },
		"prima[80,30,10]": func(o Options) *rrset.Sketch { return BuildSketch(g, []int{80, 30, 10}, o, stats.NewRNG(seed)) },
	}
	for _, cascade := range []graph.Cascade{graph.CascadeIC, graph.CascadeLT} {
		for name, build := range builds {
			opts := Options{Eps: 0.5, Cascade: cascade, Workers: 2}
			fresh := build(opts)
			// ε 0.3 reads a longer prefix of the same S₁ than ε 0.5, ε 1.5
			// a shorter one.
			for _, other := range []struct {
				eps  float64
				past bool
			}{{0.3, true}, {1.5, false}} {
				what := fmt.Sprintf("cascade %d %s after ε %g", cascade, name, other.eps)
				var s1 residentStream
				o := opts
				o.Phase1Stream = s1.lend
				o.Eps = other.eps
				build(o)
				resident := s1.col.Len()
				if past := resident > fresh.Phase1; past != other.past || resident == 0 {
					t.Fatalf("%s: the other build left %d sets, this build reads %d", what, resident, fresh.Phase1)
				}
				o.Eps = opts.Eps
				sameSketch(t, what, build(o), fresh)
				if want := max(resident, fresh.Phase1); s1.col.Len() != want {
					t.Fatalf("%s: S₁ holds %d sets after the build, want %d", what, s1.col.Len(), want)
				}
				// The final collection is drawn from S₂, not S₁.
				if slices.Equal(fresh.Col.Members()[:fresh.Col.Offsets()[50]], s1.col.Members()[:s1.col.Offsets()[50]]) {
					t.Fatalf("%s: the final collection repeats S₁'s sets", what)
				}
			}
		}
	}
}

// TestConcurrentBuildsShareOnePhase1 runs builds at four ε values on one
// resident S₁ at once: they take turns on it (under -race: no
// unsynchronized access) and each equals its serial fresh build.
func TestConcurrentBuildsShareOnePhase1(t *testing.T) {
	g := graph.PowerLawGraph(500, 2.2, 5, stats.NewRNG(73)).WeightedCascade()
	epss := []float64{0.3, 0.4, 0.5, 0.6}
	var s1 residentStream
	got := make([]*rrset.Sketch, len(epss))
	var wg sync.WaitGroup
	for i, eps := range epss {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = BuildSketch(g, []int{30, 20}, Options{Eps: eps, Workers: 2, Phase1Stream: s1.lend}, stats.NewRNG(74))
		}()
	}
	wg.Wait()
	for i, eps := range epss {
		sameSketch(t, fmt.Sprintf("ε %g", eps), got[i], BuildSketch(g, []int{30, 20}, Options{Eps: eps, Workers: 1}, stats.NewRNG(74)))
	}
}

// TestBuildOnPrefixMemoMatchesFresh: a build whose coverage tests the
// orders earlier builds left on a resident S₁ answer — the same request
// again, or one at an ε jittered as finely as the benchmark's — is
// byte-identical to a fresh build, under IC and LT, and the repeat runs
// no greedy selection on S₁ at all. (IMM's twin is
// imm.TestBuildOnPrefixMemoMatchesFresh.)
func TestBuildOnPrefixMemoMatchesFresh(t *testing.T) {
	g := graph.PowerLawGraph(500, 2.2, 5, stats.NewRNG(71)).WeightedCascade()
	const seed = 75
	for _, cascade := range []graph.Cascade{graph.CascadeIC, graph.CascadeLT} {
		for _, budgets := range [][]int{{10}, {50, 50}, {80, 30, 10}} {
			var s1 residentStream
			for i, eps := range []float64{0.3, 0.5, 0.5, 0.5 + 1e-9} {
				what := fmt.Sprintf("cascade %d %v build %d at ε %g", cascade, budgets, i, eps)
				trace := telemetry.NewTrace(what, true)
				ctx := telemetry.NewContext(context.Background(), trace)
				before := s1.reused
				got, err := BuildSketchCtx(ctx, g, budgets, Options{Eps: eps, Cascade: cascade, Workers: 2, Phase1Stream: s1.lend}, stats.NewRNG(seed))
				if err != nil {
					t.Fatal(err)
				}
				sameSketch(t, what, got, BuildSketch(g, budgets, Options{Eps: eps, Cascade: cascade, Workers: 1}, stats.NewRNG(seed)))
				reused, ran := s1.reused-before, trace.Stages()["greedy_select"].Count
				if i == 2 && (ran != 0 || reused == 0) {
					t.Fatalf("%s: a repeated build ran %d greedy selections and reused %d", what, ran, reused)
				}
			}
		}
	}
}
