package imm

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

// TestBuildOnResidentPhase1MatchesFresh: an IMM build whose phase 1
// reads an S₁ another request left resident — grown past the prefix this
// build needs, or short of it — is byte-identical to a fresh build from
// the same seed, under IC and LT; it grows S₁ only when S₁ is short.
func TestBuildOnResidentPhase1MatchesFresh(t *testing.T) {
	g := graph.PowerLawGraph(500, 2.2, 5, stats.NewRNG(71)).WeightedCascade()
	const k, seed = 50, 72
	for _, cascade := range []graph.Cascade{graph.CascadeIC, graph.CascadeLT} {
		opts := rrset.Options{Eps: 0.5, Cascade: cascade, Workers: 2}
		fresh := BuildSketch(g, k, opts, stats.NewRNG(seed))
		// ε 0.3 reads a longer prefix of the same S₁ than ε 0.5, ε 1.5 a
		// shorter one.
		for _, other := range []struct {
			eps  float64
			past bool
		}{{0.3, true}, {1.5, false}} {
			what := fmt.Sprintf("cascade %d after ε %g", cascade, other.eps)
			var s1 residentStream
			o := opts
			o.Phase1Stream = s1.lend
			o.Eps = other.eps
			BuildSketch(g, k, o, stats.NewRNG(seed))
			resident := s1.col.Len()
			if past := resident > fresh.Phase1; past != other.past || resident == 0 {
				t.Fatalf("%s: the other build left %d sets, this build reads %d", what, resident, fresh.Phase1)
			}
			o.Eps = opts.Eps
			got := BuildSketch(g, k, o, stats.NewRNG(seed))
			if got.K != fresh.K || got.Phase1 != fresh.Phase1 || got.LB != fresh.LB ||
				!slices.Equal(got.Col.Members(), fresh.Col.Members()) || !slices.Equal(got.Col.Offsets(), fresh.Col.Offsets()) {
				t.Fatalf("%s: sketch {K%d Phase1 %d LB %g, %d sets} differs from the fresh build {K%d Phase1 %d LB %g, %d sets}",
					what, got.K, got.Phase1, got.LB, got.Col.Len(), fresh.K, fresh.Phase1, fresh.LB, fresh.Col.Len())
			}
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

// TestBuildOnPrefixMemoMatchesFresh: an IMM build whose coverage tests
// the orders earlier builds left on a resident S₁ answer — the same
// request again, or one at an ε jittered as finely as the benchmark's —
// is byte-identical to a fresh build, under IC and LT, and the repeat
// runs no greedy selection on S₁ at all.
func TestBuildOnPrefixMemoMatchesFresh(t *testing.T) {
	g := graph.PowerLawGraph(500, 2.2, 5, stats.NewRNG(71)).WeightedCascade()
	const k, seed = 50, 75
	for _, cascade := range []graph.Cascade{graph.CascadeIC, graph.CascadeLT} {
		var s1 residentStream
		for i, eps := range []float64{0.3, 0.5, 0.5, 0.5 + 1e-9} {
			what := fmt.Sprintf("cascade %d build %d at ε %g", cascade, i, eps)
			trace := telemetry.NewTrace(what, true)
			ctx := telemetry.NewContext(context.Background(), trace)
			before := s1.reused
			got, err := BuildSketchCtx(ctx, g, k, rrset.Options{Eps: eps, Cascade: cascade, Workers: 2, Phase1Stream: s1.lend}, stats.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			fresh := BuildSketch(g, k, rrset.Options{Eps: eps, Cascade: cascade, Workers: 1}, stats.NewRNG(seed))
			if got.K != fresh.K || got.Phase1 != fresh.Phase1 || got.LB != fresh.LB ||
				!slices.Equal(got.Col.Members(), fresh.Col.Members()) || !slices.Equal(got.Col.Offsets(), fresh.Col.Offsets()) ||
				!slices.Equal(got.Select().Seeds, fresh.Select().Seeds) {
				t.Fatalf("%s: sketch {K%d Phase1 %d LB %g, %d sets} differs from the fresh build {K%d Phase1 %d LB %g, %d sets}",
					what, got.K, got.Phase1, got.LB, got.Col.Len(), fresh.K, fresh.Phase1, fresh.LB, fresh.Col.Len())
			}
			reused, ran := s1.reused-before, trace.Stages()["greedy_select"].Count
			if i == 2 && (ran != 0 || reused == 0) {
				t.Fatalf("%s: a repeated build ran %d greedy selections and reused %d", what, ran, reused)
			}
		}
	}
}
