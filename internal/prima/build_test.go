package prima_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/imm"
	"uicwelfare/internal/prima"
	"uicwelfare/internal/progress"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/sketchtest"
	"uicwelfare/internal/stats"
)

// primaRows are prima's rows of the build-test table in
// internal/sketchtest; imm's tests of the same names run the IMM row.
var primaRows = []sketchtest.Row{sketchtest.PRIMA(10), sketchtest.PRIMA(50, 50), sketchtest.PRIMA(80, 30, 10)}

func TestSelectMemoMatchesUncachedReference(t *testing.T) {
	sketchtest.SelectMemoMatchesUncachedReference(t, primaRows)
}

func TestSelectReportConcurrentFirstCallers(t *testing.T) {
	sketchtest.SelectReportConcurrentFirstCallers(t, primaRows)
}

func TestSelectSeedsBelongToCaller(t *testing.T) {
	sketchtest.SelectSeedsBelongToCaller(t, primaRows)
}

func TestBuildOnResidentPhase1MatchesFresh(t *testing.T) {
	sketchtest.BuildOnResidentPhase1MatchesFresh(t, primaRows)
}

func TestConcurrentBuildsShareOnePhase1(t *testing.T) {
	sketchtest.ConcurrentBuildsShareOnePhase1(t, primaRows)
}

func TestBuildOnPrefixMemoMatchesFresh(t *testing.T) {
	sketchtest.BuildOnPrefixMemoMatchesFresh(t, primaRows)
}

func TestBuildSketchCtxPreCanceled(t *testing.T) {
	sketchtest.BuildSketchCtxPreCanceled(t, primaRows)
}

func TestBuildSketchCtxCancelMidBuild(t *testing.T) {
	sketchtest.BuildSketchCtxCancelMidBuild(t, primaRows)
}

func TestBuildSketchCtxCancelDuringGrowth(t *testing.T) {
	sketchtest.BuildSketchCtxCancelDuringGrowth(t, primaRows)
}

func TestBuildSketchProgressMonotone(t *testing.T) {
	sketchtest.BuildSketchProgressMonotone(t, primaRows)
}

func TestParallelBuildWelfareMatchesSerial(t *testing.T) {
	sketchtest.ParallelBuildWelfareMatchesSerial(t, primaRows)
}

// TestExtendMatchesFreshBuild: a grown top budget, an added smaller
// budget, and the benchmark's budget_creep chain [10] → [20,10] → … →
// [80,…,10].
func TestExtendMatchesFreshBuild(t *testing.T) {
	creep := []sketchtest.Row{sketchtest.PRIMA(10)}
	for top := 20; top <= 80; top += 10 {
		budgets := []int{}
		for b := top; b >= 10; b -= 10 {
			budgets = append(budgets, b)
		}
		creep = append(creep, sketchtest.PRIMA(budgets...))
	}
	sketchtest.ExtendMatchesFreshBuild(t, [][]sketchtest.Row{
		{sketchtest.PRIMA(30), sketchtest.PRIMA(80, 30)},
		{sketchtest.PRIMA(80), sketchtest.PRIMA(80, 30, 10)},
		creep,
	})
}

func TestExtendRefusedBeforePhase1(t *testing.T) {
	sketchtest.ExtendRefusedBeforePhase1(t, primaRows)
}

// recordEvents returns opts with a Progress hook that appends every
// event it receives to the returned slice.
func recordEvents(opts rrset.Options) (rrset.Options, *[]progress.Event) {
	events := new([]progress.Event)
	opts.Progress = func(ev progress.Event) { *events = append(*events, ev) }
	return opts, events
}

// TestIMMIsPRIMAOneBudget: IMM at k is PRIMA at [k] — for |b| = 1,
// PRIMA's ℓ′ is IMM's ℓ + ln 2/ln n and Algorithm 2's loop is IMM's —
// so the two builds agree on every stored set, Phase1, K and the
// single-worker progress stream, under IC and LT, for every k ≤ n.
func TestIMMIsPRIMAOneBudget(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"barabasi-albert": graph.BarabasiAlbert(120, 3, stats.NewRNG(81)).WeightedCascade(),
		"power-law":       graph.PowerLawGraph(120, 2.2, 5, stats.NewRNG(82)).WeightedCascade(),
	}
	for name, g := range graphs {
		n := g.N()
		for _, cascade := range []graph.Cascade{graph.CascadeIC, graph.CascadeLT} {
			for _, eps := range []float64{0.1, 0.3, 0.5} {
				for _, k := range []int{1, 2, 5, 20, n - 1, n} {
					what := fmt.Sprintf("%s cascade %d ε %g k %d", name, cascade, eps, k)
					seed := uint64(90 + k)
					io, iev := recordEvents(rrset.Options{Eps: eps, Cascade: cascade, Workers: 1})
					po, pev := recordEvents(rrset.Options{Eps: eps, Cascade: cascade, Workers: 1})
					isk := imm.BuildSketch(g, k, io, stats.NewRNG(seed))
					psk := prima.BuildSketch(g, []int{k}, po, stats.NewRNG(seed))
					if isk.Family != imm.Family || psk.Family != prima.Family {
						t.Fatalf("%s: families %q and %q", what, isk.Family, psk.Family)
					}
					if isk.K != psk.K || isk.Phase1 != psk.Phase1 || isk.AllNodes != psk.AllNodes || (isk.Col == nil) != (psk.Col == nil) {
						t.Fatalf("%s: imm {K%d Phase1 %d AllNodes %d, %d sets}, prima {K%d Phase1 %d AllNodes %d, %d sets}", what,
							isk.K, isk.Phase1, isk.AllNodes, isk.NumRRSets(), psk.K, psk.Phase1, psk.AllNodes, psk.NumRRSets())
					}
					if isk.Col != nil && (!slices.Equal(isk.Col.Members(), psk.Col.Members()) || !slices.Equal(isk.Col.Offsets(), psk.Col.Offsets())) {
						t.Fatalf("%s: final collections differ (%d vs %d sets)", what, isk.NumRRSets(), psk.NumRRSets())
					}
					if !reflect.DeepEqual(*iev, *pev) {
						t.Fatalf("%s: progress streams differ: imm %d events, prima %d", what, len(*iev), len(*pev))
					}
				}
			}
		}
	}
}
