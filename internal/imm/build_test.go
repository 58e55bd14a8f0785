package imm_test

import (
	"context"
	"errors"
	"testing"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/imm"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/sketchtest"
	"uicwelfare/internal/stats"
)

// immRows is imm's row of the build-test table in internal/sketchtest;
// prima's tests of the same names run the PRIMA rows.
var immRows = []sketchtest.Row{sketchtest.IMM(50)}

func TestSelectMemoMatchesUncachedReference(t *testing.T) {
	sketchtest.SelectMemoMatchesUncachedReference(t, immRows)
}

func TestSelectReportConcurrentFirstCallers(t *testing.T) {
	sketchtest.SelectReportConcurrentFirstCallers(t, immRows)
}

func TestSelectSeedsBelongToCaller(t *testing.T) {
	sketchtest.SelectSeedsBelongToCaller(t, immRows)
}

func TestBuildOnResidentPhase1MatchesFresh(t *testing.T) {
	sketchtest.BuildOnResidentPhase1MatchesFresh(t, immRows)
}

func TestConcurrentBuildsShareOnePhase1(t *testing.T) {
	sketchtest.ConcurrentBuildsShareOnePhase1(t, immRows)
}

func TestBuildOnPrefixMemoMatchesFresh(t *testing.T) {
	sketchtest.BuildOnPrefixMemoMatchesFresh(t, immRows)
}

// TestBuildSketchCtxPreCanceled also holds RunCtx, which builds and
// selects in one call, to the canceled context.
func TestBuildSketchCtxPreCanceled(t *testing.T) {
	sketchtest.BuildSketchCtxPreCanceled(t, immRows)
	g := graph.BarabasiAlbert(300, 3, stats.NewRNG(1)).WeightedCascade()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := imm.RunCtx(ctx, g, 10, rrset.Options{}, stats.NewRNG(2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx err = %v, want context.Canceled", err)
	}
}

func TestBuildSketchCtxCancelMidBuild(t *testing.T) {
	sketchtest.BuildSketchCtxCancelMidBuild(t, immRows)
}

func TestBuildSketchCtxCancelDuringGrowth(t *testing.T) {
	sketchtest.BuildSketchCtxCancelDuringGrowth(t, immRows)
}

func TestBuildSketchProgressMonotone(t *testing.T) {
	sketchtest.BuildSketchProgressMonotone(t, immRows)
}

func TestParallelBuildWelfareMatchesSerial(t *testing.T) {
	sketchtest.ParallelBuildWelfareMatchesSerial(t, immRows)
}

// TestExtendMatchesFreshBuild: a grown budget, and the benchmark's
// budget_creep chain at k 10 → 20 → … → 80 (IMM's merge is the max, so
// an added smaller budget is no request of its own).
func TestExtendMatchesFreshBuild(t *testing.T) {
	var creep []sketchtest.Row
	for k := 10; k <= 80; k += 10 {
		creep = append(creep, sketchtest.IMM(k))
	}
	sketchtest.ExtendMatchesFreshBuild(t, [][]sketchtest.Row{{sketchtest.IMM(30), sketchtest.IMM(80)}, creep})
}

func TestExtendRefusedBeforePhase1(t *testing.T) {
	sketchtest.ExtendRefusedBeforePhase1(t, immRows)
}
