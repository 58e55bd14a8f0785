package imm

import (
	"context"
	"errors"
	"testing"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/progress"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
)

func TestBuildSketchCtxPreCanceled(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, stats.NewRNG(1)).WeightedCascade()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sk, err := BuildSketchCtx(ctx, g, 10, rrset.Options{}, stats.NewRNG(2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sk != nil {
		t.Fatalf("canceled build returned a sketch: %+v", sk)
	}
	if _, err := RunCtx(ctx, g, 10, rrset.Options{}, stats.NewRNG(2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx err = %v, want context.Canceled", err)
	}
}

// TestBuildSketchCtxCancelDuringGrowth cancels from inside the progress
// callback — i.e. mid-sampling — and checks the builder aborts with the
// context error instead of finishing the phase.
func TestBuildSketchCtxCancelDuringGrowth(t *testing.T) {
	g := graph.BarabasiAlbert(500, 4, stats.NewRNG(1)).WeightedCascade()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := 0
	opts := rrset.Options{Progress: func(progress.Event) {
		events++
		if events == 1 {
			cancel()
		}
	}}
	_, err := BuildSketchCtx(ctx, g, 10, opts, stats.NewRNG(2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if events == 0 {
		t.Fatal("no progress events before cancellation")
	}
}

func TestBuildSketchProgressMonotone(t *testing.T) {
	g := graph.BarabasiAlbert(400, 4, stats.NewRNG(1)).WeightedCascade()
	lastDone, lastRound := 0, 0
	opts := rrset.Options{Progress: func(ev progress.Event) {
		if ev.Stage != progress.StageSketch {
			t.Errorf("unexpected stage %q", ev.Stage)
		}
		if ev.Round < lastRound {
			t.Errorf("round went backwards: %d after %d", ev.Round, lastRound)
		}
		if ev.Round == lastRound && ev.Done < lastDone {
			t.Errorf("done went backwards within round %d: %d after %d", ev.Round, ev.Done, lastDone)
		}
		lastDone, lastRound = ev.Done, ev.Round
	}}
	sk, err := BuildSketchCtx(context.Background(), g, 8, opts, stats.NewRNG(2))
	if err != nil || sk == nil || sk.NumRRSets() == 0 {
		t.Fatalf("build failed: sk=%v err=%v", sk, err)
	}
	if lastRound == 0 {
		t.Fatal("no progress reported")
	}
}
