package sketchtest

import (
	"context"
	"errors"
	"testing"
	"time"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/progress"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
)

// BuildSketchCtxPreCanceled: a build under an already canceled
// context returns the context error and no sketch.
func BuildSketchCtxPreCanceled(t *testing.T, rows []Row) {
	g := graph.BarabasiAlbert(300, 3, stats.NewRNG(1)).WeightedCascade()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, row := range rows {
		sk, err := row.Build(ctx, g, rrset.Options{}, stats.NewRNG(2))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", row.Name, err)
		}
		if sk != nil {
			t.Fatalf("%s: canceled build returned a sketch: %+v", row.Name, sk)
		}
	}
}

// BuildSketchCtxCancelMidBuild cancels a deliberately expensive
// build (tiny ε inflates θ by ~1/ε²) shortly after it starts and checks
// the builder returns promptly instead of sampling to completion.
func BuildSketchCtxCancelMidBuild(t *testing.T, rows []Row) {
	g := graph.BarabasiAlbert(2000, 6, stats.NewRNG(1)).WeightedCascade()
	for _, row := range rows {
		ctx, cancel := context.WithCancel(context.Background())
		started := make(chan struct{})
		opts := rrset.Options{Eps: 0.05, Progress: func(progress.Event) {
			select {
			case <-started:
			default:
				close(started)
			}
		}}

		done := make(chan error, 1)
		go func() {
			_, err := row.Build(ctx, g, opts, stats.NewRNG(2))
			done <- err
		}()

		select {
		case <-started: // at least one sampling chunk completed
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: build never reported progress", row.Name)
		}
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: err = %v, want context.Canceled", row.Name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: canceled build did not return promptly", row.Name)
		}
	}
}

// BuildSketchCtxCancelDuringGrowth cancels from inside the progress
// callback — i.e. mid-sampling — and checks the builder aborts with the
// context error instead of finishing the phase.
func BuildSketchCtxCancelDuringGrowth(t *testing.T, rows []Row) {
	g := graph.BarabasiAlbert(500, 4, stats.NewRNG(1)).WeightedCascade()
	for _, row := range rows {
		ctx, cancel := context.WithCancel(context.Background())
		events := 0
		opts := rrset.Options{Progress: func(progress.Event) {
			events++
			if events == 1 {
				cancel()
			}
		}}
		_, err := row.Build(ctx, g, opts, stats.NewRNG(2))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", row.Name, err)
		}
		if events == 0 {
			t.Fatalf("%s: no progress events before cancellation", row.Name)
		}
	}
}

// BuildSketchProgressMonotone: a build reports sketch-stage progress
// whose round never goes back, nor its done count within a round.
func BuildSketchProgressMonotone(t *testing.T, rows []Row) {
	g := graph.BarabasiAlbert(400, 4, stats.NewRNG(1)).WeightedCascade()
	for _, row := range rows {
		lastDone, lastRound := 0, 0
		opts := rrset.Options{Progress: func(ev progress.Event) {
			if ev.Stage != progress.StageSketch {
				t.Errorf("%s: unexpected stage %q", row.Name, ev.Stage)
			}
			if ev.Round < lastRound {
				t.Errorf("%s: round went backwards: %d after %d", row.Name, ev.Round, lastRound)
			}
			if ev.Round == lastRound && ev.Done < lastDone {
				t.Errorf("%s: done went backwards within round %d: %d after %d", row.Name, ev.Round, ev.Done, lastDone)
			}
			lastDone, lastRound = ev.Done, ev.Round
		}}
		sk, err := row.Build(context.Background(), g, opts, stats.NewRNG(2))
		if err != nil || sk == nil || sk.NumRRSets() == 0 {
			t.Fatalf("%s: build failed: sk=%v err=%v", row.Name, sk, err)
		}
		if lastRound == 0 {
			t.Fatalf("%s: no progress reported", row.Name)
		}
	}
}
