package uic

import (
	"context"
	"sync"
	"sync/atomic"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/progress"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/utility"
)

// WelfareEstimate is a Monte-Carlo estimate of the expected social
// welfare ρ(𝒮).
type WelfareEstimate struct {
	Mean   float64
	StdErr float64
	Runs   int
}

// EstimateWelfare averages `runs` independent diffusions. Each run
// samples a fresh noise world and edge world, per the definition
// ρ(𝒮) = E_{W^E}[E_{W^N}[ρ_W(𝒮)]].
func (s *Simulator) EstimateWelfare(alloc *Allocation, rng *stats.RNG, runs int) WelfareEstimate {
	sum := s.estimate(context.Background(), alloc, rng, max(runs, 1), nil) // background ctx: never canceled
	return WelfareEstimate{Mean: sum.Mean(), StdErr: sum.StdErr(), Runs: sum.N()}
}

// estimateChunk is how many Monte-Carlo runs an estimator performs
// between cancellation checks and progress reports.
const estimateChunk = 512

// estimate is the one Monte-Carlo loop: it sums n RunOnce diffusions on
// rng. Every estimateChunk runs it checks ctx, stopping early once it is
// canceled (the caller then discards the partial sum), and, when tick
// is non-nil, calls tick with the chunk's run count.
func (s *Simulator) estimate(ctx context.Context, alloc *Allocation, rng *stats.RNG, n int, tick func(runs int)) stats.Summary {
	var sum stats.Summary
	for done := 0; done < n && ctx.Err() == nil; {
		chunk := min(estimateChunk, n-done)
		for i := 0; i < chunk; i++ {
			sum.Add(s.RunOnce(alloc, rng))
		}
		done += chunk
		if tick != nil {
			tick(chunk)
		}
	}
	return sum
}

// WelfareGivenNoise estimates ρ_{W^N}(𝒮): the expected welfare under a
// fixed noise world, averaging over random edge worlds. The block
// accounting analysis (§4.2.2) reasons per noise world; the tests for
// Lemma 5 use this.
func (s *Simulator) WelfareGivenNoise(alloc *Allocation, noise []float64, rng *stats.RNG, runs int) float64 {
	if runs <= 0 {
		runs = 1
	}
	total := 0.0
	for i := 0; i < runs; i++ {
		total += s.RunOnceWithNoise(alloc, noise, rng)
	}
	return total / float64(runs)
}

// AdoptionCounts estimates, per item, the expected number of adopters —
// the multi-item analogue of influence spread, useful for diagnostics and
// for the Com-IC baselines whose objective is adoption count.
func (s *Simulator) AdoptionCounts(alloc *Allocation, rng *stats.RNG, runs int) []float64 {
	counts := make([]float64, s.M.K())
	if runs <= 0 {
		runs = 1
	}
	for r := 0; r < runs; r++ {
		s.RunOnce(alloc, rng)
		for _, v := range s.touched {
			for _, i := range s.adopted[v].Items() {
				counts[i]++
			}
		}
	}
	for i := range counts {
		counts[i] /= float64(runs)
	}
	return counts
}

// EstimateWelfareParallelCascade shards the Monte-Carlo estimate under
// the given cascade model across workers goroutines, each with its own
// Simulator and a Split RNG. With workers <= 1 it runs on rng itself.
func EstimateWelfareParallelCascade(g *graph.Graph, m *utility.Model, cascade graph.Cascade, alloc *Allocation, rng *stats.RNG, runs, workers int) WelfareEstimate {
	est, _ := EstimateWelfareParallelCascadeCtx(context.Background(), g, m, cascade, alloc, rng, runs, workers, nil)
	return est
}

// EstimateWelfareParallelCascadeCtx is EstimateWelfareParallelCascade
// with cooperative cancellation and progress reporting. Workers check
// ctx between chunks of runs and bail out promptly once it is canceled,
// in which case the estimate is discarded and ctx.Err() returned. The
// report callback, when non-nil, receives StageEstimate events with the
// cross-worker run count and MUST be safe for concurrent calls (each
// worker reports its own chunks).
func EstimateWelfareParallelCascadeCtx(ctx context.Context, g *graph.Graph, m *utility.Model, cascade graph.Cascade, alloc *Allocation, rng *stats.RNG, runs, workers int, report progress.Func) (WelfareEstimate, error) {
	runs = max(runs, 1)
	workers = max(1, min(workers, runs))
	var done atomic.Int64
	var tick func(int)
	if report != nil {
		tick = func(chunk int) {
			report(progress.Event{Stage: progress.StageEstimate, Done: int(done.Add(int64(chunk))), Total: runs})
		}
	}
	summaries := make([]stats.Summary, workers)
	shard := func(w, n int, r *stats.RNG) {
		sim := NewSimulator(g, m)
		sim.Cascade = cascade
		summaries[w] = sim.estimate(ctx, alloc, r, n, tick)
	}
	if workers == 1 {
		shard(0, runs, rng)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			n := runs / workers
			if w < runs%workers {
				n++
			}
			r := rng.Split()
			wg.Add(1)
			go func() {
				defer wg.Done()
				shard(w, n, r)
			}()
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return WelfareEstimate{}, err
	}
	var total stats.Summary
	for _, s := range summaries {
		total.Merge(s)
	}
	return WelfareEstimate{Mean: total.Mean(), StdErr: total.StdErr(), Runs: total.N()}, nil
}
