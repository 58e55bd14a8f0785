package rrset

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/telemetry"
)

// growChunk is how many RR sets one chunk of a grow holds: the unit of
// seeding, work claiming, cancellation checks and progress reports.
// Small enough that cancellation lands promptly even on graphs where a
// single set is expensive, large enough that the per-chunk overhead is
// invisible next to the sampling itself.
const growChunk = 256

// GrowParallelCtx grows the collection to at least target RR sets using
// the given number of worker goroutines (values below 1 mean 1). The
// grown sets depend only on (rng state, collection length, target) —
// never on workers or goroutine scheduling:
//
//   - one base seed is drawn from rng (a single Uint64, so the caller's
//     stream advances by exactly one draw per grow that samples);
//   - the sets to add are cut into chunks of growChunk, counted from the
//     grow's start, and chunk j samples from its own stream,
//     stats.NewRNG(stats.Mix(base, j));
//   - workers claim chunks from an atomic counter (so skewed set sizes
//     balance) and sample into private buffers; worker 0 runs on the
//     calling goroutine, so workers = 1 spawns nothing;
//   - after every worker stops, the chunks are copied into the
//     collection in chunk order and the inverted index is marked stale
//     (its next read rebuilds it).
//
// The span is rrset_grow at one worker and rrset_grow_parallel above.
// report (when non-nil) observes a monotone done count that ends at the
// collection's new length. Cancellation is checked before each chunk;
// on ctx error the collection — sets, index and EdgesVisited — is left
// exactly as it was.
func (c *Collection) GrowParallelCtx(ctx context.Context, target int64, rng *stats.RNG, workers int, report func(done, target int64)) error {
	start := int64(c.Len())
	need := target - start
	if need <= 0 {
		return nil
	}
	numChunks := int((need + growChunk - 1) / growChunk)
	workers = min(max(workers, 1), numChunks)
	span := "rrset_grow"
	if workers > 1 {
		span = "rrset_grow_parallel"
	}
	defer telemetry.StartSpan(ctx, span)()
	base := rng.Uint64()

	// chunkSpan records where chunk j's sets landed inside the private
	// buffers of the worker that claimed it; indices (not slices) stay
	// valid across buffer reallocation.
	type chunkSpan struct {
		worker             int
		memStart, memEnd   int
		sizeStart, sizeEnd int
	}
	type workerOut struct {
		buf   []graph.NodeID
		sizes []int32
		edges int64
	}
	chunks := make([]chunkSpan, numChunks)
	outs := make([]workerOut, workers)
	c.ensureSamplers(workers)

	var next, done atomic.Int64
	var reportMu sync.Mutex
	lastReported := start
	progress := func(d int64) {
		reportMu.Lock()
		if d > lastReported {
			lastReported = d
			report(d, target)
		}
		reportMu.Unlock()
	}

	// A worker keeps its buffers in locals until it stops: neighbouring
	// outs entries share a cache line.
	work := func(w int) {
		smp := c.samplers[w]
		edgesBase := smp.EdgesVisited
		var buf []graph.NodeID
		var sizes []int32
		var crng stats.RNG
		for ctx.Err() == nil {
			j := int(next.Add(1) - 1)
			if j >= numChunks {
				break
			}
			lo := int64(j) * growChunk
			hi := min(lo+growChunk, need)
			crng.Seed(stats.Mix(base, uint64(j))) // the stream of NewRNG(Mix(base, j))
			sp := chunkSpan{worker: w, memStart: len(buf), sizeStart: len(sizes)}
			for s := lo; s < hi; s++ {
				before := len(buf)
				buf = smp.Sample(&crng, buf)
				sizes = append(sizes, int32(len(buf)-before))
			}
			sp.memEnd, sp.sizeEnd = len(buf), len(sizes)
			chunks[j] = sp
			if report != nil {
				progress(start + done.Add(hi-lo))
			}
		}
		outs[w] = workerOut{buf: buf, sizes: sizes, edges: smp.EdgesVisited - edgesBase}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	work(0)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}

	// Merge in chunk order, after every worker has stopped touching its
	// buffers. The sizes are known, so the storage grows once and each
	// chunk lands by bulk copy; the index is left for its next read.
	addMembers := 0
	for _, o := range outs {
		addMembers += len(o.buf)
		c.edges += o.edges
	}
	c.members = slices.Grow(c.members, addMembers)
	c.offsets = slices.Grow(c.offsets, int(need))
	for _, sp := range chunks {
		o := &outs[sp.worker]
		c.members = append(c.members, o.buf[sp.memStart:sp.memEnd]...)
		end := c.offsets[len(c.offsets)-1]
		for _, sz := range o.sizes[sp.sizeStart:sp.sizeEnd] {
			end += int64(sz)
			c.offsets = append(c.offsets, end)
		}
	}
	c.indexed.Store(false)
	telemetry.AddResource(ctx, telemetry.ResRRSetsGrown, need)
	if report != nil {
		progress(int64(c.Len()))
	}
	return nil
}

// ensureSamplers sizes the pooled per-worker samplers (reused across
// adaptive rounds) and syncs their cascade/node-coin configuration with
// the collection's template sampler.
func (c *Collection) ensureSamplers(workers int) {
	for len(c.samplers) < workers {
		c.samplers = append(c.samplers, NewSampler(c.g))
	}
	for _, smp := range c.samplers[:workers] {
		smp.Cascade = c.sampler.Cascade
		smp.NodeCoin = c.sampler.NodeCoin
	}
}

// Clone returns a deep copy of the collection sharing nothing mutable
// with the original: members and offsets are copied, and the clone gets
// a fresh template sampler carrying the original's cascade and node
// coin, plus the cumulative width statistic. The inverted index is not
// copied — the clone builds its own on first read — since ExtendSketch
// grows the clone at once, which would make a copy stale. The original
// may keep serving concurrent readers (the sketch-cache contract) while
// the clone is grown further — the ExtendSketch seam.
func (c *Collection) Clone() *Collection {
	nc := &Collection{
		g:       c.g,
		members: slices.Clone(c.members),
		offsets: slices.Clone(c.offsets),
		sampler: NewSampler(c.g),
		edges:   c.edges,
	}
	nc.sampler.Cascade = c.sampler.Cascade
	nc.sampler.NodeCoin = c.sampler.NodeCoin
	return nc
}
