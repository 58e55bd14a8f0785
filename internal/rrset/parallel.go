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

// GrowParallelCtx grows the collection to at least target RR sets using
// the given number of worker goroutines. workers <= 1 delegates to the
// serial GrowCtx path unchanged (same RNG draws, same result — the
// legacy behavior).
//
// For workers > 1 the growth is deterministic for a fixed (rng state,
// workers) pair, independent of goroutine scheduling:
//
//   - one base seed is drawn from rng (a single Uint64), and worker w's
//     private RNG is seeded from the (w+1)-th splitmix64 expansion of
//     that base — per-worker streams that never contend and never
//     interleave;
//   - the target is split into fixed chunks of growChunk sets, chunk j
//     statically assigned to worker j mod workers; each worker samples
//     its chunks in increasing j with its one sequential stream, so
//     chunk contents depend only on (base, w, chunk sequence);
//   - workers sample into private buffers; after all workers finish,
//     the chunks are copied into the collection in chunk-index order
//     and the inverted index is rebuilt once, so Members()/Offsets()
//     are byte-identical across runs.
//
// EdgesVisited and progress are accumulated through atomics while
// workers run; report (when non-nil) observes a monotone done count.
// Cancellation is checked once per chunk per worker; on ctx error the
// collection is left exactly as it was — no partial merge.
func (c *Collection) GrowParallelCtx(ctx context.Context, target int64, rng *stats.RNG, workers int, report func(done, target int64)) error {
	if workers <= 1 {
		return c.GrowCtx(ctx, target, rng, report)
	}
	start := int64(c.Len())
	need := target - start
	if need <= 0 {
		return nil
	}
	defer telemetry.StartSpan(ctx, "rrset_grow_parallel")()
	defer func() {
		telemetry.AddResource(ctx, telemetry.ResRRSetsGrown, int64(c.Len())-start)
	}()

	numChunks := int((need + growChunk - 1) / growChunk)
	if workers > numChunks {
		workers = numChunks
	}

	// Per-worker RNG seeds: one Uint64 from the caller's stream (so the
	// caller's stream advances by exactly one draw per parallel grow),
	// then worker w's stream is NewRNG(base + w)'s first output fed back
	// through NewRNG — the splitmix64 expansion inside NewRNG decorrelates
	// the consecutive raw seeds.
	base := rng.Uint64()
	seeds := make([]uint64, workers)
	for w := range seeds {
		seeds[w] = stats.NewRNG(base + uint64(w)).Uint64()
	}

	// chunkSpan records where chunk j's sets landed inside its worker's
	// private buffers; indices (not slices) stay valid across buffer
	// reallocation.
	type chunkSpan struct {
		memStart, memEnd   int
		sizeStart, sizeEnd int
	}
	type workerOut struct {
		buf   []graph.NodeID
		sizes []int32
	}
	chunks := make([]chunkSpan, numChunks)
	outs := make([]workerOut, workers)

	c.ensureParSamplers(workers)

	var done atomic.Int64
	var reportMu sync.Mutex
	lastReported := start
	progress := func(sets int64) {
		if report == nil {
			return
		}
		d := start + done.Add(sets)
		reportMu.Lock()
		if d > lastReported {
			lastReported = d
			report(d, target)
		}
		reportMu.Unlock()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := stats.NewRNG(seeds[w])
			smp := c.parSamplers[w]
			var buf []graph.NodeID
			var sizes []int32
			edgesBase := smp.EdgesVisited
			for j := w; j < numChunks; j += workers {
				if ctx.Err() != nil {
					break
				}
				lo := int64(j) * growChunk
				hi := lo + growChunk
				if hi > need {
					hi = need
				}
				sp := &chunks[j]
				sp.memStart, sp.sizeStart = len(buf), len(sizes)
				for s := lo; s < hi; s++ {
					before := len(buf)
					buf = smp.Sample(wrng, buf)
					sizes = append(sizes, int32(len(buf)-before))
				}
				sp.memEnd, sp.sizeEnd = len(buf), len(sizes)
				atomic.AddInt64(&c.parEdges, smp.EdgesVisited-edgesBase)
				edgesBase = smp.EdgesVisited
				progress(hi - lo)
			}
			outs[w] = workerOut{buf: buf, sizes: sizes}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}

	// Merge in chunk-index order, after every worker has stopped touching
	// its buffers. The sizes are known, so the storage grows once, each
	// chunk lands by bulk copy, and the inverted index is rebuilt in one
	// counting pass.
	addMembers, addSets := 0, 0
	for _, o := range outs {
		addMembers += len(o.buf)
		addSets += len(o.sizes)
	}
	c.members = slices.Grow(c.members, addMembers)
	c.offsets = slices.Grow(c.offsets, addSets)
	for j, sp := range chunks {
		o := &outs[j%workers]
		c.members = append(c.members, o.buf[sp.memStart:sp.memEnd]...)
		end := c.offsets[len(c.offsets)-1]
		for _, sz := range o.sizes[sp.sizeStart:sp.sizeEnd] {
			end += int64(sz)
			c.offsets = append(c.offsets, end)
		}
	}
	c.buildIndex()
	if report != nil {
		reportMu.Lock()
		if int64(c.Len()) > lastReported {
			lastReported = int64(c.Len())
			report(int64(c.Len()), target)
		}
		reportMu.Unlock()
	}
	return nil
}

// ensureParSamplers sizes the pooled per-worker samplers (reused across
// adaptive rounds) and syncs their cascade/node-coin configuration with
// the collection's primary sampler.
func (c *Collection) ensureParSamplers(workers int) {
	for len(c.parSamplers) < workers {
		c.parSamplers = append(c.parSamplers, NewSampler(c.g))
	}
	for _, smp := range c.parSamplers[:workers] {
		smp.Cascade = c.sampler.Cascade
		smp.NodeCoin = c.sampler.NodeCoin
	}
}

// Clone returns a deep copy of the collection sharing nothing mutable
// with the original: members, offsets, and the inverted index are
// copied, and the clone gets a fresh sampler carrying the original's
// cascade, node coin, and cumulative width statistic. The original may
// keep serving concurrent readers (the sketch-cache contract) while the
// clone is grown further — the ExtendSketch seam.
func (c *Collection) Clone() *Collection {
	nc := &Collection{
		g:        c.g,
		members:  slices.Clone(c.members),
		offsets:  slices.Clone(c.offsets),
		coverIdx: slices.Clone(c.coverIdx),
		coverIDs: slices.Clone(c.coverIDs),
		sampler:  NewSampler(c.g),
	}
	nc.sampler.Cascade = c.sampler.Cascade
	nc.sampler.NodeCoin = c.sampler.NodeCoin
	nc.sampler.EdgesVisited = c.EdgesVisited()
	return nc
}
