package rrset

import (
	"context"
	"errors"
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

// errZeroResume reports a grow that would resume a chunk from the
// all-zero generator state: a stream state lost, not a stream.
var errZeroResume = errors.New("rrset: grow resumes a chunk from a zero generator state")

// GrowParallelCtx grows the collection to at least target RR sets using
// the given number of worker goroutines (values below 1 mean 1). The
// collection's sets are a prefix of one deterministic stream, so they
// depend only on the stream and the length — never on workers, on
// goroutine scheduling, or on how the length was reached: grow(a) then
// grow(b) stores exactly the sets grow(b) alone would.
//
//   - the stream's base is fixed once: by SeedStream, or else drawn from
//     rng at the collection's first grow (a single Uint64; later grows
//     draw nothing, and rng may then be nil);
//   - the stream is cut into chunks of growChunk sets counted from its
//     start, and chunk j samples from its own generator,
//     stats.NewRNG(stats.Mix(base, j)); a grow that stops mid-chunk keeps
//     that chunk's generator state, and the next grow resumes it;
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
// on ctx error the collection — sets, index, EdgesVisited and stream
// state — is left exactly as it was, so a retry grows what an
// uninterrupted grow would have.
func (c *Collection) GrowParallelCtx(ctx context.Context, target int64, rng *stats.RNG, workers int, report func(done, target int64)) error {
	start := int64(c.Len())
	need := target - start
	if need <= 0 {
		return nil
	}
	st := c.stream
	if !st.based {
		st = stream{based: true, base: rng.Uint64(), origin: start}
	}
	// [lo, hi) are stream positions; chunks j0..j0+numChunks-1 hold them.
	lo, hi := start-st.origin, target-st.origin
	// A grow that starts mid-chunk resumes that chunk's saved generator,
	// which is never the zero state (see stats.RNG.Zero): sampling from it
	// would hang, so it fails here instead.
	if lo%growChunk != 0 && st.tail.Zero() {
		return errZeroResume
	}
	j0 := lo / growChunk
	numChunks := int((hi-1)/growChunk - j0 + 1)
	workers = min(max(workers, 1), numChunks)
	span := "rrset_grow"
	if workers > 1 {
		span = "rrset_grow_parallel"
	}
	defer telemetry.StartSpan(ctx, span)()

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
	// tail receives the last chunk's generator state when the grow ends
	// mid-chunk; only the worker that samples that chunk writes it.
	var tail stats.RNG

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
			i := int(next.Add(1) - 1)
			if i >= numChunks {
				break
			}
			j := j0 + int64(i)
			from, to := max(lo, j*growChunk), min(hi, (j+1)*growChunk)
			if from == j*growChunk {
				crng.Seed(stats.Mix(st.base, uint64(j))) // the stream of NewRNG(Mix(base, j))
			} else {
				crng = st.tail // resume the chunk the last grow stopped in
			}
			sp := chunkSpan{worker: w, memStart: len(buf), sizeStart: len(sizes)}
			for s := from; s < to; s++ {
				before := len(buf)
				buf = smp.Sample(&crng, buf)
				sizes = append(sizes, int32(len(buf)-before))
			}
			if to%growChunk != 0 {
				tail = crng
			}
			sp.memEnd, sp.sizeEnd = len(buf), len(sizes)
			chunks[i] = sp
			if report != nil {
				progress(start + done.Add(to-from))
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
	st.tail = tail
	c.stream = st
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
// coin, the cumulative width statistic and the stream state — so a
// grown clone holds exactly the sets the original would have grown. The
// inverted index is not copied — the clone builds its own on first read
// — since an extension grows the clone at once, which would make a copy
// stale. The original may keep serving concurrent readers (the
// sketch-cache contract) while the clone is grown further — the
// extension seam (prima.ExtendSketchLB).
func (c *Collection) Clone() *Collection {
	nc := &Collection{
		g:       c.g,
		members: slices.Clone(c.members),
		offsets: slices.Clone(c.offsets),
		sampler: NewSampler(c.g),
		edges:   c.edges,
		stream:  c.stream,
	}
	nc.sampler.Cascade = c.sampler.Cascade
	nc.sampler.NodeCoin = c.sampler.NodeCoin
	return nc
}
