package rrset

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/stats"
)

// growTo grows c to target under workers, failing the test on error.
func growTo(t *testing.T, c *Collection, target int64, rng *stats.RNG, workers int) {
	t.Helper()
	if err := c.GrowParallelCtx(context.Background(), target, rng, workers, nil); err != nil {
		t.Fatal(err)
	}
}

// streamCuts returns (a, b) pairs with a < b: chunk boundaries, one set
// either side of them, and random mid-chunk points.
func streamCuts() [][2]int64 {
	cuts := [][2]int64{{1, 2}, {255, 256}, {256, 257}, {257, 513}, {1, 1500}, {511, 512}, {600, 601}}
	rng := stats.NewRNG(77)
	for range 6 {
		a := 1 + int64(rng.Intn(1200))
		cuts = append(cuts, [2]int64{a, a + 1 + int64(rng.Intn(900))})
	}
	return cuts
}

// TestStreamPrefixStable is the prefix-stability contract: a
// collection's sets are a prefix of its stream, so grow(a) then grow(b)
// stores byte-for-byte what grow(b) alone does — EdgesVisited included —
// at every worker count, on every sampler path, for cut points on and
// off chunk boundaries.
func TestStreamPrefixStable(t *testing.T) {
	for _, f := range samplerFamilies() {
		for _, cut := range streamCuts() {
			a, b := cut[0], cut[1]
			direct := f.opts.NewCollection(f.g)
			growTo(t, direct, b, stats.NewRNG(5), 1)
			for _, w := range []int{1, 2, 3, 8} {
				c := f.opts.NewCollection(f.g)
				growTo(t, c, a, stats.NewRNG(5), w)
				growTo(t, c, b, stats.NewRNG(999), w) // based: the rng is not read
				t.Run(fmt.Sprintf("%s/%d-%d/W%d", f.name, a, b, w), func(t *testing.T) {
					sameCollections(t, c, direct)
					if c.EdgesVisited() != direct.EdgesVisited() {
						t.Fatalf("EdgesVisited %d, direct grow %d", c.EdgesVisited(), direct.EdgesVisited())
					}
				})
			}
		}
	}
}

// TestStreamCloneContinues: a clone carries its original's stream, so a
// clone grown on — from any cut, at any worker count — holds exactly
// what a direct grow does, and its growth leaves the original as it was.
func TestStreamCloneContinues(t *testing.T) {
	for _, f := range samplerFamilies() {
		const b = 1400
		direct := f.opts.NewCollection(f.g)
		growTo(t, direct, b, stats.NewRNG(8), 2)
		for _, a := range []int64{1, 256, 300, 1023} {
			for _, w := range []int{1, 3, 8} {
				orig := f.opts.NewCollection(f.g)
				growTo(t, orig, a, stats.NewRNG(8), w)
				before := slices.Clone(orig.Members())
				cl := orig.Clone()
				growTo(t, cl, b, nil, w)
				sameCollections(t, cl, direct)
				if !slices.Equal(orig.Members(), before) || int64(orig.Len()) != a {
					t.Fatalf("%s a=%d W=%d: growing the clone moved the original", f.name, a, w)
				}
				// The original, grown on its own, agrees too.
				growTo(t, orig, b, nil, w)
				sameCollections(t, orig, direct)
			}
		}
	}
}

// TestStreamCanceledGrowKeepsState: a grow canceled before it starts or
// part-way through leaves the collection — sets and stream state — as it
// was, so the retry grows exactly what an uninterrupted grow would have.
func TestStreamCanceledGrowKeepsState(t *testing.T) {
	for _, f := range samplerFamilies() {
		const a, b = 300, 2100 // a is mid-chunk: the retry resumes a saved chunk state
		direct := f.opts.NewCollection(f.g)
		growTo(t, direct, b, stats.NewRNG(9), 1)
		for _, w := range []int{1, 2, 3, 8} {
			c := f.opts.NewCollection(f.g)
			growTo(t, c, a, stats.NewRNG(9), w)
			pre, cancelPre := context.WithCancel(context.Background())
			cancelPre()
			if err := c.GrowParallelCtx(pre, b, nil, w, nil); err != context.Canceled {
				t.Fatalf("%s W=%d: pre-canceled grow: err = %v", f.name, w, err)
			}
			mid, cancelMid := context.WithCancel(context.Background())
			err := c.GrowParallelCtx(mid, b, nil, w, func(done, _ int64) {
				if done > a {
					cancelMid()
				}
			})
			cancelMid()
			if err != context.Canceled {
				t.Fatalf("%s W=%d: mid-grow cancel: err = %v", f.name, w, err)
			}
			if c.Len() != a {
				t.Fatalf("%s W=%d: canceled grows left %d sets, want %d", f.name, w, c.Len(), a)
			}
			growTo(t, c, b, nil, w)
			sameCollections(t, c, direct)
		}
	}
}

// TestStreamZeroResumeFails: a grow that would resume a chunk from the
// all-zero generator state — a lost tail, on which Intn spins forever —
// returns an error within seconds and leaves the collection as it was.
func TestStreamZeroResumeFails(t *testing.T) {
	for _, f := range samplerFamilies() {
		c := f.opts.NewCollection(f.g)
		growTo(t, c, 300, stats.NewRNG(4), 2) // mid-chunk: the next grow resumes
		c.stream.tail = stats.RNG{}
		errc := make(chan error, 1)
		go func() { errc <- c.GrowParallelCtx(context.Background(), 700, nil, 2, nil) }()
		select {
		case err := <-errc:
			if err == nil {
				t.Fatalf("%s: a grow resumed from the zero generator state", f.name)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: a grow resuming from the zero generator state hung", f.name)
		}
		if c.Len() != 300 {
			t.Fatalf("%s: the failed grow left %d sets, want 300", f.name, c.Len())
		}
	}
}

// TestPrefixSelectMatchesTruncatedCopy: every read through the view
// S[:L] — greedy selection, coverage, cover lists — equals the same read
// on a copy of the collection truncated to L sets, for L on and off
// chunk boundaries; and the view reads the index the full collection
// already built instead of rebuilding it.
func TestPrefixSelectMatchesTruncatedCopy(t *testing.T) {
	for _, f := range samplerFamilies() {
		c := f.opts.NewCollection(f.g)
		growTo(t, c, 2000, stats.NewRNG(10), 2)
		c.Covering(0) // build the full collection's index
		coverIDs := c.coverIDs
		for _, l := range []int{0, 1, 255, 256, 700, 1999, 2000} {
			off := c.Offsets()
			trunc, err := Restore(f.g, slices.Clone(c.Members()[:off[l]]), slices.Clone(off[:l+1]))
			if err != nil {
				t.Fatal(err)
			}
			view := c.Prefix(l)
			for _, k := range []int{1, 10, 40} {
				got, want := view.Select(k), trunc.Select(k)
				if !slices.Equal(got.Order, want.Order) || !slices.Equal(got.Covered, want.Covered) || got.Sets != want.Sets {
					t.Fatalf("%s L=%d k=%d: view selects %v / %v of %d, truncated copy %v / %v of %d",
						f.name, l, k, got.Order, got.Covered, got.Sets, want.Order, want.Covered, want.Sets)
				}
				if g, w := view.FractionCovered(got.Order), trunc.FractionCovered(got.Order); g != w {
					t.Fatalf("%s L=%d k=%d: view covers %g, truncated copy %g", f.name, l, k, g, w)
				}
			}
			for v := graph.NodeID(0); int(v) < c.N(); v++ {
				if g, w := view.Covering(v), trunc.Covering(v); !slices.Equal(g, w) {
					t.Fatalf("%s L=%d: Covering(%d) = %v, truncated copy %v", f.name, l, v, g, w)
				}
			}
			if !c.indexed.Load() || &c.coverIDs[0] != &coverIDs[0] {
				t.Fatalf("%s L=%d: reading the view rebuilt the full collection's index", f.name, l)
			}
		}
		if got := c.Prefix(5000).Select(1).Sets; got != c.Len() {
			t.Fatalf("%s: Prefix past the end has %d sets, want %d", f.name, got, c.Len())
		}
	}
}

// TestPhase1ReadsPrefixOfLentStream: a Phase1 on a lent stream that is
// longer or shorter than the rounds need reads exactly the prefix a
// private one does, grows only past the lent length, and reports the
// prefix it read to the lender's release.
func TestPhase1ReadsPrefixOfLentStream(t *testing.T) {
	g := growTestGraph()
	const base = 0xfeed
	for _, resident := range []int64{0, 500, 5000} {
		held := NewCollection(g)
		held.SeedStream(base)
		growTo(t, held, resident, nil, 2)
		released := -1
		opts := Options{Workers: 2, Phase1Stream: func(_ context.Context, fresh *Collection) (*Collection, func(int), error) {
			return held, func(read int) { released = read }, nil
		}}
		ctx := context.Background()
		lent, err := opts.OpenPhase1(ctx, g, base)
		if err != nil {
			t.Fatal(err)
		}
		own, err := Options{Workers: 1}.OpenPhase1(ctx, g, base)
		if err != nil {
			t.Fatal(err)
		}
		for round, target := range []int64{700, 300, 1800} {
			for _, p := range []*Phase1{lent, own} {
				if err := p.Grow(ctx, target, round+1); err != nil {
					t.Fatal(err)
				}
			}
			got, want := lent.View().Select(12), own.View().Select(12)
			if lent.Read() != own.Read() || !slices.Equal(got.Order, want.Order) || !slices.Equal(got.Covered, want.Covered) {
				t.Fatalf("resident %d, round %d: lent view (%d sets) selects %v, private (%d sets) %v",
					resident, round, lent.Read(), got.Order, own.Read(), want.Order)
			}
		}
		if want := max(resident, 1800); int64(held.Len()) != want {
			t.Fatalf("resident %d: lent stream holds %d sets, want %d", resident, held.Len(), want)
		}
		lent.Release()
		lent.Release()
		if released != 1800 {
			t.Fatalf("resident %d: release reported %d read sets, want 1800", resident, released)
		}
	}
}
