package resolve

import (
	"context"
	"errors"
	"testing"
	"time"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
)

// freshStream is an empty collection on a seeded stream, as a build
// hands LendStream.
func freshStream(g *graph.Graph, base uint64) *rrset.Collection {
	c := rrset.NewCollection(g)
	c.SeedStream(base)
	return c
}

// TestLendStreamPricedLikeAnEntry: a phase-1 stream is a cache entry
// for every bound — priced on release at its grown ResidentBytes so the
// cache's total stays the sum of its priced entries, evicted LRU by the
// entry bound, dropped by InvalidateGraph and by its TTL — and never
// one for the sketch-facing surface: not counted as a sketch, not
// exported, not counted in a graph's sketch residency.
func TestLendStreamPricedLikeAnEntry(t *testing.T) {
	ctx := context.Background()
	g := graph.ErdosRenyi(200, 1200, stats.NewRNG(3)).WeightedCascade()
	clock := &fakeClock{t: time.Unix(1000, 0)}
	c := NewSketchCache(2, 0, time.Minute, func(*rrset.Sketch) int64 { return 100 })
	c.now = clock.now
	key := phase1Key("g1", 0, 7)

	col, release, err := c.LendStream(ctx, key, freshStream(g, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := col.GrowParallelCtx(ctx, 900, nil, 2, nil); err != nil {
		t.Fatal(err)
	}
	release()
	if _, _, err := c.GetOrBuildCtx(ctx, Key("g1", "prima", 0, 0.5, 1, 1, []int{5}), func() (*rrset.Sketch, error) { return &rrset.Sketch{}, nil }); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if want := 100 + col.ResidentBytes(); st.CostBytes != want || st.Entries != 1 || st.EntriesByFamily["phase1"] != 0 {
		t.Fatalf("stats %+v: want 1 sketch entry and cost %d (sketch 100 + stream %d)", st, want, col.ResidentBytes())
	}
	if streams := c.Streams(); streams != 1 {
		t.Fatalf("%d streams resident, want 1", streams)
	}
	if n := c.CountPrefix("g1|"); n != 1 {
		t.Fatalf("g1 sketch residency %d, want 1", n)
	}
	if got := c.CompletedForGraph("g1"); len(got) != 1 || got[0].Key == key {
		t.Fatalf("CompletedForGraph exported %+v, want only the sketch", got)
	}

	// A second lend gets the resident collection back.
	again, release, err := c.LendStream(ctx, key, freshStream(g, 1))
	if err != nil || again != col {
		t.Fatalf("second lend: %p (err %v), want the resident %p", again, err, col)
	}
	release()

	// The stream was touched last: two sketch inserts evict the older
	// sketch first, then the stream.
	for _, b := range []int{6, 7} {
		if _, _, err := c.GetOrBuildCtx(ctx, Key("g1", "prima", 0, 0.5, 1, 1, []int{b}), func() (*rrset.Sketch, error) { return &rrset.Sketch{}, nil }); err != nil {
			t.Fatal(err)
		}
		if streams := c.Streams(); (streams == 1) != (b == 6) {
			t.Fatalf("after inserting budget %d: %d streams resident", b, streams)
		}
	}
	if st := c.Stats(); st.CostBytes != 200 || st.Evictions != 2 {
		t.Fatalf("after evicting the stream: %+v, want cost 200 and 2 evictions", st)
	}

	// InvalidateGraph drops a stream, and so does its TTL.
	if _, release, err = c.LendStream(ctx, key, freshStream(g, 1)); err != nil {
		t.Fatal(err)
	}
	release()
	c.InvalidateGraph("g1")
	if streams := c.Streams(); streams != 0 || c.Stats().CostBytes != 0 {
		t.Fatalf("InvalidateGraph left %d streams, cost %d", streams, c.Stats().CostBytes)
	}
	held, release, err := c.LendStream(ctx, key, freshStream(g, 1))
	if err != nil {
		t.Fatal(err)
	}
	release()
	clock.advance(2 * time.Minute)
	fresh := freshStream(g, 1)
	if got, release, err := c.LendStream(ctx, key, fresh); err != nil || got != fresh || got == held {
		t.Fatalf("lend past the TTL got %p (err %v), want the fresh %p", got, err, fresh)
	} else {
		release()
	}
}

// TestLendStreamTurns: holders of one stream take turns; a waiter whose
// ctx ends returns ctx.Err() without disturbing the holder, and the next
// waiter gets the stream once the holder releases it.
func TestLendStreamTurns(t *testing.T) {
	ctx := context.Background()
	g := graph.ErdosRenyi(100, 400, stats.NewRNG(4)).WeightedCascade()
	c := NewSketchCache(8, 0, 0, nil)
	key := phase1Key("g1", 0, 9)
	col, release, err := c.LendStream(ctx, key, freshStream(g, 2))
	if err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, _, err := c.LendStream(short, key, freshStream(g, 2)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("lend of a held stream: err = %v, want the waiter's deadline", err)
	}
	got := make(chan *rrset.Collection)
	go func() {
		next, release, err := c.LendStream(ctx, key, freshStream(g, 2))
		if err == nil {
			release()
		}
		got <- next
	}()
	select {
	case <-got:
		t.Fatal("a waiter got the stream while it was held")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	if next := <-got; next != col {
		t.Fatalf("waiter got %p, want the resident %p", next, col)
	}
}

// TestLendStreamPricesPrefixMemo: the coverage-test orders a build
// leaves on a lent stream are part of the stream entry's cost from its
// release on, a later build on the resident stream is answered from
// them, and evicting the stream drops them with it: the next build
// starts a fresh stream and runs its greedy again.
func TestLendStreamPricesPrefixMemo(t *testing.T) {
	ctx := context.Background()
	g := graph.ErdosRenyi(200, 1200, stats.NewRNG(3)).WeightedCascade()
	c := NewSketchCache(2, 0, 0, func(*rrset.Sketch) int64 { return 100 })
	key := phase1Key("g1", 0, 7)
	var lent *rrset.Collection
	reused := 0
	opts := rrset.Options{Workers: 2, Phase1Stream: func(ctx context.Context, fresh *rrset.Collection) (*rrset.Collection, func(int, int), error) {
		col, release, err := c.LendStream(ctx, key, fresh)
		if err != nil {
			return nil, nil, err
		}
		lent = col
		return col, func(_, n int) { reused += n; release() }, nil
	}}
	// build runs one θ-rule round: grow S₁ to 900 sets, test k = 20.
	build := func() {
		p, err := opts.OpenPhase1(ctx, g, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Grow(ctx, 900, 1); err != nil {
			t.Fatal(err)
		}
		p.Select(ctx, 20)
		p.Release()
	}
	sets := freshStream(g, 1)
	if err := sets.GrowParallelCtx(ctx, 900, nil, 2, nil); err != nil {
		t.Fatal(err)
	}
	setsOnly := sets.ResidentBytes()

	build()
	first := lent
	if got, want := c.Stats().CostBytes, setsOnly+rrset.MemoBytes(20); got != want || first.ResidentBytes() != want {
		t.Fatalf("stream cost %d (ResidentBytes %d), want %d: sets %d + one order of 20", got, first.ResidentBytes(), want, setsOnly)
	}
	build()
	if lent != first || reused != 1 {
		t.Fatalf("a second build on the resident stream reused %d selections (same stream %v), want 1", reused, lent == first)
	}

	// Two sketch inserts evict the stream, and its memo with it.
	for _, b := range []int{6, 7} {
		if _, _, err := c.GetOrBuildCtx(ctx, Key("g1", "prima", 0, 0.5, 1, 1, []int{b}), func() (*rrset.Sketch, error) { return &rrset.Sketch{}, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); c.Streams() != 0 || st.CostBytes != 200 {
		t.Fatalf("after evicting the stream: %d streams, cost %d, want 0 and 200", c.Streams(), st.CostBytes)
	}
	build()
	if lent == first || reused != 1 {
		t.Fatalf("a build after the eviction reused %d selections (same stream %v), want a fresh stream and no reuse", reused, lent == first)
	}
}
