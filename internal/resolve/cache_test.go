package resolve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uicwelfare/internal/rrset"
)

func TestSketchCacheSingleflight(t *testing.T) {
	c := NewSketchCache(8, 0, 0, nil)
	var builds atomic.Int32
	gate := make(chan struct{})

	const waiters = 8
	built := &rrset.Sketch{}
	var wg sync.WaitGroup
	results := make([]*rrset.Sketch, waiters)
	hits := make([]bool, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, hit, err := c.GetOrBuildCtx(context.Background(), "k", func() (*rrset.Sketch, error) {
				builds.Add(1)
				<-gate // hold every concurrent requester on one build
				return built, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], hits[i] = v, hit
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let the requesters pile up
	close(gate)
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Fatalf("built %d times, want 1", n)
	}
	misses := 0
	for i := range results {
		if results[i] != built {
			t.Fatalf("result %d = %v", i, results[i])
		}
		if !hits[i] {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d misses, want exactly 1", misses)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != waiters-1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSketchCacheEviction(t *testing.T) {
	c := NewSketchCache(2, 0, 0, nil)
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, hit, _ := c.GetOrBuildCtx(context.Background(), key, func() (*rrset.Sketch, error) { return &rrset.Sketch{K: i}, nil }); hit {
			t.Errorf("key %s: unexpected hit", key)
		}
	}
	st := c.Stats()
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}
	if st.Evictions != 3 {
		t.Errorf("evictions = %d, want 3", st.Evictions)
	}
	// The most recent keys survive.
	if _, hit, _ := c.GetOrBuildCtx(context.Background(), "k4", func() (*rrset.Sketch, error) { return nil, nil }); !hit {
		t.Error("k4 was evicted")
	}
	if _, hit, _ := c.GetOrBuildCtx(context.Background(), "k0", func() (*rrset.Sketch, error) { return &rrset.Sketch{}, nil }); hit {
		t.Error("k0 survived eviction")
	}
}

func TestSketchCacheCostEviction(t *testing.T) {
	// Entry bound is generous; the byte budget is the binding constraint:
	// each entry costs 60, the budget is 100, so at most one completed
	// entry fits at a time.
	c := NewSketchCache(10, 100, 0, func(*rrset.Sketch) int64 { return 60 })
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, _, err := c.GetOrBuildCtx(context.Background(), key, func() (*rrset.Sketch, error) { return &rrset.Sketch{K: i}, nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries != 1 || st.CostBytes != 60 {
		t.Errorf("entries=%d cost=%d, want 1 entry at cost 60", st.Entries, st.CostBytes)
	}
	if st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", st.Evictions)
	}
	if st.MaxCostBytes != 100 {
		t.Errorf("max cost = %d", st.MaxCostBytes)
	}
	// The newest entry is the survivor.
	if _, hit, _ := c.GetOrBuildCtx(context.Background(), "k2", func() (*rrset.Sketch, error) { return nil, nil }); !hit {
		t.Error("most recent entry was evicted")
	}
	// Eviction on graph invalidation returns its cost to the pool.
	c.InvalidateGraph("k2") // no "|" prefix match: nothing happens
	if c.Stats().Entries != 1 {
		t.Error("prefix-less invalidation dropped an entry")
	}
	c.Reset()
	if st := c.Stats(); st.Entries != 0 || st.CostBytes != 0 {
		t.Errorf("after reset: %+v", st)
	}
}

func TestSketchCacheErrorNotCached(t *testing.T) {
	c := NewSketchCache(8, 0, 0, nil)
	boom := errors.New("boom")
	if _, _, err := c.GetOrBuildCtx(context.Background(), "k", func() (*rrset.Sketch, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	ok := &rrset.Sketch{}
	v, hit, err := c.GetOrBuildCtx(context.Background(), "k", func() (*rrset.Sketch, error) { return ok, nil })
	if err != nil || hit || v != ok {
		t.Errorf("retry after error: v=%v hit=%v err=%v", v, hit, err)
	}
}

func TestInvalidateGraphDropsInFlightBuilds(t *testing.T) {
	c := NewSketchCache(8, 0, 0, nil)
	gate := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = c.GetOrBuildCtx(context.Background(), "g1|prima|x", func() (*rrset.Sketch, error) {
			<-gate
			return &rrset.Sketch{}, nil
		})
	}()
	// Wait for the build to be registered, then invalidate mid-build.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Entries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("build never registered")
		}
		time.Sleep(time.Millisecond)
	}
	c.InvalidateGraph("g1")
	close(gate)
	<-done
	if n := c.Stats().Entries; n != 0 {
		t.Fatalf("in-flight sketch survived invalidation: %d entries", n)
	}
}

// TestKeyGroupAndBudgets: the batch group key is the sketch key with
// its budgets cut off, a key is in exactly its own group — another ℓ
// or seed is another group — and the budgets it ends in parse back.
func TestKeyGroupAndBudgets(t *testing.T) {
	group := Key("g1", "prima", 0, 0.5, 1, 1, nil)
	for _, budgets := range [][]int{{50, 30}, {7}, nil} {
		key := Key("g1", "prima", 0, 0.5, 1, 1, budgets)
		if got := groupKeyOf(key); got != group {
			t.Errorf("groupKeyOf(budgets %v) = %q, want %q", budgets, got, group)
		}
		if !inGroup(key, group) {
			t.Errorf("%q not in its own group %q", key, group)
		}
		if got := budgetsOf(key); !slices.Equal(got, budgets) {
			t.Errorf("budgetsOf(%q) = %v, want %v", key, got, budgets)
		}
	}
	if inGroup(Key("g1", "prima", 0, 0.5, 1, 1, []int{5}), Key("g1", "prima", 0, 0.5, 10, 1, nil)) {
		t.Error("a key of ℓ = 1 reads as a member of the ℓ = 10 group")
	}
	for _, seed := range []uint64{2, 11} {
		if inGroup(Key("g1", "prima", 0, 0.5, 1, seed, []int{5}), group) {
			t.Errorf("a key of seed %d reads as a member of the seed-1 group", seed)
		}
	}
	if inGroup(phase1Key("g1", 0, 1), group) {
		t.Error("a phase-1 stream key reads as a sketch of the group")
	}
}

// BenchmarkCovers prices admission's group query over a cache of n
// completed sketches, all in the request's group (the scan's worst
// case): an exact-key hit, and a miss that scans every entry.
func BenchmarkCovers(b *testing.B) {
	for _, n := range []int{64, 4096} {
		c := NewSketchCache(n, 0, 0, nil)
		for i := range n {
			c.Put(Key("g1", "prima", 0, 0.5, 1, 1, []int{i + 2, 1}), &rrset.Sketch{Family: "prima"})
		}
		serves := func(want int) func([]int) bool {
			return func(have []int) bool { return have[0] >= want }
		}
		b.Run(fmt.Sprintf("entries=%d/exact", n), func(b *testing.B) {
			key := Key("g1", "prima", 0, 0.5, 1, 1, []int{2, 1})
			for range b.N {
				if !c.Covers(key, serves(2)) {
					b.Fatal("the exact key is not covered")
				}
			}
		})
		b.Run(fmt.Sprintf("entries=%d/miss", n), func(b *testing.B) {
			key := Key("g1", "prima", 0, 0.5, 1, 1, []int{n + 10})
			for range b.N {
				if c.Covers(key, serves(n+10)) {
					b.Fatal("an undominated request is covered")
				}
			}
		})
	}
}
