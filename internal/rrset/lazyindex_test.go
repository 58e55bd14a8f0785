package rrset

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/stats"
)

// samplerFamily is one graph plus the options a collection samples it
// under.
type samplerFamily struct {
	name string
	g    *graph.Graph
	opts Options
}

// samplerFamilies covers the three sampler paths: IC over skip-sampled
// neighbourhoods, IC with per-edge coins over mixed probabilities, and
// LT through a node coin.
func samplerFamilies() []samplerFamily {
	coin := func(v graph.NodeID) float64 { return 0.3 + 0.2*float64(v%3) }
	return []samplerFamily{
		{"ic-skip", graph.ErdosRenyi(150, 6000, stats.NewRNG(42)).UniformProb(0.02), Options{}},
		{"ic-mixed", mixedProbGraph(), Options{}},
		{"lt-node-coin", graph.PreferentialDirected(300, 6, stats.NewRNG(41)).WeightedCascade(),
			Options{Cascade: graph.CascadeLT, NodeCoin: coin}},
	}
}

// restoreOf restores a copy of c's arrays, as a sketch decode does.
func restoreOf(t *testing.T, c *Collection) *Collection {
	t.Helper()
	r, err := Restore(c.g, slices.Clone(c.Members()), slices.Clone(c.Offsets()))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// sameCovering fails unless got and want list the same sets for every
// node.
func sameCovering(t *testing.T, when string, got, want *Collection) {
	t.Helper()
	for v := graph.NodeID(0); int(v) < want.N(); v++ {
		if g, w := got.Covering(v), want.Covering(v); !slices.Equal(g, w) {
			t.Fatalf("%s: Covering(%d) = %v, want %v", when, v, g, w)
		}
	}
}

// TestLazyIndexDiskHitBuildsNoIndex: a restored collection whose sketch
// adopts its persisted selection serves Select without ever building
// the inverted index; the index a later read builds equals the grown
// collection's.
func TestLazyIndexDiskHitBuildsNoIndex(t *testing.T) {
	const k = 12
	for _, f := range samplerFamilies() {
		grown := f.opts.NewCollection(f.g)
		if err := grown.GrowParallelCtx(context.Background(), 2300, stats.NewRNG(3), 2, nil); err != nil {
			t.Fatal(err)
		}
		sel := grown.Select(k)

		r := restoreOf(t, grown)
		sk := &Sketch{Family: "prima", Col: r, K: k}
		if err := sk.AdoptSelection(sel); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		res := sk.Select()
		if r.indexed.Load() || r.coverIDs != nil {
			t.Fatalf("%s: Restore + AdoptSelection + Select built the index", f.name)
		}
		if !slices.Equal(res.Seeds, sel.Order) || res.Coverage != sel.Fraction() {
			t.Fatalf("%s: Select = %v (%.4f), adopted %v (%.4f)", f.name, res.Seeds, res.Coverage, sel.Order, sel.Fraction())
		}
		sameCovering(t, f.name+" restored", r, grown)
	}
}

// TestLazyIndexCloneCarriesNoIndex: a clone of an indexed collection
// starts without an index, and clone + grow answers Covering exactly as
// Restore of the grown arrays does.
func TestLazyIndexCloneCarriesNoIndex(t *testing.T) {
	ctx := context.Background()
	for _, f := range samplerFamilies() {
		c := f.opts.NewCollection(f.g)
		if err := c.GrowParallelCtx(ctx, 900, stats.NewRNG(5), 2, nil); err != nil {
			t.Fatal(err)
		}
		c.Covering(0)
		if !c.indexed.Load() {
			t.Fatalf("%s: Covering did not build the index", f.name)
		}
		cl := c.Clone()
		if cl.indexed.Load() || cl.coverIdx != nil || cl.coverIDs != nil {
			t.Fatalf("%s: the clone carries an index", f.name)
		}
		if err := cl.GrowParallelCtx(ctx, 2100, stats.NewRNG(6), 3, nil); err != nil {
			t.Fatal(err)
		}
		sameCovering(t, f.name+" clone + grow", cl, restoreOf(t, cl))
	}
}

// TestLazyIndexConcurrentFirstReads: two sketches share one restored
// collection (an extension's no-growth branch) and many goroutines make
// their first index read at once — Select on either sketch, Covering,
// CoverageOf. Every answer equals the one-goroutine reference; under
// -race the build is shown to be serialized against every reader.
func TestLazyIndexConcurrentFirstReads(t *testing.T) {
	grown := NewCollection(growTestGraph())
	grow(t, grown, 3000, stats.NewRNG(8))
	wantSmall, _ := grown.NodeSelection(10)
	wantLarge, _ := grown.NodeSelection(25)
	wantCover := grown.CoverageOf(wantLarge)

	r := restoreOf(t, grown)
	small := &Sketch{Family: "prima", Col: r, K: 10}
	large := &Sketch{Family: "prima", Col: r, K: 25}

	const goroutines = 16
	errs := make([]error, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			switch i % 4 {
			case 0:
				if got := small.Select().Seeds; !slices.Equal(got, wantSmall) {
					errs[i] = fmt.Errorf("small Select = %v, want %v", got, wantSmall)
				}
			case 1:
				if got := large.Select().Seeds; !slices.Equal(got, wantLarge) {
					errs[i] = fmt.Errorf("large Select = %v, want %v", got, wantLarge)
				}
			case 2:
				v := graph.NodeID(i % r.N())
				if got, want := r.Covering(v), grown.Covering(v); !slices.Equal(got, want) {
					errs[i] = fmt.Errorf("Covering(%d) = %v, want %v", v, got, want)
				}
			case 3:
				if got := r.CoverageOf(wantLarge); got != wantCover {
					errs[i] = fmt.Errorf("CoverageOf = %d, want %d", got, wantCover)
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", i, err)
		}
	}
	sameCovering(t, "after the race", r, grown)
}

// refCheckSelection is CheckSelection's predicate read off the index:
// the order's prefix coverage walked through Covering (PrefixCoverage
// shares CheckSelection's pass, so it cannot be the reference) and the
// maximum index degree.
func refCheckSelection(c *Collection, sel Selection, k int) error {
	n := c.N()
	if want := min(k, n); len(sel.Order) != want || len(sel.Covered) != want {
		return fmt.Errorf("length")
	}
	if sel.Sets != c.Len() {
		return fmt.Errorf("sets")
	}
	seen := make([]bool, n)
	for _, v := range sel.Order {
		if v < 0 || int(v) >= n || seen[v] {
			return fmt.Errorf("seed")
		}
		seen[v] = true
	}
	covered := make([]bool, c.Len())
	var hits int64
	for i, v := range sel.Order {
		for _, id := range c.Covering(v) {
			if !covered[id] {
				covered[id] = true
				hits++
			}
		}
		if hits != sel.Covered[i] {
			return fmt.Errorf("prefix coverage")
		}
	}
	idx, _ := c.index()
	var maxDeg int64
	for v := 0; v < n; v++ {
		maxDeg = max(maxDeg, idx[v+1]-idx[v])
	}
	prevGain, prevCovered := maxDeg, int64(0)
	for i, covered := range sel.Covered {
		gain := covered - prevCovered
		if (i == 0 && gain != maxDeg) || gain > prevGain {
			return fmt.Errorf("greedy shape")
		}
		prevGain, prevCovered = gain, covered
	}
	return nil
}

// randomSets draws a Members/Offsets pair over n nodes: up to 6
// distinct members per set (empty sets included, as the sampler never
// repeats a member), ids skewed towards 0 so degrees tie and differ.
func randomSets(n, sets int, rng *stats.RNG) (members []graph.NodeID, offsets []int64) {
	offsets = []int64{0}
	for range sets {
		start := len(members)
		for range rng.Intn(7) {
			if v := graph.NodeID(rng.Intn(n) * rng.Intn(n) / n); !slices.Contains(members[start:], v) {
				members = append(members, v)
			}
		}
		offsets = append(offsets, int64(len(members)))
	}
	return members, offsets
}

// TestCheckSelectionMatchesIndexReference: on random collections the
// index-free CheckSelection accepts exactly what the index-based
// reference accepts — the true greedy selection and each mutation of
// it — and never builds the index doing so.
func TestCheckSelectionMatchesIndexReference(t *testing.T) {
	rng := stats.NewRNG(2024)
	rejected := map[string]int{}
	for trial := range 200 {
		n := 1 + rng.Intn(80)
		members, offsets := randomSets(n, rng.Intn(300), rng)
		c, err := Restore(graph.Line(n, 1), members, offsets)
		if err != nil {
			t.Fatal(err)
		}
		k := []int{0, 1, 1 + rng.Intn(n), n, n + 3}[trial%5]
		good := c.Select(k)
		// Select built c's index; check the candidates on a fresh
		// restore, which has none.
		fresh, err := Restore(c.g, members, offsets)
		if err != nil {
			t.Fatal(err)
		}
		type candidate struct {
			name string
			sel  Selection
			// reject marks a mutation every correct checker refuses; the
			// others may be another valid greedy answer (a tie).
			reject bool
		}
		cands := []candidate{{name: "greedy", sel: good}}
		mutate := func(name string, reject bool, f func(s *Selection) bool) {
			s := Selection{Order: slices.Clone(good.Order), Covered: slices.Clone(good.Covered), Sets: good.Sets}
			if f(&s) {
				cands = append(cands, candidate{name, s, reject})
			}
		}
		gainAt := func(s Selection, i int) int64 {
			if i == 0 {
				return s.Covered[0]
			}
			return s.Covered[i] - s.Covered[i-1]
		}
		swapAdjacent := func(s *Selection) bool {
			for i := 0; i+1 < len(s.Order); i++ {
				if gainAt(*s, i) != gainAt(*s, i+1) {
					s.Order[i], s.Order[i+1] = s.Order[i+1], s.Order[i]
					return true
				}
			}
			return false
		}
		mutate("swapped, counts stale", false, swapAdjacent)
		mutate("swapped, counts recomputed", false, func(s *Selection) bool {
			if !swapAdjacent(s) {
				return false
			}
			s.Covered = c.PrefixCoverage(s.Order)
			return true
		})
		mutate("covered off by one", true, func(s *Selection) bool {
			if len(s.Covered) == 0 {
				return false
			}
			s.Covered[rng.Intn(len(s.Covered))] += []int64{-1, 1}[rng.Intn(2)]
			return true
		})
		mutate("duplicated seed", true, func(s *Selection) bool {
			if len(s.Order) < 2 {
				return false
			}
			i := 1 + rng.Intn(len(s.Order)-1)
			s.Order[i] = s.Order[rng.Intn(i)]
			return true
		})
		mutate("out-of-range seed", true, func(s *Selection) bool {
			if len(s.Order) == 0 {
				return false
			}
			s.Order[rng.Intn(len(s.Order))] = []graph.NodeID{-1, graph.NodeID(n)}[rng.Intn(2)]
			return true
		})
		mutate("truncated", true, func(s *Selection) bool {
			if len(s.Order) == 0 {
				return false
			}
			s.Order, s.Covered = s.Order[:len(s.Order)-1], s.Covered[:len(s.Covered)-1]
			return true
		})
		mutate("wrong Sets", true, func(s *Selection) bool { s.Sets++; return true })
		mutate("reversed, counts correct", false, func(s *Selection) bool {
			slices.Reverse(s.Order)
			s.Covered = c.PrefixCoverage(s.Order)
			return true
		})
		mutate("low degree first, counts correct", false, func(s *Selection) bool {
			s.Order = s.Order[:0]
			for v := n - 1; v >= 0 && len(s.Order) < len(good.Order); v-- {
				s.Order = append(s.Order, graph.NodeID(v))
			}
			s.Covered = c.PrefixCoverage(s.Order)
			return true
		})

		for _, cand := range cands {
			got := fresh.CheckSelection(cand.sel, k)
			if fresh.indexed.Load() {
				t.Fatalf("trial %d %s: CheckSelection built the index", trial, cand.name)
			}
			want := refCheckSelection(c, cand.sel, k)
			if (got == nil) != (want == nil) {
				t.Fatalf("trial %d (n=%d, %d sets, k=%d) %s: CheckSelection says %v, reference %v",
					trial, n, c.Len(), k, cand.name, got, want)
			}
			if cand.name == "greedy" && got != nil {
				t.Fatalf("trial %d: Select's own answer rejected: %v", trial, got)
			}
			if cand.reject && got == nil {
				t.Fatalf("trial %d %s: accepted", trial, cand.name)
			}
			if got != nil {
				rejected[cand.name]++
			}
		}
	}
	for _, name := range []string{"swapped, counts stale", "swapped, counts recomputed", "covered off by one",
		"duplicated seed", "out-of-range seed", "truncated", "wrong Sets", "reversed, counts correct", "low degree first, counts correct"} {
		if rejected[name] == 0 {
			t.Errorf("mutation %q was never rejected", name)
		}
	}
}
