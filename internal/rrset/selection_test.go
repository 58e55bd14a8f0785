package rrset

import (
	"slices"
	"sync"
	"testing"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/stats"
)

// TestSelectRecordsCoverageAtEveryPrefix: Select's Covered vector is the
// from-scratch recount of every prefix of its order, its order is
// NodeSelection's, and PrefixCoverage recomputes the same vector from
// the order alone — including the tail where greedy pads with nodes that
// cover nothing new.
func TestSelectRecordsCoverageAtEveryPrefix(t *testing.T) {
	members, offsets := fixedSets(60, 400)
	fixed, err := Restore(graph.Line(60, 1), members, offsets)
	if err != nil {
		t.Fatal(err)
	}
	grown := NewCollection(growTestGraph())
	grow(t, grown, 3000, stats.NewRNG(5))

	for name, c := range map[string]*Collection{"fixed": fixed, "grown": grown, "empty": NewCollection(growTestGraph())} {
		for _, k := range []int{0, 1, 12, 50, c.N() + 7} {
			sel := c.Select(k)
			seeds, frac := c.NodeSelection(k)
			if !slices.Equal(sel.Order, seeds) || sel.Fraction() != frac {
				t.Fatalf("%s k=%d: Select %v (%.4f) != NodeSelection %v (%.4f)", name, k, sel.Order, sel.Fraction(), seeds, frac)
			}
			if len(sel.Order) != min(k, c.N()) || len(sel.Covered) != len(sel.Order) || sel.Sets != c.Len() {
				t.Fatalf("%s k=%d: %d seeds, %d counts over %d sets", name, k, len(sel.Order), len(sel.Covered), sel.Sets)
			}
			for b := 1; b <= len(sel.Order); b++ {
				if want := int64(c.CoverageOf(sel.Order[:b])); sel.Covered[b-1] != want {
					t.Fatalf("%s k=%d: Covered[%d] = %d, recount of the %d-prefix = %d", name, k, b-1, sel.Covered[b-1], b, want)
				}
			}
			if got := c.PrefixCoverage(sel.Order); !slices.Equal(got, sel.Covered) {
				t.Fatalf("%s k=%d: PrefixCoverage = %v, Select recorded %v", name, k, got, sel.Covered)
			}
		}
	}
}

// replayed collects the prefixes Replay reports, copied.
func replayed(sel Selection) [][]graph.NodeID {
	var out [][]graph.NodeID
	sel.Replay(func(prefix []graph.NodeID) { out = append(out, slices.Clone(prefix)) })
	return out
}

// TestReplayCadence: prefixes arrive every selectionReportChunk seeds and
// once with the full order, never twice for the same length, and an
// append to a reported prefix cannot reach the order behind it.
func TestReplayCadence(t *testing.T) {
	order := make([]graph.NodeID, 50)
	for i := range order {
		order[i] = graph.NodeID(100 + i)
	}
	for k, want := range map[int][]int{0: nil, 5: {5}, 16: {16}, 17: {16, 17}, 32: {16, 32}, 50: {16, 32, 48, 50}} {
		var got []int
		for _, p := range replayed(Selection{Order: order[:k]}) {
			if !slices.Equal(p, order[:len(p)]) {
				t.Fatalf("k=%d: prefix %v is not a prefix of the order", k, p)
			}
			got = append(got, len(p))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("k=%d: reported lengths %v, want %v", k, got, want)
		}
	}
	Selection{Order: order[:20]}.Replay(func(prefix []graph.NodeID) { _ = append(prefix, -1) })
	if order[16] != 116 || order[19] != 119 {
		t.Fatalf("append to a replayed prefix wrote into the order: %v", order[:21])
	}
	Selection{Order: order}.Replay(nil) // nil report is a no-op
}

// TestSelectionMemoConcurrentFirstGet: 32 goroutines racing for the first
// Get on a fresh memo all receive the one selection — the same backing
// array, so the greedy ran once — equal to the uncached reference.
func TestSelectionMemoConcurrentFirstGet(t *testing.T) {
	c := NewCollection(growTestGraph())
	grow(t, c, 3000, stats.NewRNG(6))
	want, _ := c.NodeSelection(40)

	var memo SelectionMemo
	got := make([]Selection, 32)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = memo.Get(c, 40)
		}()
	}
	wg.Wait()
	for i, sel := range got {
		if !slices.Equal(sel.Order, want) {
			t.Fatalf("goroutine %d: order %v, want %v", i, sel.Order, want)
		}
		if &sel.Order[0] != &got[0].Order[0] || &sel.Covered[0] != &got[0].Covered[0] {
			t.Fatalf("goroutine %d got its own selection: the greedy ran more than once", i)
		}
	}
	if MemoBytes(40) != int64(4*len(got[0].Order)+8*len(got[0].Covered)) {
		t.Fatalf("MemoBytes(40) = %d, the memo holds %d ids and %d counts", MemoBytes(40), len(got[0].Order), len(got[0].Covered))
	}
}

// TestCheckSelection: every selection Select produces passes, and each
// way a persisted one can be wrong — length, a repeated or out-of-range
// seed, a covered count off by one, a non-greedy order, a foreign set
// count — is rejected.
func TestCheckSelection(t *testing.T) {
	c := NewCollection(growTestGraph())
	grow(t, c, 3000, stats.NewRNG(7))
	for _, k := range []int{0, 1, 12, c.N() + 3} {
		if err := c.CheckSelection(c.Select(k), k); err != nil {
			t.Fatalf("k=%d: Select's own answer rejected: %v", k, err)
		}
	}
	good := c.Select(12)
	tamper := func(f func(s *Selection)) Selection {
		s := Selection{Order: slices.Clone(good.Order), Covered: slices.Clone(good.Covered), Sets: good.Sets}
		f(&s)
		return s
	}
	for name, bad := range map[string]Selection{
		"short":            tamper(func(s *Selection) { s.Order, s.Covered = s.Order[:11], s.Covered[:11] }),
		"repeated seed":    tamper(func(s *Selection) { s.Order[5] = s.Order[4] }),
		"out-of-range":     tamper(func(s *Selection) { s.Order[3] = graph.NodeID(c.N()) }),
		"negative seed":    tamper(func(s *Selection) { s.Order[0] = -1 }),
		"covered off":      tamper(func(s *Selection) { s.Covered[7]++ }),
		"swapped order":    tamper(func(s *Selection) { s.Order[0], s.Order[1] = s.Order[1], s.Order[0] }),
		"foreign set size": tamper(func(s *Selection) { s.Sets++ }),
	} {
		if err := c.CheckSelection(bad, 12); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	var memo SelectionMemo
	if !memo.Adopt(good) || memo.Adopt(Selection{}) {
		t.Fatal("Adopt must take an empty memo and lose to a filled one")
	}
	if got := memo.Get(c, 12); &got.Order[0] != &good.Order[0] {
		t.Fatal("Get after Adopt ran the greedy instead of reading the adopted selection")
	}
}
