package rrset

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/telemetry"
)

// lentStream lends one resident collection to every Phase1 opened on
// its options, as the sketch cache does, and records the reused count
// the last release reported.
type lentStream struct {
	col    *Collection
	reused int
}

func (s *lentStream) opts(workers int) Options {
	return Options{Workers: workers, Phase1Stream: func(_ context.Context, fresh *Collection) (*Collection, func(int, int), error) {
		if s.col == nil {
			s.col = fresh
		}
		return s.col, func(_, reused int) { s.reused = reused }, nil
	}}
}

// greedySpans counts the greedy_select spans ctx's trace has recorded.
func greedySpans(ctx context.Context) int {
	return telemetry.FromContext(ctx).Stages()["greedy_select"].Count
}

// samePrefixSelection fails unless got is the selection a private S₁
// grown to l sets answers for budget k.
func samePrefixSelection(t *testing.T, what string, got Selection, g *graph.Graph, base uint64, l int64, k int) {
	t.Helper()
	own, err := Options{Workers: 1}.OpenPhase1(context.Background(), g, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := own.Grow(context.Background(), l, 1); err != nil {
		t.Fatal(err)
	}
	want := own.View().Select(k)
	if !slices.Equal(got.Order, want.Order) || !slices.Equal(got.Covered, want.Covered) || got.Sets != want.Sets || got.Fraction() != want.Fraction() {
		t.Fatalf("%s: selects %v / %v of %d (fraction %g), a private S₁[:%d] %v / %v of %d (fraction %g)",
			what, got.Order, got.Covered, got.Sets, got.Fraction(), l, want.Order, want.Covered, want.Sets, want.Fraction())
	}
}

// TestPhase1PrefixMemoMatchesFresh: on a lent S₁, a coverage test that
// an earlier Phase1 already ran at the same prefix length — for the
// same budget or a larger one — is answered from the stream's memo
// with no greedy run and no greedy_select span, and equals the greedy
// on a private S₁ of that length; a budget past the remembered order,
// or a prefix length never asked for, runs the greedy and equals it
// too.
func TestPhase1PrefixMemoMatchesFresh(t *testing.T) {
	g := growTestGraph()
	const base = 0xbeef
	var s lentStream
	ctx := telemetry.NewContext(context.Background(), telemetry.NewTrace("memo", true))
	type step struct {
		l      int64
		k      int
		reused bool
	}
	builds := [][]step{
		{{700, 20, false}, {1800, 12, false}},
		// The same lengths: answered for k ≤ the remembered order.
		{{700, 20, true}, {700, 5, true}, {1800, 12, true}, {1800, 30, false}, {1800, 25, true}},
		// Another length between them, and the remembered ones again.
		{{1200, 12, false}, {700, 1, true}, {1200, 12, true}, {1800, 30, true}},
	}
	for b, steps := range builds {
		p, err := s.opts(2).OpenPhase1(ctx, g, base)
		if err != nil {
			t.Fatal(err)
		}
		wantReused := 0
		for _, st := range steps {
			if err := p.Grow(ctx, st.l, 1); err != nil {
				t.Fatal(err)
			}
			// Grow never shrinks the read prefix: read S₁[:l] directly.
			p.read = int(st.l)
			spans := greedySpans(ctx)
			sel := p.Select(ctx, st.k)
			what := fmt.Sprintf("build %d, l %d, k %d", b, st.l, st.k)
			samePrefixSelection(t, what, sel, g, base, st.l, st.k)
			if ran := greedySpans(ctx) - spans; ran != map[bool]int{true: 0, false: 1}[st.reused] {
				t.Fatalf("%s: %d greedy_select spans, want a memo hit %v", what, ran, st.reused)
			}
			if st.reused {
				wantReused++
			}
		}
		p.Release()
		if s.reused != wantReused {
			t.Fatalf("build %d: release reported %d reused selections, want %d", b, s.reused, wantReused)
		}
	}
	// The longest order per length is kept: 700 → 20, 1200 → 12, 1800 → 30.
	if got := s.col.selections.bytes(); got != MemoBytes(20+12+30) {
		t.Fatalf("memo holds %d bytes, want %d", got, MemoBytes(62))
	}
}

// TestPhase1PrefixMemoPricedAndBounded: a lent stream's memo is priced
// in its ResidentBytes, holds at most prefixMemoCap prefix lengths —
// starting over when one more comes — and goes with Reset.
func TestPhase1PrefixMemoPricedAndBounded(t *testing.T) {
	g := growTestGraph()
	ctx := context.Background()
	var s lentStream
	p, err := s.opts(2).OpenPhase1(ctx, g, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Grow(ctx, 400+prefixMemoCap, 1); err != nil {
		t.Fatal(err)
	}
	sets := s.col.ResidentBytes()
	for l := 400; l < 400+prefixMemoCap; l++ {
		p.read = l
		p.Select(ctx, 3)
	}
	if got, want := s.col.ResidentBytes(), sets+prefixMemoCap*MemoBytes(3); got != want {
		t.Fatalf("ResidentBytes %d with a full memo, want %d (sets %d + %d orders of 3)", got, want, sets, prefixMemoCap)
	}
	// A longer order at a remembered length replaces it in place.
	p.read = 400
	p.Select(ctx, 5)
	if got, want := s.col.ResidentBytes(), sets+(prefixMemoCap-1)*MemoBytes(3)+MemoBytes(5); got != want {
		t.Fatalf("ResidentBytes %d after a longer order at a full memo's length, want %d", got, want)
	}
	// One length past the cap starts the memo over.
	p.read = 400 + prefixMemoCap
	p.Select(ctx, 3)
	if len(s.col.selections) != 1 || s.col.ResidentBytes() != sets+MemoBytes(3) {
		t.Fatalf("memo holds %d lengths (%d bytes) after a put past the cap, want only the new one",
			len(s.col.selections), s.col.ResidentBytes()-sets)
	}
	if _, ok := s.col.selections.get(400+prefixMemoCap, 3); !ok {
		t.Fatal("the length put past the cap was not remembered")
	}
	p.Release()
	s.col.Reset()
	if s.col.selections.bytes() != 0 || len(s.col.selections) != 0 {
		t.Fatal("Reset kept the remembered selections")
	}
}

// TestPhase1PrefixMemoClampsBudget: a budget past the node count is
// clamped like Select's, so a memo hit and a fresh run agree on it.
func TestPhase1PrefixMemoClampsBudget(t *testing.T) {
	g := graph.ErdosRenyi(30, 120, stats.NewRNG(5)).WeightedCascade()
	var s lentStream
	ctx := context.Background()
	for b := 0; b < 2; b++ {
		p, err := s.opts(1).OpenPhase1(ctx, g, 11)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Grow(ctx, 300, 1); err != nil {
			t.Fatal(err)
		}
		samePrefixSelection(t, fmt.Sprintf("build %d", b), p.Select(ctx, 50), g, 11, 300, 50)
		p.Release()
		if s.reused != b {
			t.Fatalf("build %d: %d reused selections", b, s.reused)
		}
	}
}
