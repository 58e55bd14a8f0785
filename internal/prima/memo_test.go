package prima_test

import (
	"bytes"
	"context"
	"slices"
	"sync"
	"testing"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/prima"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/store"
)

// checkMemo holds a sketch's memoised answer against the uncached
// reference on its own collection: Select's seeds and coverage are
// Col.NodeSelection(MaxBudget)'s, the coverage-at-prefix vector is the
// from-scratch recount of every prefix, and asking again changes nothing.
func checkMemo(t *testing.T, when string, sk *prima.Sketch) {
	t.Helper()
	want, frac := sk.Col.NodeSelection(sk.MaxBudget)
	for round := 0; round < 2; round++ {
		res := sk.Select()
		if !slices.Equal(res.Seeds, want) || res.Coverage != frac {
			t.Fatalf("%s: Select #%d = %v (%.4f), NodeSelection(%d) = %v (%.4f)", when, round+1, res.Seeds, res.Coverage, sk.MaxBudget, want, frac)
		}
	}
	cov := sk.Selection().Covered
	if len(cov) != len(want) {
		t.Fatalf("%s: %d coverage counts for %d seeds", when, len(cov), len(want))
	}
	for b := 1; b <= len(want); b++ {
		if c := int64(sk.Col.CoverageOf(want[:b])); cov[b-1] != c {
			t.Fatalf("%s: coverage at prefix %d = %d, recount = %d", when, b, cov[b-1], c)
		}
	}
}

// checkAdopted holds a freshly decoded sketch to its persisted memo:
// the memo is already filled before any Select — the first Select reads
// the adopted selection instead of running the greedy — and the answer
// is the uncached reference's.
func checkAdopted(t *testing.T, when string, sk *prima.Sketch) {
	t.Helper()
	if !sk.MemoFilled() {
		t.Fatalf("%s: decoded sketch has no selection before its first Select: the greedy would run", when)
	}
	checkMemo(t, when, sk)
}

// TestSelectMemoMatchesUncachedReference walks a sketch through every way
// the system derives one — built, parallel-grown, extended with and
// without growth, cloned, round-tripped through the .wms and WMSSTRM codecs — and
// checks each stage's memoised selection; bases are selected before they
// are derived from, so a stale memo carried along would show.
func TestSelectMemoMatchesUncachedReference(t *testing.T) {
	ctx := context.Background()
	g := graph.BarabasiAlbert(300, 3, stats.NewRNG(101)).WeightedCascade()
	ladder := []int{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	opts := prima.Options{}

	built, err := prima.BuildSketchCtx(ctx, g, ladder, opts, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	checkMemo(t, "built", built)

	par, err := prima.BuildSketchCtx(ctx, g, ladder, prima.Options{Workers: 4}, stats.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	checkMemo(t, "parallel-grown", par)

	grown, err := prima.ExtendSketchCtx(ctx, g, built, ladder, opts, []int{40, 10}, opts, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	if grown.NumRRSets() <= built.NumRRSets() || grown.MaxBudget != 40 {
		t.Fatalf("extension to budget 40 did not grow: %d -> %d sets, ceiling %d", built.NumRRSets(), grown.NumRRSets(), grown.MaxBudget)
	}
	checkMemo(t, "extended (growth)", grown)

	// One budget in place of ten shrinks ℓ' by more than the larger top
	// budget adds: no growth, but a ceiling the base's memo stops short of.
	raised, err := prima.ExtendSketchCtx(ctx, g, built, ladder, opts, []int{11}, opts, stats.NewRNG(10))
	if err != nil {
		t.Fatal(err)
	}
	if raised.Col != built.Col || raised.MaxBudget != 11 {
		t.Fatalf("want a no-growth extension to ceiling 11, got ceiling %d, shared collection %v", raised.MaxBudget, raised.Col == built.Col)
	}
	checkMemo(t, "extended (no growth, larger ceiling)", raised)
	checkMemo(t, "base after its extensions", built)

	same, err := prima.ExtendSketchCtx(ctx, g, built, ladder, opts, []int{5}, opts, stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	if same != built {
		t.Fatal("a no-growth extension under an unchanged ceiling should be the base sketch, memo and all")
	}

	_, maxBudget, phase1, allNodesN := grown.State()
	checkMemo(t, "cloned", prima.RestoreSketch(grown.Col.Clone(), maxBudget, phase1, allNodesN))

	var wms bytes.Buffer
	if err := store.EncodeSketch(&wms, grown); err != nil {
		t.Fatal(err)
	}
	decoded, err := store.DecodeSketch(&wms, g)
	if err != nil {
		t.Fatal(err)
	}
	checkAdopted(t, "store round trip", decoded.(*prima.Sketch))
	if got, want := decoded.(*prima.Sketch).Select().Seeds, grown.Select().Seeds; !slices.Equal(got, want) {
		t.Fatalf("round-tripped sketch selects %v, original %v", got, want)
	}

	var stream bytes.Buffer
	if err := store.WriteSketchStreamEntry(&stream, "key", grown); err != nil {
		t.Fatal(err)
	}
	if _, err := store.ReadSketchStream(&stream, g, func(_ string, sk any) error {
		checkAdopted(t, "stream round trip", sk.(*prima.Sketch))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSelectReportConcurrentFirstCallers: 32 goroutines issuing the first
// SelectReport on one fresh sketch all get the reference result and the
// same report sequence.
func TestSelectReportConcurrentFirstCallers(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, stats.NewRNG(102)).WeightedCascade()
	sk, err := prima.BuildSketchCtx(context.Background(), g, []int{40, 10}, prima.Options{}, stats.NewRNG(12))
	if err != nil {
		t.Fatal(err)
	}
	want, frac := sk.Col.NodeSelection(40)
	wantReports := [][]graph.NodeID{want[:16], want[:32], want[:40]}

	results := make([]prima.Result, 32)
	reports := make([][][]graph.NodeID, 32)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = sk.SelectReport(func(prefix []graph.NodeID) {
				reports[i] = append(reports[i], slices.Clone(prefix))
			})
		}()
	}
	wg.Wait()
	for i, res := range results {
		if !slices.Equal(res.Seeds, want) || res.Coverage != frac || res.NumRRSets != sk.NumRRSets() {
			t.Fatalf("caller %d: %v (%.4f), want %v (%.4f)", i, res.Seeds, res.Coverage, want, frac)
		}
		if !slices.EqualFunc(reports[i], wantReports, slices.Equal[[]graph.NodeID]) {
			t.Fatalf("caller %d: report sequence %v, want %v", i, reports[i], wantReports)
		}
	}
}

// TestSelectSeedsBelongToCaller: writing into or appending to a returned
// Seeds slice cannot change what the next caller reads.
func TestSelectSeedsBelongToCaller(t *testing.T) {
	g := graph.BarabasiAlbert(200, 3, stats.NewRNG(103)).WeightedCascade()
	sk := prima.BuildSketch(g, []int{12, 4}, prima.Options{}, stats.NewRNG(13))
	want, _ := sk.Col.NodeSelection(12)

	first := sk.Select().Seeds
	for i := range first {
		first[i] = -1
	}
	_ = append(first[:3], -2, -3)
	if got := sk.Select().Seeds; !slices.Equal(got, want) {
		t.Fatalf("after mutating a returned Seeds the next Select = %v, want %v", got, want)
	}
}
