package imm_test

import (
	"bytes"
	"context"
	"slices"
	"sync"
	"testing"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/imm"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/store"
)

// checkMemo holds a sketch's memoised answer against the uncached
// reference on its own collection: Select's seeds and coverage are
// Col.NodeSelection(K)'s, the coverage-at-prefix vector is the
// from-scratch recount of every prefix, and asking again changes nothing.
func checkMemo(t *testing.T, when string, sk *imm.Sketch) {
	t.Helper()
	want, frac := sk.Col.NodeSelection(sk.K)
	for round := 0; round < 2; round++ {
		res := sk.Select()
		if !slices.Equal(res.Seeds, want) || res.Coverage != frac {
			t.Fatalf("%s: Select #%d = %v (%.4f), NodeSelection(%d) = %v (%.4f)", when, round+1, res.Seeds, res.Coverage, sk.K, want, frac)
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
func checkAdopted(t *testing.T, when string, sk *imm.Sketch) {
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
	g := graph.BarabasiAlbert(300, 3, stats.NewRNG(201)).WeightedCascade()

	built, err := imm.BuildSketchCtx(ctx, g, 6, imm.Options{}, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	checkMemo(t, "built", built)

	par, err := imm.BuildSketchCtx(ctx, g, 6, imm.Options{Workers: 4}, stats.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	checkMemo(t, "parallel-grown", par)

	grown, err := imm.ExtendSketchCtx(ctx, g, built, 40, imm.Options{}, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	if grown.NumRRSets() <= built.NumRRSets() || grown.K != 40 {
		t.Fatalf("extension to k=40 did not grow: %d -> %d sets, K %d", built.NumRRSets(), grown.NumRRSets(), grown.K)
	}
	checkMemo(t, "extended (growth)", grown)

	// A K=6 sketch over the collection sized for 40 has room to spare:
	// raising it to 12 needs no growth, but a K its memo stops short of.
	col, _, phase1, lb, allNodesN := grown.State()
	roomy := imm.RestoreSketch(col, 6, phase1, lb, allNodesN)
	checkMemo(t, "restored over a larger collection", roomy)
	raised, err := imm.ExtendSketchCtx(ctx, g, roomy, 12, imm.Options{}, stats.NewRNG(10))
	if err != nil {
		t.Fatal(err)
	}
	if raised.Col != roomy.Col || raised.K != 12 {
		t.Fatalf("want a no-growth extension to K=12, got K %d, shared collection %v", raised.K, raised.Col == roomy.Col)
	}
	checkMemo(t, "extended (no growth, larger K)", raised)
	checkMemo(t, "base after its extension", roomy)

	same, err := imm.ExtendSketchCtx(ctx, g, roomy, 4, imm.Options{}, stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	if same != roomy {
		t.Fatal("a no-growth extension under an unchanged K should be the base sketch, memo and all")
	}

	checkMemo(t, "cloned", imm.RestoreSketch(col.Clone(), 40, phase1, lb, allNodesN))

	var wms bytes.Buffer
	if err := store.EncodeSketch(&wms, grown); err != nil {
		t.Fatal(err)
	}
	decoded, err := store.DecodeSketch(&wms, g)
	if err != nil {
		t.Fatal(err)
	}
	checkAdopted(t, "store round trip", decoded.(*imm.Sketch))
	if got, want := decoded.(*imm.Sketch).Select().Seeds, grown.Select().Seeds; !slices.Equal(got, want) {
		t.Fatalf("round-tripped sketch selects %v, original %v", got, want)
	}

	var stream bytes.Buffer
	if err := store.WriteSketchStreamEntry(&stream, "key", grown); err != nil {
		t.Fatal(err)
	}
	if _, err := store.ReadSketchStream(&stream, g, func(_ string, sk any) error {
		checkAdopted(t, "stream round trip", sk.(*imm.Sketch))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSelectReportConcurrentFirstCallers: 32 goroutines issuing the first
// SelectReport on one fresh sketch all get the reference result and the
// same report sequence.
func TestSelectReportConcurrentFirstCallers(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, stats.NewRNG(202)).WeightedCascade()
	sk, err := imm.BuildSketchCtx(context.Background(), g, 40, imm.Options{}, stats.NewRNG(12))
	if err != nil {
		t.Fatal(err)
	}
	want, frac := sk.Col.NodeSelection(40)
	wantReports := [][]graph.NodeID{want[:16], want[:32], want[:40]}

	results := make([]imm.Result, 32)
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
	g := graph.BarabasiAlbert(200, 3, stats.NewRNG(203)).WeightedCascade()
	sk := imm.BuildSketch(g, 12, imm.Options{}, stats.NewRNG(13))
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
